"""The two scoring agents and the single-agent baseline.

run_extraction turns a response into a validated structured representation;
run_scoring turns that representation (plus the original inputs) into a
score; run_baseline scores directly from rubric and response, with no
component schema anywhere in its prompts. All three share one retry policy:
on a parse or validation failure the agent re-prompts with the error
appended, up to max_retries total model calls.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from . import prompts
# request_digest stays importable here: bench/spans.py traces it per module
from .backend import ChatRequest, request_digest  # noqa: F401
from .core import (
    AutoscoreError,
    OutOfRange,
    Score,
    ScoreRange,
    StudentResponse,
    TaskContext,
    Transcript,
    validate_score,
)
from .schema import (
    ComponentSchema,
    FieldKind,
    MissingField,
    NoJsonFound,
    SchemaError,
    StructuredRepresentation,
    extract_json_block,
    validate_representation,
)

DEFAULT_MAX_RETRIES = 3

PLACEHOLDER_NAMES = (
    "question",
    "reference_material",
    "rubric_text",
    "response",
    "schema_description",
    "representation_json",
    "score_min",
    "score_max",
    "previous_output",
    "error",
)


class AgentError(AutoscoreError):
    """Base class for agent-level failures."""


class UnboundPlaceholder(AgentError):
    pass


class NonInteger(AgentError):
    """The score field is present but is not a JSON integer."""


class Attempt(NamedTuple):
    """One model call: the request digest, the raw text that came back,
    and the call's latency."""

    digest: str
    text: str
    latency_ms: int


class AttemptHistory:
    """What follows from `attempts`, one Attempt per model call."""

    attempts: list[Attempt]

    @property
    def retries(self) -> int:
        return len(self.attempts) - 1

    @property
    def wall_time_ms(self) -> int:
        return sum(a.latency_ms for a in self.attempts)

    def transcripts(self, agent_name: str) -> list[Transcript]:
        return [Transcript(agent_name, a.digest, a.text) for a in self.attempts]


class RetriesExhausted(AttemptHistory, AgentError):
    """Every model call failed to parse/validate; carries the full attempt
    history so callers can persist transcripts or impute a floor score."""

    def __init__(self, last_error: Exception, attempts: list[Attempt]):
        self.last_error = last_error
        self.attempts = attempts
        super().__init__(
            f"gave up after {len(attempts)} attempts: {last_error}"
        )


class ExtractionFailed(RetriesExhausted):
    pass


class ScoringFailed(RetriesExhausted):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    """System/user text pair with {name} placeholders."""

    name: str
    system_text: str
    user_text: str


DEFAULT_EXTRACTION_TEMPLATE = PromptTemplate(
    "extraction", prompts.EXTRACTION_SYSTEM, prompts.EXTRACTION_USER
)
DEFAULT_SCORING_TEMPLATE = PromptTemplate(
    "scoring", prompts.SCORING_SYSTEM, prompts.SCORING_USER
)
DEFAULT_BASELINE_TEMPLATE = PromptTemplate(
    "baseline", prompts.BASELINE_SYSTEM, prompts.BASELINE_USER
)


@dataclass
class AgentOutcome(AttemptHistory):
    """Result of one agent invocation, retries included."""

    value: "StructuredRepresentation | Score"
    attempts: list[Attempt]


_PLACEHOLDER_RE = re.compile(
    r"\{(" + "|".join(re.escape(n) for n in PLACEHOLDER_NAMES) + r")\}"
)


def render(template_text: str, bindings: dict[str, str]) -> str:
    """Substitute {name} placeholders in a single pass; every other brace in
    the template (and anything inside bound values) is left untouched.

    Raises UnboundPlaceholder if the template uses a placeholder that is
    not bound, so a template can never silently ship with a hole in it.
    """
    used = {m.group(1) for m in _PLACEHOLDER_RE.finditer(template_text)}
    missing = sorted(used - bindings.keys())
    if missing:
        raise UnboundPlaceholder(
            f"placeholders left unbound after rendering: {missing}"
        )
    return _PLACEHOLDER_RE.sub(
        lambda m: str(bindings[m.group(1)]), template_text
    )


_KIND_PROMPT_LABEL = {
    FieldKind.BOOLEAN: "true or false",
    FieldKind.TEXT_LIST: "list of text spans copied from the response",
    FieldKind.COUNT: "integer",
    FieldKind.TEXT: "string",
}


def describe_schema(schema: ComponentSchema) -> str:
    """Render the schema's fields as prompt-ready bullet lines."""
    lines = []
    for f in schema.fields:
        label = _KIND_PROMPT_LABEL[f.kind]
        if f.derived_from is not None:
            label += f', must equal the number of entries in "{f.derived_from}"'
        desc = f": {f.description}" if f.description else ""
        lines.append(f'- "{f.name}" ({label}){desc}')
    return "\n".join(lines)


def representation_block(representation: StructuredRepresentation) -> str:
    """The scoring agent's view of Z: canonical JSON plus a note naming any
    counts that were corrected against their evidence lists."""
    block = representation.values_json(indent=2)
    if representation.inconsistency_flags:
        flagged = ", ".join(representation.inconsistency_flags)
        block += (
            "\n\nNote: the following count fields disagreed with their "
            f"evidence lists and were corrected to the list lengths: {flagged}."
        )
    return block


def _context_bindings(
    context: TaskContext, response: StudentResponse
) -> dict[str, str]:
    return {
        "question": context.question,
        "reference_material": context.reference_material or "(none)",
        "rubric_text": context.rubric_text,
        "response": response.text,
        "score_min": str(context.score_range.min),
        "score_max": str(context.score_range.max),
    }


def parse_score(raw_text: str, score_range: ScoreRange) -> Score:
    """Read the strict {"score": <integer>} contract from raw model output."""
    block = extract_json_block(raw_text)
    parsed = json.loads(block)
    if "score" not in parsed:
        raise MissingField("score")
    value = parsed["score"]
    if isinstance(value, bool) or not isinstance(value, int):
        raise NonInteger(f"score must be a JSON integer, got {value!r}")
    return validate_score(value, score_range)


def _run_with_retries(
    backend,
    template: PromptTemplate,
    bindings: dict[str, str],
    parse,
    failure_cls,
    max_retries: int,
    max_output_tokens: int,
):
    """Shared retry loop: call, parse, and on failure re-prompt with the
    error appended, up to max_retries model calls in total."""
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    system_text = render(template.system_text, bindings)
    user_text = render(template.user_text, bindings)
    messages: list[tuple[str, str]] = [("system", system_text), ("user", user_text)]

    attempts: list[Attempt] = []
    last_error: Exception | None = None
    for _ in range(max_retries):
        request = ChatRequest(
            model_name=backend.model_name,
            messages=tuple(messages),
            max_output_tokens=max_output_tokens,
            force_json=True,
        )
        response = backend.complete(request)
        attempts.append(Attempt(request.digest, response.text, response.latency_ms))
        try:
            value = parse(response.text)
        except (SchemaError, NonInteger, OutOfRange, json.JSONDecodeError) as exc:
            last_error = exc
            repair = render(
                prompts.RETRY_USER,
                {**bindings, "previous_output": response.text, "error": _describe(exc)},
            )
            messages.append(("user", repair))
            continue
        return AgentOutcome(value=value, attempts=attempts)
    raise failure_cls(last_error, attempts)


def _describe(exc: Exception) -> str:
    if isinstance(exc, OutOfRange):
        rng = exc.score_range
        return (
            f"{exc} -- the score must be an integer from {rng.min} to {rng.max}"
        )
    if isinstance(exc, json.JSONDecodeError):
        return f"output is not valid JSON ({exc})"
    return str(exc)


def run_extraction(
    backend,
    context: TaskContext,
    response: StudentResponse,
    schema: ComponentSchema,
    template: PromptTemplate = DEFAULT_EXTRACTION_TEMPLATE,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_output_tokens: int = 1024,
) -> AgentOutcome:
    """Extract the structured component representation from one response."""
    bindings = _context_bindings(context, response)
    bindings["schema_description"] = describe_schema(schema)

    def parse(raw: str) -> StructuredRepresentation:
        return validate_representation(extract_json_block(raw), schema)

    return _run_with_retries(
        backend, template, bindings, parse, ExtractionFailed,
        max_retries, max_output_tokens,
    )


def run_scoring(
    backend,
    representation: StructuredRepresentation,
    context: TaskContext,
    response: StudentResponse,
    template: PromptTemplate = DEFAULT_SCORING_TEMPLATE,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_output_tokens: int = 128,
) -> AgentOutcome:
    """Assign the final score from the representation, context and response."""
    bindings = _context_bindings(context, response)
    bindings["representation_json"] = representation_block(representation)

    def parse(raw: str) -> Score:
        return parse_score(raw, context.score_range)

    return _run_with_retries(
        backend, template, bindings, parse, ScoringFailed,
        max_retries, max_output_tokens,
    )


def run_baseline(
    backend,
    context: TaskContext,
    response: StudentResponse,
    template: PromptTemplate = DEFAULT_BASELINE_TEMPLATE,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_output_tokens: int = 128,
) -> AgentOutcome:
    """Single-agent ablation: score directly from rubric and response."""
    bindings = _context_bindings(context, response)

    def parse(raw: str) -> Score:
        return parse_score(raw, context.score_range)

    return _run_with_retries(
        backend, template, bindings, parse, ScoringFailed,
        max_retries, max_output_tokens,
    )
