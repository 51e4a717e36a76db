"""The two scoring agents and the single-agent baseline.

run_extraction turns a response into a validated structured representation;
run_scoring turns that representation (plus the original inputs) into a
score; run_baseline scores directly from rubric and response, with no
component schema anywhere in its prompts. STAGES holds what sets each one
apart; run_stage is the one retry loop they all share: on a parse or
validation failure the agent re-prompts with the error appended, up to
max_retries total model calls.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
    KINDS,
    ComponentSchema,
    SchemaError,
    StructuredRepresentation,
    extract_json_block,
    validate_representation,
)

DEFAULT_MAX_RETRIES = 3


class UnboundPlaceholder(AutoscoreError):
    pass


@dataclass
class AgentOutcome:
    """What one stage leaves behind, whether it succeeds or fails: its value
    (None when retries ran out), one Transcript per model call in order,
    and the summed latency of those calls."""

    value: "StructuredRepresentation | Score | None"
    transcripts: list[Transcript]
    wall_time_ms: int = 0

    @property
    def retries(self) -> int:
        return len(self.transcripts) - 1


class RetriesExhausted(AutoscoreError):
    """Every model call failed to parse/validate; carries the stage's
    outcome so callers can persist transcripts or impute a floor score."""

    def __init__(self, last_error: Exception, outcome: AgentOutcome):
        self.outcome = outcome
        super().__init__(
            f"gave up after {len(outcome.transcripts)} attempts: {last_error}"
        )


class ExtractionFailed(RetriesExhausted):
    pass


class ScoringFailed(RetriesExhausted):
    pass


@dataclass(frozen=True)
class PromptTemplate:
    """System/user text pair with {name} placeholders."""

    system_text: str
    user_text: str


# a placeholder is any {identifier}; every other brace is plain text, so
# the {"score": <integer>} of a reply format stays as written
_PLACEHOLDER_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def render(template_text: str, bindings: dict[str, str]) -> str:
    """Substitute {name} placeholders in a single pass; every other brace in
    the template (and anything inside bound values) is left untouched.

    Raises UnboundPlaceholder if the template uses a placeholder that is
    not bound, so a template can never silently ship with a hole in it.
    """
    def bind(match: re.Match) -> str:
        try:
            return str(bindings[match.group(1)])
        except KeyError:
            missing = sorted(set(_PLACEHOLDER_RE.findall(template_text))
                             - bindings.keys())
            raise UnboundPlaceholder(
                f"placeholders left unbound after rendering: {missing}"
            ) from None

    return _PLACEHOLDER_RE.sub(bind, template_text)


def describe_schema(schema: ComponentSchema) -> str:
    """Render the schema's fields as prompt-ready bullet lines."""
    lines = []
    for f in schema.fields:
        label = KINDS[f.kind][0]
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


# the placeholders every stage binds, from the task context and the response
CONTEXT_PLACEHOLDERS = ("question", "reference_material", "rubric_text", "response",
                        "score_min", "score_max")


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
        raise SchemaError("required field 'score' is missing")
    value = parsed["score"]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"score must be a JSON integer, got {value!r}")
    return validate_score(value, score_range)


def _parse_representation(
    raw: str, context: TaskContext, schema: ComponentSchema
) -> StructuredRepresentation:
    return validate_representation(extract_json_block(raw), schema)


def _parse_score(raw: str, context: TaskContext, _input) -> Score:
    return parse_score(raw, context.score_range)


class Stage(NamedTuple):
    """What sets one agent apart: its default prompt, the placeholders its
    input binds (each with the function that renders it from the input), how
    a reply is parsed, the failure raised when retries run out, and the
    default output budget."""

    template: PromptTemplate
    bindings: dict[str, Callable[[object], str]]
    parse: Callable[[str, TaskContext, object], object]
    failure: type[RetriesExhausted]
    max_output_tokens: int


# parse functions look parse_score & co. up at call time, so a wrapper set
# on this module's attribute sees every call
STAGES = {
    "extraction": Stage(
        PromptTemplate(prompts.EXTRACTION_SYSTEM, prompts.EXTRACTION_USER),
        {"schema_description": describe_schema},
        _parse_representation, ExtractionFailed, 1024,
    ),
    "scoring": Stage(
        PromptTemplate(prompts.SCORING_SYSTEM, prompts.SCORING_USER),
        {"representation_json": representation_block},
        _parse_score, ScoringFailed, 128,
    ),
    "baseline": Stage(
        PromptTemplate(prompts.BASELINE_SYSTEM, prompts.BASELINE_USER),
        {}, _parse_score, ScoringFailed, 128,
    ),
}


def run_stage(
    name: str,
    backend,
    context: TaskContext,
    response: StudentResponse,
    input,
    *,
    template: PromptTemplate | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_output_tokens: int | None = None,
) -> AgentOutcome:
    """Run stage `name` on one response: call, parse, and on failure
    re-prompt with the error appended, up to max_retries model calls in
    total. `input` is what the stage works from (extraction: the schema,
    scoring: the representation, baseline: nothing); a missing template or
    output budget falls back to the stage's default."""
    stage = STAGES[name]
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    template = template or stage.template
    if max_output_tokens is None:
        max_output_tokens = stage.max_output_tokens
    bindings = _context_bindings(context, response)
    bindings.update((key, bind(input)) for key, bind in stage.bindings.items())
    system_text = render(template.system_text, bindings)
    user_text = render(template.user_text, bindings)
    messages: list[tuple[str, str]] = [("system", system_text), ("user", user_text)]

    outcome = AgentOutcome(value=None, transcripts=[])
    last_error: Exception | None = None
    for _ in range(max_retries):
        request = ChatRequest(
            model_name=backend.model_name,
            messages=tuple(messages),
            max_output_tokens=max_output_tokens,
        )
        reply = backend.complete(request)
        outcome.transcripts.append(Transcript(name, request.digest, reply.text))
        outcome.wall_time_ms += reply.latency_ms
        try:
            outcome.value = stage.parse(reply.text, context, input)
        except (SchemaError, OutOfRange) as exc:
            last_error = exc
            repair = render(
                prompts.RETRY_USER,
                {**bindings, "previous_output": reply.text, "error": _describe(exc)},
            )
            messages.append(("user", repair))
            continue
        return outcome
    raise stage.failure(last_error, outcome)


def unbound_placeholders(name: str, template: PromptTemplate) -> list[str]:
    """The placeholders in the template's system and user text that stage
    `name` does not bind, so that every render of it would fail."""
    bound = {*CONTEXT_PLACEHOLDERS, *STAGES[name].bindings}
    used = {match.group(1) for text in (template.system_text, template.user_text)
            for match in _PLACEHOLDER_RE.finditer(text)}
    return sorted(used - bound)


def _describe(exc: Exception) -> str:
    if isinstance(exc, OutOfRange):
        rng = exc.score_range
        return (
            f"{exc} -- the score must be an integer from {rng.min} to {rng.max}"
        )
    return str(exc)


def run_extraction(backend, context, response, input, **options) -> AgentOutcome:
    """Extract the structured representation (input: the schema)."""
    return run_stage("extraction", backend, context, response, input, **options)


def run_scoring(backend, context, response, input, **options) -> AgentOutcome:
    """Score from the representation (input), the context and the response."""
    return run_stage("scoring", backend, context, response, input, **options)


def run_baseline(backend, context, response, input=None, **options) -> AgentOutcome:
    """Single-agent ablation: score from rubric and response; input unused."""
    return run_stage("baseline", backend, context, response, input, **options)
