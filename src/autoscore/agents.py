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
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from . import prompts
# request_digest stays importable here: bench/spans.py traces it per module
from .backend import ChatRequest, EscapedText, escape, request_digest  # noqa: F401
from .core import (
    AutoscoreError,
    ScoreRange,
    StructuredRepresentation,
    StudentResponse,
    TaskContext,
    Transcript,
)
from .schema import (
    KINDS,
    ComponentSchema,
    SchemaError,
    extract_json_block,
    validate_representation,
)

DEFAULT_MAX_RETRIES = 3


@dataclass
class AgentOutcome:
    """What one stage leaves behind, whether it succeeds or fails: its value
    (None when retries ran out), one Transcript per model call in order,
    and the summed latency of those calls."""

    value: StructuredRepresentation | int | None
    transcripts: list[Transcript]
    wall_time_ms: int = 0

    @property
    def retries(self) -> int:
        return len(self.transcripts) - 1


class RetriesExhausted(AutoscoreError):
    """Every model call failed to parse/validate; carries the stage's
    outcome so callers can persist transcripts or impute a floor score."""

    def __init__(self, last_error: str, outcome: AgentOutcome):
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


class Prompt(NamedTuple):
    """A template text with its bound placeholders substituted: the text up
    to the first hole a call fills, then each hole with the text after it,
    every constant piece kept with its JSON-escaped form."""

    text: str
    escaped: str
    rest: tuple[tuple[str, str, str], ...]  # (hole, text, escaped text)

    def fill(self, values: dict[str, str]) -> EscapedText:
        """The text with each hole replaced by its value, carrying its
        escaped form; a value is inserted as it is, never scanned."""
        texts, escaped = [self.text], [self.escaped]
        for hole, text, escaped_text in self.rest:
            value = values[hole]
            texts += (value, text)
            escaped += (escape(value), escaped_text)
        return EscapedText("".join(texts), "".join(escaped))


def compile_text(
    template_text: str, bindings: dict[str, str], holes: tuple[str, ...] = ()
) -> Prompt:
    """Substitute the bound {name} placeholders in a single pass and leave
    those in `holes` for Prompt.fill; every other brace in the template (and
    anything inside bound values) is left untouched. Every placeholder must
    be bound or a hole: compile_prompt checks a stage's template first."""
    parts = _PLACEHOLDER_RE.split(template_text)  # text, name, text, ..., text
    pieces, names = [[parts[0]]], []
    for name, text in zip(parts[1::2], parts[2::2]):
        if name in holes:
            names.append(name)
            pieces.append([text])
        else:
            pieces[-1] += (str(bindings[name]), text)
    texts = ["".join(piece) for piece in pieces]
    escaped = [escape(text) for text in texts]
    return Prompt(texts[0], escaped[0], tuple(zip(names, texts[1:], escaped[1:])))


def render(template_text: str, bindings: dict[str, str]) -> str:
    """compile_text with every placeholder bound: the finished text."""
    return compile_text(template_text, bindings).fill({})


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


# numbers, booleans and null, through the C encoder (json.dumps with an
# indent takes the pure-Python one, whose closures form reference cycles)
_encode_scalar = json.JSONEncoder().encode


def _indented_json(value, indent: str = "") -> str:
    """json.dumps(value, ensure_ascii=True, indent=2), byte for byte, for a
    value a JSON text decodes to (objects with string keys), joined from
    C-encoded pieces. A plain function and plain loops, so a call makes no
    closure and leaves no garbage for the cycle collector."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = []
        for key, item in value.items():
            items.append(encode_basestring_ascii(key) + ": "
                         + _indented_json(item, inner))
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = []
        for item in value:
            items.append(_indented_json(item, inner))
        brackets = "[]"
    else:
        return _encode_scalar(value)
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items)
            + "\n" + indent + brackets[1])


def representation_block(representation: StructuredRepresentation) -> str:
    """The scoring agent's view of Z: canonical JSON plus a note naming any
    counts that were corrected against their evidence lists."""
    block = _indented_json(representation.values)
    if representation.inconsistency_flags:
        flagged = ", ".join(representation.inconsistency_flags)
        block += (
            "\n\nNote: the following count fields disagreed with their "
            f"evidence lists and were corrected to the list lengths: {flagged}."
        )
    return block


def parse_score(raw_text: str, score_range: ScoreRange) -> int:
    """Read the strict {"score": <integer>} contract from raw model output."""
    parsed = extract_json_block(raw_text)
    if "score" not in parsed:
        raise SchemaError("required field 'score' is missing")
    value = parsed["score"]
    if type(value) is not int:
        raise SchemaError(f"score must be a JSON integer, got {value!r}")
    if not score_range.contains(value):
        lo, hi = score_range.min, score_range.max
        raise SchemaError(f"score {value} outside allowed range {lo}..{hi}",
                          f" -- the score must be an integer from {lo} to {hi}")
    return value


def _parse_representation(
    raw: str, context: TaskContext, schema: ComponentSchema
) -> StructuredRepresentation:
    return validate_representation(extract_json_block(raw), schema)


def _parse_score(raw: str, context: TaskContext, _input) -> int:
    return parse_score(raw, context.score_range)


class Stage(NamedTuple):
    """What sets one agent apart: its default prompt, the placeholders it
    binds once per run from the run's schema and those it binds per call
    from its input (each with the function that renders it), how a reply
    is parsed, the failure raised when retries run out, and the default
    output budget."""

    template: PromptTemplate
    constants: dict[str, Callable[[ComponentSchema], str]]
    holes: dict[str, Callable[[object], str]]
    parse: Callable[[str, TaskContext, object], object]
    failure: type[RetriesExhausted]
    max_output_tokens: int


# parse functions look parse_score & co. up at call time, so a wrapper set
# on this module's attribute sees every call
STAGES = {
    "extraction": Stage(
        PromptTemplate(prompts.EXTRACTION_SYSTEM, prompts.EXTRACTION_USER),
        {"schema_description": describe_schema}, {},
        _parse_representation, ExtractionFailed, 1024,
    ),
    "scoring": Stage(
        PromptTemplate(prompts.SCORING_SYSTEM, prompts.SCORING_USER),
        {}, {"representation_json": representation_block},
        _parse_score, ScoringFailed, 128,
    ),
    "baseline": Stage(
        PromptTemplate(prompts.BASELINE_SYSTEM, prompts.BASELINE_USER),
        {}, {}, _parse_score, ScoringFailed, 128,
    ),
}


class StagePrompt(NamedTuple):
    """A stage's system and user text compiled for one run."""

    system: Prompt
    user: Prompt


def compile_prompt(
    name: str, template: PromptTemplate, context: TaskContext,
    schema: ComponentSchema | None,
) -> StagePrompt:
    """Compile stage `name`'s template for a run: bind the task context and
    the placeholders the stage binds from the run's schema, and leave
    {response} and those bound from each call's input as holes. A template
    with a placeholder the stage does not bind, or whose user text never
    shows the response, raises ValueError."""
    stage = STAGES[name]
    bindings = {
        "question": context.question,
        "reference_material": context.reference_material or "(none)",
        "rubric_text": context.rubric_text,
        "score_min": str(context.score_range.min),
        "score_max": str(context.score_range.max),
    }
    bindings.update((key, bind(schema)) for key, bind in stage.constants.items())
    holes = ("response", *stage.holes)
    texts = (template.system_text, template.user_text)
    used = {found for text in texts for found in _PLACEHOLDER_RE.findall(text)}
    unbound = sorted(used - bindings.keys() - set(holes))
    if unbound:
        raise ValueError(f"the {name} template uses placeholders its stage "
                         f"does not bind: {unbound}")
    if "{response}" not in template.user_text:
        raise ValueError(f"the {name} user prompt has no {{response}}, so the "
                         f"model would never see the response")
    return StagePrompt(*(compile_text(text, bindings, holes) for text in texts))


def run_stage(
    name: str,
    backend,
    context: TaskContext,
    response: StudentResponse,
    input,
    *,
    template: PromptTemplate | StagePrompt | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    max_output_tokens: int | None = None,
) -> AgentOutcome:
    """Run stage `name` on one response: call, parse, and on failure
    re-prompt with the error appended, up to max_retries model calls in
    total. `input` is what the stage works from (extraction: the schema,
    scoring: the representation, baseline: nothing); a template not yet
    compiled by compile_prompt is compiled here, so it is refused before any
    model call as a run would refuse it, and a missing template or output
    budget falls back to the stage's default."""
    stage = STAGES[name]
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    if not isinstance(template, StagePrompt):
        template = compile_prompt(name, template or stage.template, context, input)
    if max_output_tokens is None:
        max_output_tokens = stage.max_output_tokens
    values = {"response": response.text}
    values.update((key, bind(input)) for key, bind in stage.holes.items())
    messages: list[tuple[str, str]] = [("system", template.system.fill(values)),
                                       ("user", template.user.fill(values))]

    outcome = AgentOutcome(value=None, transcripts=[])
    # the error's text, not the error: its traceback holds this frame, which
    # would hold it back, a cycle only the collector frees
    last_error = ""
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
        except SchemaError as exc:
            last_error = str(exc)
            repair = render(
                prompts.RETRY_USER,
                {"previous_output": reply.text, "error": last_error + exc.advice},
            )
            messages.append(("user", repair))
            continue
        return outcome
    raise stage.failure(last_error, outcome)


def run_extraction(backend, context, response, input, **options) -> AgentOutcome:
    """Extract the structured representation (input: the schema)."""
    return run_stage("extraction", backend, context, response, input, **options)


def run_scoring(backend, context, response, input, **options) -> AgentOutcome:
    """Score from the representation (input), the context and the response."""
    return run_stage("scoring", backend, context, response, input, **options)


def run_baseline(backend, context, response, input=None, **options) -> AgentOutcome:
    """Single-agent ablation: score from rubric and response; input unused."""
    return run_stage("baseline", backend, context, response, input, **options)
