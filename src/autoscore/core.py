"""Core domain types shared by every stage of the scoring pipeline.

Everything here is an immutable value object with its invariants enforced
at construction time, the file read and the JSON decoder every reader of
the package's files uses, or the one check of a count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

_RAW_DECODE = json.JSONDecoder().raw_decode


def decode_json(text: str):
    """json.loads(text): the same value, or the same error, except that JSON
    nested too deeply to parse raises ValueError, not RecursionError. Every
    JSON line the package reads, and the manifest, goes through here.

    A text that is one JSON value with nothing around it takes raw_decode,
    which skips json.loads' whitespace and BOM handling; any other text
    (whitespace, a BOM, trailing data, an error) goes to json.loads itself,
    so its values and error texts stay json.loads' own."""
    try:
        value, end = _RAW_DECODE(text)
        if end == len(text):
            return value
    except (ValueError, RecursionError):
        pass
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def integer_at_least(value, name: str, minimum: int) -> int:
    """`value` if it is an int (a bool is not one) >= minimum; else ValueError."""
    if type(value) is not int or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


class AutoscoreError(Exception):
    """Base class for every domain error raised by this package."""


def read_file(path, error: type[AutoscoreError], what: str | None = None) -> bytes:
    """The bytes of file `path`. A missing one raises `error` "<what> not
    found: <path>", or reads as b"" when no `what` is given; any other
    OSError (a directory, say) raises `error` naming the path."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        if what is None:
            return b""
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from None


@dataclass(frozen=True)
class ScoreRange:
    """Inclusive integer score scale fixed by the rubric, e.g. 0..3."""

    min: int
    max: int

    def __post_init__(self) -> None:
        if type(self.min) is not int or type(self.max) is not int:
            raise ValueError(f"score range bounds must be integers, got "
                             f"{self.min!r}..{self.max!r}")
        if self.min < 0 or self.max < 0:
            raise ValueError("score range bounds must be non-negative")
        if self.max - self.min < 1:
            raise ValueError(
                f"score range must span at least two points, got "
                f"{self.min}..{self.max}"
            )

    @property
    def cardinality(self) -> int:
        return self.max - self.min + 1

    def contains(self, value: int) -> bool:
        return self.min <= value <= self.max


@dataclass(frozen=True)
class TaskContext:
    """Everything shown to raters besides the response itself: the question,
    optional reference material, the rubric text, and the score scale."""

    item_id: str
    question: str
    rubric_text: str
    score_range: ScoreRange
    reference_material: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.question, str) or not self.question.strip():
            raise ValueError("question must be a non-empty string")
        if not isinstance(self.rubric_text, str) or not self.rubric_text.strip():
            raise ValueError("rubric_text must be a non-empty string")
        if not isinstance(self.reference_material, (str, type(None))):
            raise ValueError(f"reference_material must be a string, "
                             f"got {self.reference_material!r}")


@dataclass(frozen=True)
class StudentResponse:
    """One free-form student response, optionally with a human gold score.

    The gold score's membership in the item's range is enforced where the
    range is known (dataset loading), not here.
    """

    response_id: str
    text: str
    gold_score: int | None = None

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError(
                f"response {self.response_id!r} has empty text"
            )


@dataclass(frozen=True)
class Transcript:
    """One raw agent exchange kept for audit: which agent ran, the digest of
    the exact request it sent, and the raw text that came back."""

    agent_name: str
    prompt_digest: str
    raw_output: str

    def __post_init__(self) -> None:
        # built once per model call: plain type tests, nothing more
        if (type(self.agent_name) is not str or type(self.prompt_digest) is not str
                or type(self.raw_output) is not str):
            raise ValueError(f"a transcript's fields must be strings, got "
                             f"{self.agent_name!r}, {self.prompt_digest!r} and "
                             f"{self.raw_output!r}")


@dataclass(frozen=True)
class StructuredRepresentation:
    """A validated component representation extracted from one response.

    inconsistency_flags lists count fields whose declared value disagreed
    with the length of their source list before normalization.
    """

    schema_id: str
    values: dict
    inconsistency_flags: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if type(self.schema_id) is not str:
            raise ValueError(f"schema_id must be a string, got {self.schema_id!r}")
        if type(self.values) is not dict:
            raise ValueError(f"values must be an object, got {self.values!r}")
        if type(self.inconsistency_flags) is not tuple or not all(
                type(flag) is str for flag in self.inconsistency_flags):
            raise ValueError(f"inconsistency_flags must be strings, "
                             f"got {self.inconsistency_flags!r}")


@dataclass(frozen=True)
class ScoredRecord:
    """Result of scoring one response, persisted as one JSONL line.

    wall_time_ms covers every model call made for this response, retries
    included. gold_score is None for unlabeled responses; evaluation
    operations reject such records.
    """

    response_id: str
    mode: str  # "autoscore" | "baseline"
    gold_score: int | None
    predicted_score: int
    representation: StructuredRepresentation | None  # None for baseline
    transcripts: tuple[Transcript, ...] = field(default_factory=tuple)
    wall_time_ms: int = 0
    retries: int = 0

    def __post_init__(self) -> None:
        # a record read back from a line checks every field readers compute on
        if type(self.response_id) is not str:
            raise ValueError(f"response_id must be a string, got {self.response_id!r}")
        if type(self.predicted_score) is not int:
            raise ValueError(f"predicted_score must be an integer, "
                             f"got {self.predicted_score!r}")
        if self.gold_score is not None and type(self.gold_score) is not int:
            raise ValueError(f"gold_score must be an integer or null, "
                             f"got {self.gold_score!r}")
        if self.mode not in ("autoscore", "baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "autoscore" and self.representation is None:
            raise ValueError("autoscore records must carry a representation")
        if self.mode == "baseline" and self.representation is not None:
            raise ValueError("baseline records must not carry a representation")
        integer_at_least(self.wall_time_ms, "wall_time_ms", 0)
        integer_at_least(self.retries, "retries", 0)

    def to_jsonl_line(self) -> str:
        # the line is the fields: a frozen dataclass's instance dict holds
        # exactly its fields, in declaration order; json writes a tuple as a list
        rep = self.representation
        return json.dumps({
            **vars(self), "representation": None if rep is None else vars(rep),
            "transcripts": [vars(t) for t in self.transcripts],
        }, ensure_ascii=True)

    @classmethod
    def from_jsonl_line(cls, line: str) -> "ScoredRecord":
        # by name: an extra key is ignored, a missing one raises KeyError
        data = decode_json(line)
        rep = data.get("representation")
        if rep is not None:
            flags = rep["inconsistency_flags"]
            if type(flags) is not list:
                raise ValueError(f"inconsistency_flags must be a list, got {flags!r}")
            rep = StructuredRepresentation(rep["schema_id"], rep["values"], tuple(flags))
        return cls(
            data["response_id"], data["mode"], data["gold_score"],
            data["predicted_score"], rep,
            tuple([Transcript(t["agent_name"], t["prompt_digest"], t["raw_output"])
                   for t in data["transcripts"]]),
            data["wall_time_ms"], data["retries"],
        )
