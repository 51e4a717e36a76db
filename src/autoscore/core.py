"""Core domain types shared by every stage of the scoring pipeline.

Everything here is an immutable value object with its invariants enforced
at construction time; no I/O happens in this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


class AutoscoreError(Exception):
    """Base class for every domain error raised by this package."""


class OutOfRange(AutoscoreError):
    """An agent emitted a score point outside the rubric's score range."""

    def __init__(self, value: int, score_range: "ScoreRange"):
        self.score_range = score_range
        super().__init__(
            f"score {value} outside allowed range "
            f"{score_range.min}..{score_range.max}"
        )


@dataclass(frozen=True)
class ScoreRange:
    """Inclusive integer score scale fixed by the rubric, e.g. 0..3."""

    min: int
    max: int

    def __post_init__(self) -> None:
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
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if not self.rubric_text.strip():
            raise ValueError("rubric_text must be non-empty")


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
class Score:
    """An assigned integer score point; construct via validate_score."""

    value: int


def validate_score(value: int, score_range: ScoreRange) -> Score:
    """Admit value as a Score iff it lies inside score_range."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise OutOfRange(value, score_range)
    if not score_range.contains(value):
        raise OutOfRange(value, score_range)
    return Score(value)


@dataclass(frozen=True)
class Transcript:
    """One raw agent exchange kept for audit: which agent ran, the digest of
    the exact request it sent, and the raw text that came back."""

    agent_name: str
    prompt_digest: str
    raw_output: str

    def to_dict(self) -> dict:
        return {
            "agent_name": self.agent_name,
            "prompt_digest": self.prompt_digest,
            "raw_output": self.raw_output,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Transcript":
        return cls(data["agent_name"], data["prompt_digest"], data["raw_output"])


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
    representation: "object | None"  # StructuredRepresentation for autoscore
    transcripts: tuple[Transcript, ...] = field(default_factory=tuple)
    wall_time_ms: int = 0
    retries: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("autoscore", "baseline"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "autoscore" and self.representation is None:
            raise ValueError("autoscore records must carry a representation")
        if self.mode == "baseline" and self.representation is not None:
            raise ValueError("baseline records must not carry a representation")
        if self.wall_time_ms < 0:
            raise ValueError("wall_time_ms must be non-negative")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    def to_dict(self) -> dict:
        rep = self.representation
        return {
            "response_id": self.response_id,
            "mode": self.mode,
            "gold_score": self.gold_score,
            "predicted_score": self.predicted_score,
            "representation": rep.to_dict() if rep is not None else None,
            "transcripts": [t.to_dict() for t in self.transcripts],
            "wall_time_ms": self.wall_time_ms,
            "retries": self.retries,
        }

    def to_jsonl_line(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ScoredRecord":
        # local import: schema depends on core, not the other way around
        from .schema import StructuredRepresentation

        rep_data = data.get("representation")
        rep = (
            StructuredRepresentation.from_dict(rep_data)
            if rep_data is not None
            else None
        )
        return cls(
            response_id=data["response_id"],
            mode=data["mode"],
            gold_score=data["gold_score"],
            predicted_score=data["predicted_score"],
            representation=rep,
            transcripts=tuple(Transcript.from_dict(t) for t in data["transcripts"]),
            wall_time_ms=data["wall_time_ms"],
            retries=data["retries"],
        )

    @classmethod
    def from_jsonl_line(cls, line: str) -> "ScoredRecord":
        return cls.from_dict(json.loads(line))
