import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoscore.core import (
    OutOfRange,
    Score,
    ScoredRecord,
    ScoreRange,
    StudentResponse,
    TaskContext,
    Transcript,
    validate_score,
)
from autoscore.schema import StructuredRepresentation


def test_validate_score_in_range():
    assert validate_score(2, ScoreRange(0, 3)) == Score(2)


def test_validate_score_boundaries():
    rng = ScoreRange(0, 2)
    assert validate_score(0, rng) == Score(0)
    assert validate_score(2, rng) == Score(2)


def test_validate_score_out_of_range():
    with pytest.raises(OutOfRange):
        validate_score(4, ScoreRange(0, 3))


def test_validate_score_rejects_non_integers():
    with pytest.raises(OutOfRange):
        validate_score(True, ScoreRange(0, 3))


def test_single_point_range_is_illegal():
    with pytest.raises(ValueError):
        ScoreRange(0, 0)
    with pytest.raises(ValueError):
        ScoreRange(3, 1)
    with pytest.raises(ValueError):
        ScoreRange(-1, 2)


@pytest.mark.parametrize("lo,hi", [(0, 2), (0, 3), (1, 6), (2, 12)])
def test_validate_score_accepts_exactly_cardinality_integers(lo, hi):
    rng = ScoreRange(lo, hi)
    accepted = 0
    for value in range(lo - 3, hi + 4):
        try:
            validate_score(value, rng)
            accepted += 1
        except OutOfRange:
            pass
    assert accepted == rng.cardinality == hi - lo + 1


def test_task_context_requires_question_and_rubric():
    rng = ScoreRange(0, 3)
    with pytest.raises(ValueError):
        TaskContext("x", " ", "rubric", rng)
    with pytest.raises(ValueError):
        TaskContext("x", "question", "", rng)


def test_student_response_rejects_blank_text():
    with pytest.raises(ValueError):
        StudentResponse("r1", "   \n ")


def test_record_mode_representation_invariants():
    rep = StructuredRepresentation("x", {"a": 1})
    with pytest.raises(ValueError):
        ScoredRecord("r1", "autoscore", 1, 1, representation=None)
    with pytest.raises(ValueError):
        ScoredRecord("r1", "baseline", 1, 1, representation=rep)
    with pytest.raises(ValueError):
        ScoredRecord("r1", "verify", 1, 1, representation=None)


def _rep_strategy():
    values = st.fixed_dictionaries(
        {
            "flag": st.booleans(),
            "spans": st.lists(st.text(max_size=20), max_size=4),
            "total": st.integers(min_value=0, max_value=9),
        }
    )
    return st.builds(
        StructuredRepresentation,
        schema_id=st.just("synth"),
        values=values,
        inconsistency_flags=st.
        sampled_from([(), ("total",)]),
    )


_transcripts = st.lists(
    st.builds(
        Transcript,
        agent_name=st.sampled_from(["extraction", "scoring", "baseline"]),
        prompt_digest=st.text("0123456789abcdef", min_size=8, max_size=8),
        raw_output=st.text(max_size=60),
    ),
    max_size=4,
).map(tuple)


@st.composite
def _records(draw):
    mode = draw(st.sampled_from(["autoscore", "baseline"]))
    rep = draw(_rep_strategy()) if mode == "autoscore" else None
    return ScoredRecord(
        response_id=draw(st.text("abcdefghij0123456789", min_size=1, max_size=10)),
        mode=mode,
        gold_score=draw(st.one_of(st.none(), st.integers(0, 6))),
        predicted_score=draw(st.integers(0, 6)),
        representation=rep,
        transcripts=draw(_transcripts),
        wall_time_ms=draw(st.integers(0, 10_000)),
        retries=draw(st.integers(0, 3)),
    )


@settings(max_examples=150, deadline=None)
@given(_records())
def test_record_roundtrips_losslessly(record):
    line = record.to_jsonl_line()
    assert ScoredRecord.from_jsonl_line(line) == record
    # and the serialized form itself is stable
    assert ScoredRecord.from_jsonl_line(line).to_jsonl_line() == line


def test_record_jsonl_field_names():
    rep = StructuredRepresentation("synth", {"a": True})
    record = ScoredRecord(
        "r1", "autoscore", 2, 3, rep,
        (Transcript("extraction", "ab12", "{}"),), 17, 1,
    )
    data = json.loads(record.to_jsonl_line())
    assert list(data) == [
        "response_id", "mode", "gold_score", "predicted_score",
        "representation", "transcripts", "wall_time_ms", "retries",
    ]
    assert data["transcripts"][0] == {
        "agent_name": "extraction", "prompt_digest": "ab12", "raw_output": "{}",
    }
