import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autoscore.agents import parse_score
from autoscore.core import (
    ScoredRecord,
    ScoreRange,
    StructuredRepresentation,
    StudentResponse,
    TaskContext,
    Transcript,
    decode_json,
    integer_at_least,
)
from autoscore.schema import SchemaError


# A score's range is checked where a reply is parsed: parse_score.
def validate_score(value, rng):
    return parse_score(json.dumps({"score": value}), rng)


def test_validate_score_in_range():
    assert validate_score(2, ScoreRange(0, 3)) == 2


def test_validate_score_boundaries():
    rng = ScoreRange(0, 2)
    assert validate_score(0, rng) == 0
    assert validate_score(2, rng) == 2


def test_validate_score_out_of_range():
    with pytest.raises(SchemaError, match="^score 4 outside allowed range 0..3$"):
        validate_score(4, ScoreRange(0, 3))


def test_validate_score_rejects_non_integers():
    with pytest.raises(SchemaError, match="^score must be a JSON integer, got True$"):
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
    accepted = []
    for value in range(lo - 3, hi + 4):
        try:
            accepted.append(validate_score(value, rng))
        except SchemaError:
            pass
    assert accepted == list(range(lo, hi + 1))
    assert len(accepted) == rng.cardinality == hi - lo + 1


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


@pytest.mark.parametrize("value", [0, -1, True, 1.0, "1", None])
def test_integer_at_least_names_the_setting_and_the_value(value):
    with pytest.raises(ValueError) as got:
        integer_at_least(value, "parallelism", 1)
    assert str(got.value) == f"parallelism must be an integer >= 1, got {value!r}"


def test_integer_at_least_returns_the_value():
    assert integer_at_least(0, "retries", 0) == 0
    assert integer_at_least(7, "latency_ms", 1) == 7


@pytest.mark.parametrize("build", [
    lambda: Transcript(5, "ab12", "{}"),
    lambda: Transcript("extraction", None, "{}"),
    lambda: StructuredRepresentation("x", {}, ["design_count"]),
], ids=["agent_name_int", "digest_null", "flags_list"])
def test_record_part_of_the_wrong_type_is_refused(build):
    # read back from a record line, such a part fails the line: see
    # test_cli.py::test_line_with_a_field_of_the_wrong_type_exits_3
    with pytest.raises(ValueError, match="must be strings"):
        build()


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


def test_record_line_without_a_representation_key_reads_as_none():
    record = ScoredRecord("r1", "baseline", None, 2, None)
    data = json.loads(record.to_jsonl_line())
    del data["representation"]
    assert ScoredRecord.from_jsonl_line(json.dumps(data)) == record


# any text, lone surrogates included
_ANY_TEXT = st.text(st.characters(exclude_categories=()))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_ANY_TEXT, inner, max_size=4),
    max_leaves=12,
)
# what may stand around a JSON text: JSON whitespace, a BOM, trailing data
_AROUND = st.sampled_from(["", " ", "\t", "\n", "\r", "\r\n", " \r\n\t", "\ufeff",
                           " {}", "{}", "x"])


@st.composite
def _json_texts(draw):
    text = json.dumps(draw(_JSON_VALUES), ensure_ascii=draw(st.booleans()))
    return draw(_AROUND) + text + draw(_AROUND)


def _same(a, b) -> bool:
    """Equal and of the same types throughout, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return a == b or (a != a and b != b)
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(_json_texts(), _ANY_TEXT, _ANY_TEXT.map(lambda text: f'"{text}"')))
@example("\ufeff{}")
@example("{} {}")
@example("NaN")
@example("[Infinity, -Infinity, NaN]")
@example("1" * 4301)  # past int_max_str_digits
@example('"\\ud800"')
@example('"tab\tin a string"')
@example('"\ud800"')
@example("")
def test_decode_json_is_json_loads(text):
    try:
        want = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
        with pytest.raises(ValueError) as got:
            decode_json(text)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
    else:
        assert _same(decode_json(text), want)


@pytest.mark.parametrize("text", ["[" * 100_000, " " + "[" * 100_000,
                                  '{"a": ' * 100_000])
def test_decode_json_refuses_nesting_too_deep_with_a_value_error(text):
    with pytest.raises(RecursionError):
        json.loads(text)
    with pytest.raises(ValueError, match="^JSON nested too deeply to parse$"):
        decode_json(text)
