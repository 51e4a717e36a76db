import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoscore.schema import (
    FieldKind,
    SchemaError,
    compile_schema,
    extract_json_block,
    validate_representation,
)

from conftest import SCIENCE_SCHEMA_DEF


def test_science_schema_compiles(science_schema):
    assert science_schema.item_id == "synth"
    assert science_schema.field_names() == [
        "valid_conclusion",
        "conclusions",
        "design_improvements",
        "validity_improvements",
        "design_count",
        "validity_count",
    ]
    by_name = {f.name: f for f in science_schema.fields}
    assert by_name["design_count"].derived_from == "design_improvements"
    assert by_name["valid_conclusion"].kind is FieldKind.BOOLEAN


def test_minimal_single_field_schema():
    schema = compile_schema(
        "mini", {"fields": [{"name": "key_elements", "kind": "text_list"}]}
    )
    assert len(schema.fields) == 1


def test_empty_schema_rejected():
    with pytest.raises(SchemaError, match="declares no fields"):
        compile_schema("bad", {"fields": []})


def test_duplicate_field_rejected():
    with pytest.raises(SchemaError, match="duplicate field 'a'"):
        compile_schema(
            "bad",
            {"fields": [
                {"name": "a", "kind": "text"},
                {"name": "a", "kind": "boolean"},
            ]},
        )


def test_bad_field_name_rejected():
    for name in ["", "1count", "has space", "dash-ed"]:
        with pytest.raises(SchemaError, match="bad field name"):
            compile_schema("bad", {"fields": [{"name": name, "kind": "text"}]})


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        compile_schema("bad", {"fields": [{"name": "x", "kind": "tuple"}]})


def test_dangling_derivation_rejected():
    with pytest.raises(SchemaError, match="not a declared text_list field"):
        compile_schema(
            "bad",
            {"fields": [
                {"name": "c", "kind": "count", "derived_from": "missing"},
            ]},
        )
    # deriving from a non-list field is just as dangling
    with pytest.raises(SchemaError, match="not a declared text_list field"):
        compile_schema(
            "bad",
            {"fields": [
                {"name": "t", "kind": "text"},
                {"name": "c", "kind": "count", "derived_from": "t"},
            ]},
        )


def test_schema_definition_roundtrip(science_schema):
    again = compile_schema("synth", science_schema.to_definition())
    assert again == science_schema


def test_extract_json_from_fenced_block():
    assert extract_json_block('```json\n{"a":1}\n```') == '{"a":1}'


def test_extract_json_from_prose():
    raw = 'Here is the result: {"a":[1,2]} hope this helps'
    assert extract_json_block(raw) == '{"a":[1,2]}'


def test_extract_json_skips_unbalanced_braces():
    raw = 'weights {w: not json} but later {"ok": true} trailing'
    assert json.loads(extract_json_block(raw)) == {"ok": True}


def test_extract_json_refuses_prose():
    with pytest.raises(SchemaError, match="^no balanced JSON object found in model output$"):
        extract_json_block("I cannot produce JSON.")


def test_extract_json_refuses_truncated_object():
    with pytest.raises(SchemaError, match="^no balanced JSON object found in model output$"):
        extract_json_block('{"score": ')


def test_extract_json_skips_object_with_over_long_integer():
    # json raises a plain ValueError past the interpreter's int_max_str_digits
    huge = '{"score": ' + "9" * 5000 + "}"
    with pytest.raises(SchemaError, match="^no balanced JSON object found in model output$"):
        extract_json_block(huge)
    assert extract_json_block(huge + ' {"score": 2}') == '{"score": 2}'


_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-1000, 1000),
        st.text(max_size=12),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=8,
)


@settings(max_examples=120, deadline=None)
@given(
    obj=st.dictionaries(st.text(max_size=8), _json_values, max_size=4),
    prefix=st.text(max_size=30),
    suffix=st.text(max_size=30),
    fenced=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_extract_json_finds_any_embedded_object(obj, prefix, suffix, fenced, newline):
    body = json.dumps(obj)
    if fenced:
        body = f"```json{newline}{body}{newline}```"
    raw = prefix + newline + body + newline + suffix
    extracted = extract_json_block(raw)
    assert isinstance(json.loads(extracted), dict)


def _z(**overrides):
    base = {
        "valid_conclusion": True,
        "conclusions": ["the heavier wing flew farther"],
        "design_improvements": ["longer trials", "more samples"],
        "validity_improvements": [],
        "design_count": 2,
        "validity_count": 0,
    }
    base.update(overrides)
    return json.dumps(base)


def test_validate_consistent_representation(science_schema):
    rep = validate_representation(_z(), science_schema)
    assert rep.inconsistency_flags == ()
    assert rep.values["design_count"] == 2


def test_declared_count_loses_to_list_length(science_schema):
    rep = validate_representation(_z(design_count=3), science_schema)
    assert rep.values["design_count"] == 2
    assert rep.inconsistency_flags == ("design_count",)


def test_missing_field(science_schema):
    payload = json.loads(_z())
    del payload["valid_conclusion"]
    with pytest.raises(SchemaError, match="^required field 'valid_conclusion' is missing$"):
        validate_representation(json.dumps(payload), science_schema)


def test_string_boolean_is_a_type_mismatch(science_schema):
    with pytest.raises(SchemaError, match="^field 'valid_conclusion' expected boolean, found string$"):
        validate_representation(_z(valid_conclusion="yes"), science_schema)


def test_float_count_is_a_type_mismatch(science_schema):
    with pytest.raises(SchemaError,
                       match="^field 'design_count' expected non-negative integer, found number$"):
        validate_representation(_z(design_count=2.0), science_schema)


def test_negative_count_is_a_type_mismatch(science_schema):
    with pytest.raises(SchemaError,
                       match="^field 'validity_count' expected non-negative integer, found integer$"):
        validate_representation(_z(validity_count=-1), science_schema)


# one wrong value of each JSON type; a boolean has no wrong boolean and a
# string field no wrong string
_WRONG_JSON = {
    "boolean": "true", "integer": "-1", "number": "1.5", "string": '"s"',
    "array": "[1]", "object": "{}", "null": "null",
}
_EXPECTED = {
    "boolean": "boolean", "text_list": "list of strings",
    "count": "non-negative integer", "text": "string",
}


@pytest.mark.parametrize("kind,json_type", [
    (kind, json_type) for kind in _EXPECTED for json_type in _WRONG_JSON
    if (kind, json_type) not in {("boolean", "boolean"), ("text", "string")}
])
def test_type_mismatch_text(kind, json_type):
    # the message is the error the repair prompt quotes back to the model
    schema = compile_schema("k", {"fields": [{"name": "f", "kind": kind}]})
    with pytest.raises(SchemaError) as excinfo:
        validate_representation(f'{{"f": {_WRONG_JSON[json_type]}}}', schema)
    assert str(excinfo.value) == (
        f"field 'f' expected {_EXPECTED[kind]}, found {json_type}"
    )


def test_unknown_keys_dropped_with_warning(science_schema, caplog):
    payload = json.loads(_z())
    payload["commentary"] = "great essay!"
    with caplog.at_level("WARNING"):
        rep = validate_representation(json.dumps(payload), science_schema)
    assert "commentary" not in rep.values
    assert any("unknown keys" in message for message in caplog.messages)


def test_validation_is_idempotent(science_schema):
    first = validate_representation(_z(design_count=5), science_schema)
    second = validate_representation(first.values_json(), science_schema)
    assert second.values == first.values
    assert second.inconsistency_flags == ()


_list_strategy = st.lists(st.text(max_size=10), max_size=5)
_SCIENCE = compile_schema("synth", SCIENCE_SCHEMA_DEF)


@settings(max_examples=120, deadline=None)
@given(
    design=_list_strategy,
    validity=_list_strategy,
    declared_design=st.integers(0, 9),
    declared_validity=st.integers(0, 9),
    flag=st.booleans(),
)
def test_derived_counts_always_equal_list_lengths(
    design, validity, declared_design, declared_validity, flag
):
    raw = json.dumps(
        {
            "valid_conclusion": flag,
            "conclusions": [],
            "design_improvements": design,
            "validity_improvements": validity,
            "design_count": declared_design,
            "validity_count": declared_validity,
        }
    )
    rep = validate_representation(raw, _SCIENCE)
    assert rep.values["design_count"] == len(design)
    assert rep.values["validity_count"] == len(validity)
    expected_flags = tuple(
        name
        for name, declared, actual in [
            ("design_count", declared_design, len(design)),
            ("validity_count", declared_validity, len(validity)),
        ]
        if declared != actual
    )
    assert rep.inconsistency_flags == expected_flags
