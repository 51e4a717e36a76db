"""The exact bytes of a record line and of a schema's manifest entry, and
the condition their writers rest on: each is written from its value's
instance dict, which must hold exactly the dataclass fields, in order."""

import json
from dataclasses import fields

import pytest

from autoscore.core import ScoredRecord, StructuredRepresentation, Transcript
from autoscore.metrics import MetricsReport
from autoscore.schema import ComponentField, compile_schema

_FLAGGED = ScoredRecord(
    "r-é1", "autoscore", 2, 3,
    StructuredRepresentation(
        "science",
        {"valid_conclusion": True,
         "design_improvements": ["répéter l'essai",
                                 "weigh each wing — twice"],
         "design_count": 2},
        ("design_count",),
    ),
    (Transcript("extraction", "ab" * 32, 'Voilà: {"design_count": 1} ☃'),
     Transcript("scoring", "cd" * 32, '{"score": 3}')),
    1520, 1,
)
_BASELINE = ScoredRecord("r2", "baseline", None, 0, None,
                         (Transcript("baseline", "ef" * 32, "score: 0"),), 4, 0)
_BARE = ScoredRecord("r3", "baseline", 1, 1, None)

_LINES = [
    (_FLAGGED,
     '{"response_id": "r-\\u00e91", "mode": "autoscore", "gold_score": 2, '
     '"predicted_score": 3, "representation": {"schema_id": "science", '
     '"values": {"valid_conclusion": true, "design_improvements": '
     '["r\\u00e9p\\u00e9ter l\'essai", "weigh each wing \\u2014 twice"], '
     '"design_count": 2}, "inconsistency_flags": ["design_count"]}, '
     '"transcripts": [{"agent_name": "extraction", "prompt_digest": "'
     + "ab" * 32 + '", "raw_output": "Voil\\u00e0: {\\"design_count\\": 1} '
     '\\u2603"}, {"agent_name": "scoring", "prompt_digest": "' + "cd" * 32
     + '", "raw_output": "{\\"score\\": 3}"}], "wall_time_ms": 1520, '
     '"retries": 1}'),
    (_BASELINE,
     '{"response_id": "r2", "mode": "baseline", "gold_score": null, '
     '"predicted_score": 0, "representation": null, "transcripts": '
     '[{"agent_name": "baseline", "prompt_digest": "' + "ef" * 32
     + '", "raw_output": "score: 0"}], "wall_time_ms": 4, "retries": 0}'),
    (_BARE,
     '{"response_id": "r3", "mode": "baseline", "gold_score": 1, '
     '"predicted_score": 1, "representation": null, "transcripts": [], '
     '"wall_time_ms": 0, "retries": 0}'),
]


@pytest.mark.parametrize("record,line", _LINES, ids=["flagged", "baseline", "bare"])
def test_record_line_bytes(record, line):
    assert record.to_jsonl_line() == line
    assert ScoredRecord.from_jsonl_line(line) == record


def test_schema_manifest_entry_bytes():
    # keys given out of order, an empty description, a derived count
    schema = compile_schema("science", {"fields": [
        {"kind": "text_list", "description": "", "name": "design_improvements"},
        {"derived_from": "design_improvements", "description": "how many",
         "kind": "count", "name": "design_count"},
        {"description": "a valid conclusion", "name": "valid_conclusion",
         "kind": "boolean"},
    ]})
    assert json.dumps(schema.to_definition(), indent=2) == (
        '{\n  "fields": [\n'
        '    {\n      "name": "design_improvements",\n      "kind": "text_list"\n    },\n'
        '    {\n      "name": "design_count",\n      "kind": "count",\n'
        '      "derived_from": "design_improvements",\n'
        '      "description": "how many"\n    },\n'
        '    {\n      "name": "valid_conclusion",\n      "kind": "boolean",\n'
        '      "description": "a valid conclusion"\n    }\n'
        '  ]\n}'
    )


@pytest.mark.parametrize("value", [
    _FLAGGED, _FLAGGED.representation, _FLAGGED.transcripts[0],
    ComponentField("design_count", "count", "design_improvements", "how many"),
    MetricsReport(label="baseline", n=2, failures=1, accuracy=0.5, qwk=0.4,
                  pearson=None, spearman=None, mae=0.5, rmse=0.7071,
                  confusion=((1, 0), (1, 0))),
], ids=lambda value: type(value).__name__)
def test_instance_dict_is_the_fields_in_order(value):
    assert list(vars(value)) == [f.name for f in fields(value)]
