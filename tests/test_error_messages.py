"""The exact text of the errors a model reply, a dataset row, a schema or
a run directory's lines can raise.

A reply's error text is quoted back to the model in the repair prompt, so
it is part of the request bytes, their digests and every cache and replay
key; the other texts are what a user reads for exit 2 or 3. Each case pins
the text of one error, whatever class raises it.
"""

import json
import os
from pathlib import Path

import pytest

from autoscore import agents, pipeline
from autoscore.core import ScoredRecord, ScoreRange, StructuredRepresentation
from autoscore.ingest import DatasetError, DatasetSpec, load_dataset
from autoscore.metrics import load_gold_annotations
from autoscore.schema import SchemaError, compile_schema

SCHEMA = compile_schema("k", {"fields": [{"name": "flag", "kind": "boolean"}]})
HEADER = "Id\tEssaySet\tScore1\tScore2\tEssayText"


def _reply(text):
    return lambda tmp_path: agents.STAGES["extraction"].parse(text, None, SCHEMA)


def _score(text):
    return lambda tmp_path: agents.parse_score(text, ScoreRange(0, 3))


def _kind(entry):
    return lambda tmp_path: compile_schema("k", {"fields": [{"name": "x", **entry}]})


def _persisted(record_ids, failure_ids=()):
    records = [ScoredRecord(rid, "baseline", 1, 1, None) for rid in record_ids]
    failures = [(rid, "E: x") for rid in failure_ids]
    return lambda tmp_path: pipeline._check_order(Path("run"), records, failures)


def _modes(run_mode, *record_modes):
    """Read back, as a run of run_mode, records of record_modes."""
    def read(tmp_path):
        rep = StructuredRepresentation("k", {"flag": True})
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "records.jsonl").write_text("".join(
            ScoredRecord(f"r{n}", mode, 1, 1, rep if mode == "autoscore" else None)
            .to_jsonl_line() + "\n" for n, mode in enumerate(record_modes)))
        cwd = os.getcwd()
        os.chdir(tmp_path)  # the text names the path as given
        try:
            return pipeline._read_done(Path("run"), run_mode)
        finally:
            os.chdir(cwd)
    return read


def _rows(*lines, header=HEADER):
    def load(tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("".join(line + "\n" for line in (header, *lines)))
        return load_dataset(DatasetSpec(family="sas", tsv_path=str(path), essay_set=1,
                                        score_range=ScoreRange(0, 3)))
    return load


def _gold(*ids):
    def load(tmp_path):
        (tmp_path / "gold.jsonl").write_text("".join(
            json.dumps({"response_id": rid, "values": {}}) + "\n" for rid in ids))
        cwd = os.getcwd()
        os.chdir(tmp_path)  # the text names the path as given
        try:
            return load_gold_annotations("gold.jsonl")
        finally:
            os.chdir(cwd)
    return load


@pytest.mark.parametrize("raise_it,error,text", [
    (_reply('{"other": true}'), SchemaError, "required field 'flag' is missing"),
    (_reply("no object here"), SchemaError,
     "no balanced JSON object found in model output"),
    (_reply('{"flag": ' + "[" * 100_000 + "]" * 100_000 + "}"), SchemaError,
     "model output nests JSON too deeply to parse"),
    (_score('{"points": 2}'), SchemaError, "required field 'score' is missing"),
    (_score('{"score": 2.5}'), SchemaError, "score must be a JSON integer, got 2.5"),
    (_rows("1\t1\t2\t2\tok", header="Id\tEssaySet\tScore1\tEssayText"), DatasetError,
     "required column 'Score2' not found"),
    (_rows("1\tone\t2\t2\tok"), DatasetError,
     "line 2: EssaySet is not an integer: 'one'"),
    (_rows("1\t1\t2\tok"), DatasetError, "line 2: expected 5 fields, found 4"),
    (_rows("1\t1\t2\t2\tok", "1\t1\t2\t2\tagain"), DatasetError,
     "line 3: duplicate response id '1'"),
    (_rows("1\t1\t7\t2\tok"), DatasetError, "line 2: gold score 7 outside range 0..3"),
    (_rows("1\t1\t2\t2\t "), DatasetError, "line 2: empty response text"),
    (_kind({"kind": "tuple"}), SchemaError,
     "schema for 'k': field 'x' has unknown kind 'tuple'"),
    (_kind({}), SchemaError, "schema for 'k': field 'x' has unknown kind ''"),
    (_kind({"kind": ["text"]}), SchemaError,
     "schema for 'k': field 'x' has unknown kind ['text']"),
    (_kind({"kind": "count", "derived_form": "items"}), SchemaError,
     "schema for 'k': field 'x' has unknown key 'derived_form'"),
    (_kind({"kind": "text", "description": 5}), SchemaError,
     "schema for 'k': field 'x' has a description that is not a string: 5"),
    (_persisted(["a", "c", "b"]), DatasetError,
     "run/records.jsonl line 3: response_id 'b' does not follow 'c'"),
    (_persisted(["a"], ["b", "b"]), DatasetError,
     "run/failures.jsonl line 2: response_id 'b' does not follow 'b'"),
    (_persisted(["a", "b"], ["b"]), DatasetError,
     "run/failures.jsonl: response_id 'b' is in records.jsonl too"),
    (_gold("d01", "d02", "d01"), DatasetError,
     "gold.jsonl: response_id 'd01' is on two lines"),
    (_modes("autoscore", "baseline"), DatasetError,
     "run/records.jsonl line 1: mode 'baseline' in a run of mode 'autoscore'"),
    (_modes("baseline", "baseline", "autoscore"), DatasetError,
     "run/records.jsonl line 2: mode 'autoscore' in a run of mode 'baseline'"),
], ids=["missing-field", "no-json", "too-deep", "missing-score",
        "non-integer-score", "missing-column", "non-integer-cell", "field-count",
        "duplicate-id", "gold-out-of-range", "empty-text", "unknown-kind",
        "missing-kind", "list-kind", "unknown-field-key", "description-not-string",
        "records-out-of-order", "failures-out-of-order",
        "id-in-both-files", "gold-id-twice", "baseline-record-in-autoscore-run",
        "autoscore-record-in-baseline-run"])
def test_error_text(tmp_path, raise_it, error, text):
    with pytest.raises(error) as excinfo:
        raise_it(tmp_path)
    assert str(excinfo.value) == text
