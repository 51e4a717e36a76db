"""The exact text of the errors a model reply or a dataset row can raise.

A reply's error text is quoted back to the model in the repair prompt, so
it is part of the request bytes, their digests and every cache and replay
key; the dataset texts are what a user reads for exit 3. Each case pins
the text of one error, whatever class raises it.
"""

import pytest

from autoscore import agents
from autoscore.core import ScoreRange
from autoscore.ingest import DatasetError, DatasetSpec, load_dataset
from autoscore.schema import SchemaError, compile_schema

SCHEMA = compile_schema("k", {"fields": [{"name": "flag", "kind": "boolean"}]})
HEADER = "Id\tEssaySet\tScore1\tScore2\tEssayText"


def _reply(text):
    return lambda tmp_path: agents.STAGES["extraction"].parse(text, None, SCHEMA)


def _score(text):
    return lambda tmp_path: agents.parse_score(text, ScoreRange(0, 3))


def _rows(*lines, header=HEADER):
    def load(tmp_path):
        path = tmp_path / "data.tsv"
        path.write_text("".join(line + "\n" for line in (header, *lines)))
        return load_dataset(DatasetSpec(family="sas", tsv_path=str(path), essay_set=1,
                                        score_range=ScoreRange(0, 3)))
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
], ids=["missing-field", "no-json", "too-deep", "missing-score",
        "non-integer-score", "missing-column", "non-integer-cell", "field-count",
        "duplicate-id", "gold-out-of-range", "empty-text"])
def test_error_text(tmp_path, raise_it, error, text):
    with pytest.raises(error) as excinfo:
        raise_it(tmp_path)
    assert str(excinfo.value) == text
