import pytest

from autoscore.core import ScoreRange
from autoscore.ingest import (
    DatasetError,
    DatasetSpec,
    load_dataset,
    sample_ids,
    sample_size,
)

SAS_HEADER = "Id\tEssaySet\tScore1\tScore2\tEssayText"
AES_HEADER = (
    "essay_id\tessay_set\tessay\trater1_domain1\trater2_domain1\tdomain1_score"
)


def _sas_spec(tmp_path, rows, essay_set=1, gold_rule="first_rater",
              score_range=ScoreRange(0, 3)):
    path = tmp_path / "sas.tsv"
    path.write_text("\n".join([SAS_HEADER, *rows]) + "\n", encoding="utf-8")
    return DatasetSpec(
        family="sas",
        tsv_path=str(path),
        essay_set=essay_set,
        score_range=score_range,
        gold_rule=gold_rule,
    )


def _aes_spec(tmp_path, rows, gold_rule="first_rater"):
    path = tmp_path / "aes.tsv"
    path.write_text("\n".join([AES_HEADER, *rows]) + "\n", encoding="utf-8")
    return DatasetSpec(
        family="aes",
        tsv_path=str(path),
        essay_set=1,
        score_range=ScoreRange(1, 6),
        gold_rule=gold_rule,
    )


class TestLoadSas:
    def test_filters_to_requested_essay_set(self, tmp_path):
        spec = _sas_spec(
            tmp_path,
            ["1\t1\t2\t3\tanswer one", "2\t2\t1\t1\tother set"],
        )
        dataset = load_dataset(spec)
        assert [r.response_id for r in dataset.responses] == ["1"]
        assert dataset.responses[0].gold_score == 2
        assert dataset.responses[0].text == "answer one"

    def test_gold_is_first_rater_by_default(self, tmp_path):
        spec = _sas_spec(tmp_path, ["1\t1\t1\t3\ttext"])
        assert load_dataset(spec).responses[0].gold_score == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("Id\tEssaySet\tScore1\tEssayText\n1\t1\t2\tx\n")
        spec = DatasetSpec(
            family="sas", tsv_path=str(path), essay_set=1,
            score_range=ScoreRange(0, 3),
        )
        with pytest.raises(DatasetError, match="^required column 'Score2' not found$"):
            load_dataset(spec)

    def test_gold_outside_range_is_malformed(self, tmp_path):
        spec = _sas_spec(tmp_path, ["1\t1\t7\t3\ttext"])
        with pytest.raises(DatasetError, match="^line 2: gold score 7 outside range 0..3$"):
            load_dataset(spec)

    def test_non_integer_score_is_malformed(self, tmp_path):
        spec = _sas_spec(tmp_path, ["1\t1\ttwo\t3\ttext"])
        with pytest.raises(DatasetError, match="^line 2: Score1 is not an integer: 'two'$"):
            load_dataset(spec)

    def test_short_row_is_malformed(self, tmp_path):
        spec = _sas_spec(tmp_path, ["1\t1\t2\ttext"])
        with pytest.raises(DatasetError, match="^line 2: expected 5 fields, found 4$"):
            load_dataset(spec)

    def test_duplicate_ids_rejected(self, tmp_path):
        spec = _sas_spec(tmp_path, ["1\t1\t2\t2\ta", "1\t1\t1\t1\tb"])
        with pytest.raises(DatasetError, match="^line 3: duplicate response id '1'$"):
            load_dataset(spec)

    def test_no_rows_for_set(self, tmp_path):
        spec = _sas_spec(tmp_path, ["1\t2\t2\t2\ttext"])
        with pytest.raises(DatasetError, match="^no rows with EssaySet=1 in "):
            load_dataset(spec)

    def test_resolved_rule_unavailable_for_sas(self, tmp_path):
        with pytest.raises(ValueError, match="not one of the sas rules: first_rater"):
            _sas_spec(tmp_path, ["1\t1\t2\t2\ttext"], gold_rule="resolved_column")

    def test_text_taken_verbatim(self, tmp_path):
        spec = _sas_spec(tmp_path, ["1\t1\t2\t2\t  The TRIALS, were UNEVEN.  "])
        assert load_dataset(spec).responses[0].text == "  The TRIALS, were UNEVEN.  "

    def test_crlf_line_endings(self, tmp_path):
        path = tmp_path / "crlf.tsv"
        path.write_bytes(
            b"Id\tEssaySet\tScore1\tScore2\tEssayText\r\n"
            b"1\t1\t2\t2\tfirst answer\r\n"
            b"\r\n"  # a blank line is skipped
            b"2\t1\t1\t1\tsecond answer\r\n"
        )
        spec = DatasetSpec(
            family="sas", tsv_path=str(path), essay_set=1,
            score_range=ScoreRange(0, 3),
        )
        dataset = load_dataset(spec)
        assert [r.text for r in dataset.responses] == [
            "first answer", "second answer",
        ]

    def test_latin1_fallback_per_line(self, tmp_path):
        path = tmp_path / "mixed.tsv"
        good = f"{SAS_HEADER}\n1\t1\t2\t2\tcafé utf8\n".encode("utf-8")
        bad = "2\t1\t1\t1\tcafé latin1\n".encode("latin-1")
        path.write_bytes(good + bad)
        spec = DatasetSpec(
            family="sas", tsv_path=str(path), essay_set=1,
            score_range=ScoreRange(0, 3),
        )
        dataset = load_dataset(spec)
        assert [r.text for r in dataset.responses] == ["café utf8", "café latin1"]

    def test_loading_is_order_stable(self, tmp_path):
        rows = [f"{i}\t1\t{i % 4}\t1\tresponse {i}" for i in range(1, 30)]
        spec = _sas_spec(tmp_path, rows)
        first = load_dataset(spec)
        second = load_dataset(spec)
        assert first == second
        assert first.digest() == second.digest()


class TestLoadAes:
    def test_first_rater_gold(self, tmp_path):
        spec = _aes_spec(tmp_path, ["10\t1\tan essay\t4\t5\t8"])
        dataset = load_dataset(spec)
        assert dataset.responses[0].gold_score == 4

    def test_resolved_column_gold(self, tmp_path):
        spec = _aes_spec(
            tmp_path, ["10\t1\tan essay\t4\t5\t6"], gold_rule="resolved_column"
        )
        assert load_dataset(spec).responses[0].gold_score == 6

    def test_missing_essay_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("essay_id\tessay_set\trater1_domain1\n10\t1\t4\n")
        spec = DatasetSpec(
            family="aes", tsv_path=str(path), essay_set=1,
            score_range=ScoreRange(1, 6),
        )
        with pytest.raises(DatasetError, match="^required column 'essay' not found$"):
            load_dataset(spec)

    def test_extra_columns_tolerated(self, tmp_path):
        path = tmp_path / "wide.tsv"
        path.write_text(
            AES_HEADER + "\trater3_domain1\n10\t1\tessay text\t3\t4\t7\t\n"
        )
        spec = DatasetSpec(
            family="aes", tsv_path=str(path), essay_set=1,
            score_range=ScoreRange(1, 6),
        )
        assert load_dataset(spec).responses[0].gold_score == 3


class TestSample:
    def test_paper_sample_sizes(self):
        assert sample_size(1290, 0.2) == 258
        assert sample_size(1850, 0.2) == 370

    def test_round_half_up(self):
        assert sample_size(3, 0.5) == 2
        assert sample_size(1847, 0.2) == 369

    def test_fraction_one_is_identity(self, synth_dataset):
        ids = [r.response_id for r in synth_dataset.responses]
        assert sample_ids(ids, 1.0, seed=5) == set(ids)

    def test_same_seed_same_subset(self, synth_dataset):
        ids = [r.response_id for r in synth_dataset.responses]
        a = sample_ids(ids, 0.5, seed=11)
        b = sample_ids(ids, 0.5, seed=11)
        assert a == b
        assert len(a) == 6

    def test_different_seeds_differ(self):
        ids = [f"id{i}" for i in range(200)]
        assert sample_ids(ids, 0.2, seed=1) != sample_ids(ids, 0.2, seed=2)

    def test_selection_independent_of_list_order(self):
        ids = [f"id{i}" for i in range(50)]
        assert sample_ids(ids, 0.3, seed=9) == sample_ids(
            list(reversed(ids)), 0.3, seed=9
        )

    def test_fraction_bounds(self, synth_dataset):
        ids = [r.response_id for r in synth_dataset.responses]
        with pytest.raises(ValueError):
            sample_ids(ids, 0.0, seed=1)
        with pytest.raises(ValueError):
            sample_ids(ids, 1.5, seed=1)
