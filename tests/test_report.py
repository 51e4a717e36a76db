import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autoscore.core import ScoreRange
from autoscore.ingest import DatasetError
from autoscore.metrics import PairedScores, compute_report
from autoscore.pipeline import RunConfig, RunResult, load_run, score_dataset
from autoscore.report import (
    case_record,
    comparison_table,
    delta_percent,
    round2,
    tradeoff_csv,
)

from conftest import synth_response_text


class TestDeltaPercent:
    def test_paper_science_qwk(self):
        assert round2(delta_percent(0.701, 0.717)) == 2.28

    def test_paper_llama_qwk(self):
        assert round2(delta_percent(0.150, 0.261)) == 74.00

    def test_paper_science_mae_keeps_raw_sign(self):
        assert round2(delta_percent(0.451, 0.418)) == -7.32
        # printed table shows -7.31: the same value before display rounding
        assert delta_percent(0.451, 0.418) == pytest.approx(-7.3170, abs=5e-4)

    def test_no_change_is_zero(self):
        assert delta_percent(0.5, 0.5) == 0.0

    def test_negative_base_keeps_direction_of_change(self):
        # a correlation that worsens from -0.230 to -0.255 is a negative delta
        assert round2(delta_percent(-0.230, -0.255)) == -10.87

    def test_zero_base(self):
        with pytest.raises(ZeroDivisionError):
            delta_percent(0.0, 0.3)

    def test_round2_ties_away_from_zero(self):
        assert round2(0.125) == 0.13
        assert round2(-0.125) == -0.13
        assert round2(2.28499) == 2.28


@settings(max_examples=100, deadline=None)
@given(
    base=st.floats(0.01, 2.0),
    n1=st.floats(-2.0, 2.0),
    n2=st.floats(-2.0, 2.0),
)
def test_delta_percent_monotone_in_new_value(base, n1, n2):
    lo, hi = sorted((n1, n2))
    if hi - lo < 1e-9:
        return
    assert delta_percent(base, hi) > delta_percent(base, lo)


def _report(gold, pred, lo=0, hi=3, **kwargs):
    return compute_report(
        PairedScores(tuple(gold), tuple(pred), ScoreRange(lo, hi)), **kwargs
    )


def _run(mode, digest="d" * 64, identity="scripted:m"):
    manifest = {"mode": mode, "dataset_digest": digest, "backend_identity": identity,
                "dataset_ref": "synth", "model_name": "m"}
    return RunResult(records=[], failures=[], manifest=manifest)


def _pair(base, auto):
    """A baseline and an autoscore run of one dataset and backend, with
    their reports, as comparison_table takes them."""
    return [(_run("baseline"), base), (_run("autoscore"), auto)]


class TestComparisonTable:
    def test_equal_reports_tie_everywhere(self):
        rep = _report([0, 1, 2, 3], [0, 1, 1, 3])
        text, payload = comparison_table(_pair(rep, rep))
        metrics = payload["rows"][0]["metrics"]
        assert all(m["delta_pct"] == 0.0 for m in metrics.values())
        assert all(m["better"] == "tie" for m in metrics.values())
        # ties are bolded on both sides
        assert text.count("**") > 0

    def test_better_cell_marking_directions(self):
        base = _report([0, 1, 2, 3], [3, 2, 1, 0])   # bad predictions
        auto = _report([0, 1, 2, 3], [0, 1, 2, 3])   # perfect
        _, payload = comparison_table(_pair(base, auto))
        metrics = payload["rows"][0]["metrics"]
        for name in ("qwk", "accuracy", "pearson", "spearman", "mae", "rmse"):
            assert metrics[name]["better"] == "autoscore"

    def test_null_metric_renders_dash(self):
        base = _report([1, 1, 1], [0, 1, 2])  # zero gold variance
        auto = _report([1, 1, 1], [1, 1, 1])
        text, payload = comparison_table(_pair(base, auto))
        assert payload["rows"][0]["metrics"]["pearson"]["delta_pct"] is None
        assert "| —" in text

    def test_mismatched_n_warns(self, caplog):
        base = _report([0, 1, 2, 3], [0, 1, 2, 3])
        auto = _report([0, 1, 2], [0, 1, 2])
        with caplog.at_level("WARNING"):
            comparison_table(_pair(base, auto))
        assert any("n=" in m for m in caplog.messages)

    def test_rendering_is_deterministic(self):
        base = _report([0, 0, 1, 2], [0, 1, 1, 3])
        auto = _report([0, 0, 1, 2], [0, 0, 1, 2])
        assert comparison_table(_pair(base, auto)) == comparison_table(_pair(base, auto))

    @pytest.mark.parametrize("other", [
        {"mode": "autoscore", "identity": "scripted:other-model"},
        {"mode": "autoscore", "digest": "e" * 64},
        {"mode": "baseline"},
    ], ids=["other-backend", "other-dataset", "two-baselines"])
    def test_pairs_only_the_two_modes_of_one_dataset_and_backend(self, other):
        rep = _report([0, 1, 2, 3], [0, 1, 1, 3])
        text, payload = comparison_table([(_run("baseline"), rep), (_run(**other), rep)])
        assert (text, payload) == ("", {"rows": []})

    def test_one_row_per_pair_in_first_seen_order(self):
        base = _report([0, 1, 2, 3], [0, 1, 1, 3])
        auto = _report([0, 1, 2, 3], [0, 1, 2, 3])
        other = {"identity": "scripted:other-model"}
        _, payload = comparison_table([
            (_run("autoscore", **other), base), (_run("baseline"), base),
            (_run("autoscore"), auto), (_run("baseline", **other), auto),
        ])
        # deltas run from baseline to autoscore, whichever run came first
        assert [row["metrics"]["qwk"]["delta_pct"] for row in payload["rows"]] == [
            round2(delta_percent(auto.qwk, base.qwk)),
            round2(delta_percent(base.qwk, auto.qwk)),
        ]

    def test_reference_fixture_deltas(self):
        # every printed delta entry except the one known rounding artifact
        # (Biology/70B spearman) reproduces within ±0.02 points
        fixture = json.loads(
            (Path(__file__).parent / "data" / "comparison_reference.json").read_text()
        )
        mismatches = []
        for row in fixture["rows"]:
            for metric, cells in row["metrics"].items():
                computed = round2(
                    delta_percent(cells["baseline"], cells["autoscore"])
                )
                if abs(computed - cells["printed_delta"]) > 0.02:
                    mismatches.append((row["dataset"], row["model"], metric))
        assert mismatches == [
            ("Biology subset", "LLaMA-3.1-70B-Instruct", "spearman")
        ]


class TestTradeoff:
    def test_rows_carry_mean_time_and_qwk(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        from autoscore.metrics import evaluate_run

        results = []
        for mode in ("baseline", "autoscore"):
            config = RunConfig(
                mode=mode,
                run_dir=tmp_path / mode,
                backend=scripted_backend_factory(),
                context=synth_context,
                schema=science_schema if mode == "autoscore" else None,
                dataset_ref="synth",
            )
            result = score_dataset(config, synth_dataset)
            results.append((result, evaluate_run(result)))

        lines = tradeoff_csv(results).splitlines()
        assert lines[0] == "model,variant,mean_ms,qwk"
        assert len(lines) == 3
        base_row, auto_row = (line.split(",") for line in lines[1:])
        # scripted latency is 1 ms per call: one call vs two calls
        assert base_row[:3] == ["synth-model", "baseline", "1.0"]
        assert auto_row[:3] == ["synth-model", "autoscore", "2.0"]
        assert base_row[3] == auto_row[3]  # same scripted predictions

    def test_empty_inputs_give_header_only(self):
        assert tradeoff_csv([]) == "model,variant,mean_ms,qwk\n"

    def test_synthetic_latencies_give_exact_means(self):
        from autoscore.core import ScoredRecord
        from autoscore.pipeline import RunResult

        def fake_result(mode, wall_ms):
            records = [
                ScoredRecord(f"r{i}", "baseline", 1, 1, None,
                             wall_time_ms=wall_ms)
                for i in range(8)
            ]
            manifest = {"mode": mode, "model_name": "m",
                        "score_range": {"min": 0, "max": 3}}
            return RunResult(records=records, failures=[], manifest=manifest)

        report = _report([1, 1, 0, 2], [1, 1, 0, 2])
        csv_lines = tradeoff_csv([
            (fake_result("baseline", 100), report),
            (fake_result("autoscore", 250), report),
        ]).splitlines()
        assert csv_lines[1] == "m,baseline,100.0,1.0"
        assert csv_lines[2] == "m,autoscore,250.0,1.0"


class TestCaseRecord:
    @pytest.fixture
    def run_dirs(self, tmp_path, synth_dataset, synth_context, science_schema,
                 scripted_backend_factory):
        dirs = {}
        for mode in ("autoscore", "baseline"):
            config = RunConfig(
                mode=mode,
                run_dir=tmp_path / mode,
                backend=scripted_backend_factory(),
                context=synth_context,
                schema=science_schema if mode == "autoscore" else None,
                dataset_ref="synth",
            )
            score_dataset(config, synth_dataset)
            dirs[mode] = config.run_dir
        return dirs

    def test_assembles_both_predictions(self, run_dirs):
        record = case_record(
            load_run(run_dirs["autoscore"]), load_run(run_dirs["baseline"]),
            "r05",
            response_text=synth_response_text("r05"),
        )
        assert record.gold == 2
        assert record.autoscore_prediction == 1
        assert record.baseline_prediction == 1
        assert record.components["design_count"] == 2

    def test_markdown_rendering(self, run_dirs):
        record = case_record(
            load_run(run_dirs["autoscore"]), load_run(run_dirs["baseline"]),
            "r02",
            response_text=synth_response_text("r02"),
        )
        markdown = record.to_markdown()
        assert "# Case r02" in markdown
        assert "```json" in markdown           # pretty-printed components
        assert "\n- design_improvements:" in markdown
        assert "\n  - improvement 0 from r02" in markdown  # bulleted lists

    def test_missing_response_id(self, run_dirs):
        with pytest.raises(DatasetError, match="^response 'r99' not scored in the autoscore run$"):
            case_record(
                load_run(run_dirs["autoscore"]), load_run(run_dirs["baseline"]),
                "r99",
                response_text="missing",
            )

    def test_absent_from_baseline_run_only(self, run_dirs):
        records_path = run_dirs["baseline"] / "records.jsonl"
        kept = [
            line
            for line in records_path.read_text().splitlines()
            if '"r03"' not in line
        ]
        records_path.write_text("".join(line + "\n" for line in kept))
        with pytest.raises(DatasetError, match="^response 'r03' not scored in the baseline run$"):
            case_record(
                load_run(run_dirs["autoscore"]), load_run(run_dirs["baseline"]),
                "r03",
                response_text="present in autoscore only",
            )

    def test_refuses_swapped_runs(self, run_dirs):
        with pytest.raises(DatasetError, match="an autoscore and a baseline run of one dataset"):
            case_record(
                load_run(run_dirs["baseline"]), load_run(run_dirs["autoscore"]),
                "r05", response_text=synth_response_text("r05"),
            )

    def test_refuses_runs_over_different_datasets(self, run_dirs):
        baseline = load_run(run_dirs["baseline"])
        baseline.manifest["dataset_digest"] = "0" * 64
        with pytest.raises(DatasetError, match="an autoscore and a baseline run of one dataset"):
            case_record(
                load_run(run_dirs["autoscore"]), baseline,
                "r05", response_text=synth_response_text("r05"),
            )

    def test_refuses_runs_through_different_backends(self, run_dirs):
        baseline = load_run(run_dirs["baseline"])
        baseline.manifest["backend_identity"] = "scripted:other-model"
        with pytest.raises(DatasetError, match="through one backend"):
            case_record(
                load_run(run_dirs["autoscore"]), baseline,
                "r05", response_text=synth_response_text("r05"),
            )
