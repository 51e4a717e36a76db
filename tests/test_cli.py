import json
from pathlib import Path

import pytest
import yaml

from autoscore.cli import build_parser, main

from conftest import (
    RUBRIC_TEXT,
    SCIENCE_SCHEMA_DEF,
    SYNTH_GOLD,
    SYNTH_IDS,
    SYNTH_PRED,
    synth_response_text,
    z_payload,
)

DATA_DIR = Path(__file__).parent / "data"


def _write_workspace(root: Path) -> Path:
    """Config + TSV + scripted rules + gold annotations for CLI runs."""
    tsv = root / "data.tsv"
    rows = ["Id\tEssaySet\tScore1\tScore2\tEssayText"]
    for rid in SYNTH_IDS:
        rows.append(
            f"{rid}\t1\t{SYNTH_GOLD[rid]}\t{SYNTH_GOLD[rid]}\t"
            f"{synth_response_text(rid)}"
        )
    tsv.write_text("".join(r + "\n" for r in rows), encoding="utf-8")

    rules = []
    for rid in SYNTH_IDS:
        rules.append(
            {
                "match": [
                    f"synthetic response {rid}",
                    "Identify the rubric-relevant components",
                ],
                "text": json.dumps(z_payload(rid)),
            }
        )
    for rid in SYNTH_IDS:
        rules.append(
            {
                "match": [f"synthetic response {rid}"],
                "text": json.dumps({"score": SYNTH_PRED[rid]}),
            }
        )
    (root / "rules.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in rules), encoding="utf-8"
    )

    gold_lines = []
    for rid in SYNTH_IDS:
        z = z_payload(rid)
        gold_lines.append(
            json.dumps(
                {
                    "response_id": rid,
                    "values": {
                        "valid_conclusion": z["valid_conclusion"],
                        "design_count": len(z["design_improvements"]),
                        "validity_count": len(z["validity_improvements"]),
                    },
                }
            )
        )
    (root / "gold.jsonl").write_text(
        "".join(line + "\n" for line in gold_lines), encoding="utf-8"
    )

    config = {
        "backend": {
            "kind": "scripted",
            "model": "synth-model",
            "script_path": "rules.jsonl",
            # only reached via --backend replay; the file is never created
            "replay_path": "missing-fixture.jsonl",
        },
        "run": {"parallelism": 2, "max_retries": 3, "seed": 0},
        "items": {
            "synth": {
                "family": "sas",
                "tsv_path": "data.tsv",
                "essay_set": 1,
                "score_range": {"min": 0, "max": 3},
                "question": "How should the investigation be improved?",
                "reference_material": "procedure table",
                "rubric_text": RUBRIC_TEXT,
                "schema": SCIENCE_SCHEMA_DEF,
            }
        },
    }
    config_path = root / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return config_path


@pytest.fixture
def workspace(tmp_path):
    return _write_workspace(tmp_path)


def _score(config_path, mode, out, extra=()):
    return main(
        [
            "score",
            "--config", str(config_path),
            "--item", "synth",
            "--mode", mode,
            "--out", str(out),
            *extra,
        ]
    )


class TestScoreCommand:
    def test_baseline_run_writes_records(self, workspace, tmp_path):
        out = tmp_path / "base-run"
        assert _score(workspace, "baseline", out) == 0
        lines = (out / "records.jsonl").read_text().splitlines()
        assert len(lines) == 12
        first = json.loads(lines[0])
        assert first["mode"] == "baseline"
        assert first["representation"] is None

    def test_autoscore_run_writes_representations(self, workspace, tmp_path):
        out = tmp_path / "auto-run"
        assert _score(workspace, "autoscore", out) == 0
        lines = (out / "records.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(r["representation"] is not None for r in records)

    def test_unknown_item_exits_2(self, workspace, tmp_path):
        code = main(
            [
                "score", "--config", str(workspace), "--item", "nope",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_missing_replay_fixture_exits_4(self, workspace, tmp_path):
        code = _score(
            workspace, "baseline", tmp_path / "y", extra=["--backend", "replay"]
        )
        assert code == 4

    def test_corrupt_replay_fixture_exits_4(self, workspace, tmp_path, caplog):
        fixture = workspace.parent / "missing-fixture.jsonl"
        fixture.write_text('{"digest": "abc", "text": "ok"}\n{"digest": \n')
        code = _score(
            workspace, "baseline", tmp_path / "y", extra=["--backend", "replay"]
        )
        assert code == 4
        assert f"{fixture} line 2" in caplog.text

    def test_corrupt_run_dir_exits_3(self, workspace, tmp_path, caplog):
        out = tmp_path / "corrupt"
        assert _score(workspace, "baseline", out) == 0
        records = out / "records.jsonl"
        lines = records.read_text().splitlines(True)
        lines[4] = lines[4][:30] + "\n"
        records.write_text("".join(lines))
        assert _score(workspace, "baseline", out, extra=["--resume"]) == 3
        assert f"{records} line 5" in caplog.text
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(out), "--out", reports]) == 3

    def test_resume_finished_run_is_idempotent(self, workspace, tmp_path):
        out = tmp_path / "resumable"
        assert _score(workspace, "baseline", out) == 0
        before = (out / "records.jsonl").read_bytes()
        assert _score(workspace, "baseline", out, extra=["--resume"]) == 0
        assert (out / "records.jsonl").read_bytes() == before

    def test_rescoring_existing_dir_without_resume_exits_2(
        self, workspace, tmp_path
    ):
        out = tmp_path / "dup"
        assert _score(workspace, "baseline", out) == 0
        assert _score(workspace, "baseline", out) == 2

    def test_per_record_failures_still_exit_zero(self, workspace, tmp_path):
        # drop r11's scoring rule: its retries exhaust, the run completes
        rules_path = workspace.parent / "rules.jsonl"
        kept = [
            line
            for line in rules_path.read_text().splitlines()
            if not (
                "synthetic response r11" in line
                and "Identify the rubric-relevant components" not in line
            )
        ]
        rules_path.write_text("".join(line + "\n" for line in kept))
        out = tmp_path / "partial"
        assert _score(workspace, "baseline", out) == 0
        failures = (out / "failures.jsonl").read_text().splitlines()
        assert len(failures) == 1
        assert json.loads(failures[0])["response_id"] == "r11"
        assert len((out / "records.jsonl").read_text().splitlines()) == 11


class TestEvaluateCommand:
    def test_paired_runs_produce_comparison(self, workspace, tmp_path, capsys):
        base_dir = tmp_path / "b"
        auto_dir = tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        reports = tmp_path / "reports"
        code = main(
            [
                "evaluate",
                "--run", str(base_dir),
                "--run", str(auto_dir),
                "--out", str(reports),
            ]
        )
        assert code == 0
        assert (reports / "comparison.md").exists()
        payload = json.loads((reports / "comparison.json").read_text())
        metrics = payload["rows"][0]["metrics"]
        # identical scripted predictions in both modes: all deltas zero
        assert all(m["delta_pct"] == 0.0 for m in metrics.values())
        assert (reports / "b.metrics.json").exists()
        assert (reports / "a.metrics.json").exists()
        # idempotent against a fixed --out
        before = (reports / "comparison.md").read_bytes()
        main(
            [
                "evaluate",
                "--run", str(base_dir),
                "--run", str(auto_dir),
                "--out", str(reports),
            ]
        )
        assert (reports / "comparison.md").read_bytes() == before

    def test_single_run_report_only(self, workspace, tmp_path):
        run_dir = tmp_path / "solo"
        _score(workspace, "baseline", run_dir)
        reports = tmp_path / "reports"
        assert main(["evaluate", "--run", str(run_dir), "--out", str(reports)]) == 0
        assert (reports / "solo.metrics.json").exists()
        assert not (reports / "comparison.md").exists()

    def test_digest_mismatch_exits_3(self, workspace, tmp_path):
        run_dir = tmp_path / "full"
        _score(workspace, "baseline", run_dir)
        # second run over an edited dataset (one response text changed)
        edited_root = tmp_path / "edited"
        edited_root.mkdir()
        edited_config = _write_workspace(edited_root)
        tsv = edited_root / "data.tsv"
        tsv.write_text(tsv.read_text().replace("r01:", "r01 EDITED:"))
        other_dir = tmp_path / "other"
        assert _score(edited_config, "baseline", other_dir) == 0
        code = main(
            [
                "evaluate",
                "--run", str(run_dir),
                "--run", str(other_dir),
                "--out", str(tmp_path / "reports"),
            ]
        )
        assert code == 3


class TestValidateComponentsCommand:
    def test_full_coverage_gold(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        out = tmp_path / "rel"
        code = main(
            [
                "validate-components",
                "--run", str(run_dir),
                "--gold", str(workspace.parent / "gold.jsonl"),
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "reliability.json").read_text())
        assert report["n"] == 12
        # gold mirrors the normalized extractions: perfect agreement
        assert report["boolean_fields"]["valid_conclusion"]["accuracy"] == 1.0
        assert report["overall_exact_match_rate"] == 1.0

    def test_sampled_subset(self, workspace, tmp_path):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        out = tmp_path / "rel"
        code = main(
            [
                "validate-components",
                "--run", str(run_dir),
                "--gold", str(workspace.parent / "gold.jsonl"),
                "--sample-fraction", "0.5",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "reliability.json").read_text())
        assert report["n"] == 6

    def test_baseline_run_exits_2(self, workspace, tmp_path):
        run_dir = tmp_path / "base"
        _score(workspace, "baseline", run_dir)
        code = main(
            [
                "validate-components",
                "--run", str(run_dir),
                "--gold", str(workspace.parent / "gold.jsonl"),
            ]
        )
        assert code == 2


class TestTradeoffCommand:
    def test_two_runs_two_rows(self, workspace, tmp_path):
        base_dir = tmp_path / "b"
        auto_dir = tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        out = tmp_path / "tradeoff.csv"
        code = main(
            [
                "tradeoff",
                "--run", str(base_dir),
                "--run", str(auto_dir),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "model,variant,mean_ms,qwk"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "baseline"
        assert lines[2].split(",")[1] == "autoscore"

    def test_timing_csv_not_required(self, workspace, tmp_path):
        # timing is reconstructed from the records themselves
        run_dir = tmp_path / "b"
        _score(workspace, "baseline", run_dir)
        (run_dir / "timing.csv").unlink()
        out = tmp_path / "tradeoff.csv"
        assert main(["tradeoff", "--run", str(run_dir), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_idempotent_given_fixed_out(self, workspace, tmp_path):
        run_dir = tmp_path / "b"
        _score(workspace, "baseline", run_dir)
        out = tmp_path / "tradeoff.csv"
        main(["tradeoff", "--run", str(run_dir), "--out", str(out)])
        first = out.read_bytes()
        main(["tradeoff", "--run", str(run_dir), "--out", str(out)])
        assert out.read_bytes() == first


class TestCaseCommand:
    def test_case_markdown(self, workspace, tmp_path, capsys):
        base_dir = tmp_path / "b"
        auto_dir = tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        out = tmp_path / "cases"
        code = main(
            [
                "case",
                "--run-autoscore", str(auto_dir),
                "--run-baseline", str(base_dir),
                "--id", "r02",
                "--config", str(workspace),
                "--out", str(out),
            ]
        )
        assert code == 0
        markdown = (out / "case_r02.md").read_text()
        assert "# Case r02" in markdown
        assert "```json" in markdown
        captured = capsys.readouterr()
        assert "# Case r02" in captured.out

    def test_missing_id_exits_3(self, workspace, tmp_path):
        base_dir = tmp_path / "b"
        auto_dir = tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        code = main(
            [
                "case",
                "--run-autoscore", str(auto_dir),
                "--run-baseline", str(base_dir),
                "--id", "r99",
                "--config", str(workspace),
            ]
        )
        assert code == 3


class TestHelpGolden:
    def test_main_help_matches_golden(self):
        expected = (DATA_DIR / "help_main.txt").read_text()
        assert build_parser().format_help() == expected

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("score", ["--config", "--item", "--mode", "--backend",
                       "--parallelism", "--out", "--resume"]),
            ("evaluate", ["--run", "--out"]),
            ("validate-components", ["--run", "--gold", "--sample-fraction",
                                     "--seed", "--out"]),
            ("tradeoff", ["--run", "--out"]),
            ("case", ["--run-autoscore", "--run-baseline", "--id",
                      "--config", "--out"]),
        ],
    )
    def test_subcommand_help_enumerates_all_flags(self, command, flags, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        help_text = capsys.readouterr().out
        for flag in flags:
            assert flag in help_text
        golden = (DATA_DIR / f"help_{command.replace('-', '_')}.txt").read_text()
        assert help_text == golden

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["score", "--bogus"])
        assert excinfo.value.code == 2
