"""The shipped offline demo must keep working exactly as the README shows,
and every file it writes (all but the timestamped manifests) must keep
its bytes."""

import hashlib
import json
import shutil
from pathlib import Path

from autoscore.cli import main

DEMO = Path(__file__).parent.parent / "demo"
OLDER_RUNS = Path(__file__).parent / "data" / "demo_ecf67b4"

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"

# SHA-256 of each demo output, relative to the test's tmp dir; file
# contents do not depend on where the run directories live
GOLDEN = {
    "auto/records.jsonl":
        "73121e3c825ed27ebaaf90c4d74dc54658540384fd6942d57f8502f04e960721",
    "base/records.jsonl":
        "f07dae97f5662f603fbbb3f91f185d9097f781fd4f167ad5395f0d6caa09723b",
    "auto/failures.jsonl": EMPTY,
    "base/failures.jsonl": EMPTY,
    "reports/auto.metrics.json":
        "b751bf4079bd4a297c33ad6943db9cb9b2001d44bbc759082b8a6f53dcb9eaf5",
    "reports/auto.metrics.txt":
        "1aa58459f4919f8c530739844c0e42de7c9d5b26807995d2d52c63c503b9dde3",
    "reports/base.metrics.json":
        "4eb714c6cba85acca5db16f7e38f0f2c7aa502b6a133ecc1afc418969b50ba86",
    "reports/base.metrics.txt":
        "d98035dcf2ca5398affff1186b380d74fbac3b2f477a76672a0b8cdaf02fe090",
    "reports/comparison.json":
        "6c06e6a40ee46676deafd243caa16ba385cd516b41c4c1621a4dc78e49cfa027",
    "reports/comparison.md":
        "7693c24f5c94655eb18f9eb081373b383994c1f4882f8980f0d11cfe40e5ffd3",
    "reports/reliability.json":
        "1c46c106edf40f31bb70461e62558a984e0898ca8fc4438c94455d3af499e18b",
    "reports/reliability.txt":
        "ede5a54daf6a29876ce94a1b518df366d10cde09d47155943473ddf21fc47708",
    "reports/half/reliability.json":
        "b092258d2ec1aef8df634a3ea1eb5e3227e1ce106ac4d76fd2ae70fbb6581419",
    "reports/half/reliability.txt":
        "3bf9bab8fb56884964997fe407b23ea5f19c85575a5d77ee49b124176f9cf89c",
    "reports/tradeoff.csv":
        "9803a7a17699cef90b8f23e73a8c75c27540a1fb793bcbdbbdb3490e5bd7bfa2",
    "reports/case_d05.md":
        "943ae6dc9ad33df7e1f8bcaec7ee723d377db59872362e96b5ad531808c6bef4",
}


def _write_reports(tmp_path, base_dir, auto_dir):
    """Every report the README shows for the demo's two runs, written under
    tmp_path / "reports"."""
    reports = tmp_path / "reports"
    assert main(
        [
            "evaluate",
            "--run", str(base_dir),
            "--run", str(auto_dir),
            "--out", str(reports),
        ]
    ) == 0
    payload = json.loads((reports / "comparison.json").read_text())
    metrics = payload["rows"][0]["metrics"]
    # the two-agent pipeline wins on every demo metric
    assert all(m["better"] == "autoscore" for m in metrics.values())
    assert metrics["accuracy"]["baseline"] == 0.5
    assert metrics["accuracy"]["autoscore"] == 0.875

    validate = [
        "validate-components",
        "--run", str(auto_dir),
        "--gold", str(DEMO / "gold_components.jsonl"),
    ]
    assert main([*validate, "--out", str(reports)]) == 0
    reliability = json.loads((reports / "reliability.json").read_text())
    assert reliability["n"] == 8
    assert reliability["count_fields"]["design_count"]["exact_match_rate"] == 0.875
    assert main([*validate, "--sample-fraction", "0.5", "--seed", "3",
                 "--out", str(reports / "half")]) == 0

    assert main(
        [
            "tradeoff",
            "--run", str(base_dir),
            "--run", str(auto_dir),
            "--out", str(reports / "tradeoff.csv"),
        ]
    ) == 0
    lines = (reports / "tradeoff.csv").read_text().splitlines()
    assert lines[1] == "demo-model,baseline,140.0,0.65"
    assert lines[2] == "demo-model,autoscore,300.0,0.95"

    assert main(
        [
            "case",
            "--run-autoscore", str(auto_dir),
            "--run-baseline", str(base_dir),
            "--id", "d05",
            "--config", str(DEMO / "config.yaml"),
            "--out", str(reports),
        ]
    ) == 0
    case_md = (reports / "case_d05.md").read_text()
    assert "Human score = 3, autoscore = 3, baseline = 1" in case_md


def _written(tmp_path):
    return {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file() and path.name != "manifest.json"
    }


def test_demo_end_to_end(tmp_path):
    base_dir = tmp_path / "base"
    auto_dir = tmp_path / "auto"
    for mode, out in [("baseline", base_dir), ("autoscore", auto_dir)]:
        code = main(
            [
                "score",
                "--config", str(DEMO / "config.yaml"),
                "--item", "science",
                "--mode", mode,
                "--out", str(out),
            ]
        )
        assert code == 0

    _write_reports(tmp_path, base_dir, auto_dir)

    # d07's declared validity_count disagreed with its empty evidence list
    records = [
        json.loads(line)
        for line in (auto_dir / "records.jsonl").read_text().splitlines()
    ]
    d07 = next(r for r in records if r["response_id"] == "d07")
    assert d07["representation"]["inconsistency_flags"] == ["validity_count"]
    assert d07["representation"]["values"]["validity_count"] == 0

    assert _written(tmp_path) == GOLDEN


def test_runs_written_by_an_older_tree_read_to_the_same_reports(tmp_path, caplog):
    # the demo's two runs as the tree of commit ecf67b4 wrote them (its
    # timing.csv left out): a manifest without templates, same record bytes
    shutil.copytree(OLDER_RUNS, tmp_path, dirs_exist_ok=True)
    _write_reports(tmp_path, tmp_path / "base", tmp_path / "auto")
    assert _written(tmp_path) == GOLDEN

    assert main(["score", "--config", str(DEMO / "config.yaml"), "--item", "science",
                 "--out", str(tmp_path / "auto"), "--resume"]) == 3
    assert "manifest has no templates; it cannot be resumed" in caplog.text
    assert _written(tmp_path) == GOLDEN
