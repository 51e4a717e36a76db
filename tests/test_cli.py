import json
import shutil
from pathlib import Path

import pytest
import yaml

from autoscore.cli import build_parser, main
from autoscore.config import BACKEND_KEYS, ITEM_KEYS, RUN_KEYS
from autoscore.pipeline import READ_KEYS

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


def _setting(*path, value):
    def edit(config, root):
        for key in path[:-1]:
            config = config[key]
        config[path[-1]] = value
    return edit


def _copy_item(config, root):
    config["items"]["other"] = config["items"]["synth"]


def _drop_last_response(config, root):
    tsv = root / "data.tsv"
    tsv.write_text("".join(tsv.read_text().splitlines(True)[:-1]))


def _edit_last_response(config, root):
    tsv = root / "data.tsv"
    tsv.write_text(tsv.read_text().rstrip("\n") + " edited\n")


def _create_replay_fixture(config, root):
    (root / "missing-fixture.jsonl").touch()


# per manifest key that a resume must keep: a change to the config (or the
# workspace files) and score flags that make that key the first to differ
RESUME_DRIFT = [
    ("mode", lambda config, root: None, ["--mode", "baseline"]),
    ("item_id", _copy_item, ["--item", "other"]),
    ("n_responses", _drop_last_response, []),
    ("dataset_digest", _edit_last_response, []),
    ("model_name", _setting("backend", "model", value="other-model"), []),
    ("backend_identity", _create_replay_fixture, ["--backend", "replay"]),
    ("score_range",
     _setting("items", "synth", "score_range", value={"min": 0, "max": 4}), []),
    ("max_retries", _setting("run", "max_retries", value=1), []),
    ("imputation", _setting("run", "imputation", value="floor"), []),
    ("context", _setting("items", "synth", "rubric_text", value="edited"), []),
    ("schema", _setting("items", "synth", "schema", "fields", 0, "description",
                        value="edited"), []),
    ("max_output_tokens", _setting("backend", "max_output_tokens", value=64), []),
]

# the sub-keys a drift message names for each mapping-valued manifest key
DRIFT_PARTS = {"score_range": "max", "context": "rubric_text", "schema": "fields"}


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

    def test_cut_short_rules_line_exits_2(self, workspace, tmp_path, caplog):
        rules = workspace.parent / "rules.jsonl"
        lines = rules.read_text().splitlines(True)
        lines[2] = lines[2][:30] + "\n"
        rules.write_text("".join(lines))
        assert _score(workspace, "baseline", tmp_path / "x") == 2
        assert f"{rules} line 3" in caplog.text

    def test_rule_without_text_exits_2(self, workspace, tmp_path, caplog):
        rules = workspace.parent / "rules.jsonl"
        # a hand-written last line may lack its newline; it is still checked
        rules.write_text(rules.read_text() + '{"match": "synthetic response"}')
        assert _score(workspace, "baseline", tmp_path / "x") == 2
        assert f"{rules} line 25" in caplog.text

    def test_rule_with_raw_line_separator_parses(self, workspace, tmp_path):
        rules = workspace.parent / "rules.jsonl"
        # U+2028 breaks a line for str.splitlines, not in a JSONL file
        extra = json.dumps({"match": "a\u2028b", "text": "x"}, ensure_ascii=False)
        assert "\u2028" in extra
        rules.write_text(rules.read_text() + extra + "\n", encoding="utf-8")
        assert _score(workspace, "baseline", tmp_path / "x") == 0

    def test_non_utf8_rules_line_exits_2(self, workspace, tmp_path, caplog):
        rules = workspace.parent / "rules.jsonl"
        lines = rules.read_bytes().splitlines(True)
        lines[2] = b'{"match": "caf\xe9", "text": "y"}\n'
        rules.write_bytes(b"".join(lines))
        assert _score(workspace, "baseline", tmp_path / "x") == 2
        assert f"{rules} line 3" in caplog.text

    @pytest.mark.parametrize("rule", [
        {"match": 5, "text": "x"},
        {"match": ["synthetic", 5], "text": "x"},
        {"match": {"synthetic": 1}, "text": "x"},
        {"match": "synthetic", "text": 5},
        {"match": "synthetic", "text": "x", "latency_ms": 0},
        {"match": "synthetic", "text": "x", "latency_ms": "10"},
        {"match": "synthetic", "text": "x", "latency_ms": 2.5},
    ], ids=["match-int", "match-list-with-int", "match-object", "text-int",
            "latency-zero", "latency-string", "latency-float"])
    def test_bad_rule_value_exits_2_before_writing(
        self, workspace, tmp_path, caplog, rule
    ):
        # every response reaches line 3, so at run time this rule would crash
        # the run or answer with a latency no model call can have
        rules = workspace.parent / "rules.jsonl"
        lines = rules.read_text().splitlines(True)
        lines[2] = json.dumps(rule) + "\n"
        rules.write_text("".join(lines))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out) == 2
        assert f"{rules} line 3" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("schema", [
        {"fields": ["x"]},
        [{"name": "x", "kind": "boolean"}],
        {"fields": {"name": "x", "kind": "boolean"}},
        {"fields": [{"name": 5, "kind": "boolean"}]},
        {"fields": [{"name": "a", "kind": "text_list"},
                    {"name": "b", "kind": "count", "derived_from": ["a"]}]},
    ], ids=["field-not-mapping", "schema-list", "fields-mapping", "name-int",
            "derived-from-list"])
    def test_malformed_schema_exits_2_before_writing(
        self, workspace, tmp_path, caplog, schema
    ):
        config = yaml.safe_load(workspace.read_text())
        config["items"]["synth"]["schema"] = schema
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out) == 2
        assert "schema for 'synth'" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("section,key,value", [
        ("flag", "--parallelism", "0"),
        ("flag", "--parallelism", "-1"),
        ("run", "parallelism", "four"),
        ("run", "imputation", "flor"),
        ("run", "max_retries", 0),
        ("backend", "max_output_tokens", -5),
        ("backend", "max_output_tokens", 0),
    ])
    def test_bad_run_setting_exits_2_before_writing(
        self, workspace, tmp_path, section, key, value
    ):
        extra = []
        if section == "flag":
            extra = [key, value]
        else:
            config = yaml.safe_load(workspace.read_text())
            config[section][key] = value
            workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out, extra=extra) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("key,value", [
        ("timeout_s", "abc"),
        ("timeout_s", 0),
        ("timeout_s", -1.5),
        ("timeout_s", True),
        ("max_in_flight", -1),
        ("max_in_flight", 0),
        ("max_in_flight", 2.5),
        ("max_in_flight", "two"),
    ])
    def test_bad_remote_setting_exits_2_before_writing(
        self, workspace, tmp_path, monkeypatch, key, value
    ):
        monkeypatch.setenv("AUTOSCORE_API_KEY", "k")
        config = yaml.safe_load(workspace.read_text())
        config["backend"].update(
            {"kind": "remote", "base_url": "http://127.0.0.1:9/v1", key: value}
        )
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out) == 2
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("section", ["run", "backend", "items"])
    @pytest.mark.parametrize("value", [5, "fast", [1, 2]])
    def test_section_that_is_not_a_mapping_exits_2(
        self, workspace, tmp_path, caplog, section, value
    ):
        config = yaml.safe_load(workspace.read_text())
        config[section] = value
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out) == 2
        assert f"{section} must be a mapping" in caplog.text
        assert not (out / "manifest.json").exists()

    def test_item_that_is_not_a_mapping_exits_2(self, workspace, tmp_path, caplog):
        config = yaml.safe_load(workspace.read_text())
        config["items"]["synth"] = 5
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out) == 2
        assert "items.synth must be a mapping" in caplog.text
        assert not (out / "manifest.json").exists()

    def test_torn_manifest_exits_3(self, workspace, tmp_path, caplog):
        out = tmp_path / "torn"
        assert _score(workspace, "baseline", out) == 0
        manifest = out / "manifest.json"
        manifest.write_bytes(manifest.read_bytes()[:100])
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(out), "--out", reports]) == 3
        assert _score(workspace, "baseline", out, extra=["--resume"]) == 3
        assert f"{manifest} does not parse" in caplog.text

    @pytest.mark.parametrize("key,edit,flags", RESUME_DRIFT,
                             ids=[case[0] for case in RESUME_DRIFT])
    def test_resume_refuses_drift(
        self, workspace, tmp_path, caplog, key, edit, flags
    ):
        out = tmp_path / "drift"
        assert _score(workspace, "autoscore", out) == 0
        records = out / "records.jsonl"
        records.write_text("".join(records.read_text().splitlines(True)[:3]))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        config = yaml.safe_load(workspace.read_text())
        edit(config, workspace.parent)
        workspace.write_text(yaml.safe_dump(config))
        code = _score(workspace, "autoscore", out, extra=["--resume", *flags])
        assert code == 3
        if key in DRIFT_PARTS:  # a mapping names its parts, not their text
            assert f"manifest {key} differs for {DRIFT_PARTS[key]}" in caplog.text
            assert "edited" not in caplog.text
        else:
            assert f"manifest {key} is" in caplog.text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_resume_refuses_changed_template(self, workspace, tmp_path, caplog):
        out = tmp_path / "drift"
        assert _score(workspace, "autoscore", out) == 0
        records = out / "records.jsonl"
        records.write_text("".join(records.read_text().splitlines(True)[:3]))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        (workspace.parent / "scoring_user.txt").write_text("EDITED {response}")
        config = yaml.safe_load(workspace.read_text())
        config["items"]["synth"]["templates"] = {"scoring_user": "scoring_user.txt"}
        workspace.write_text(yaml.safe_dump(config))
        assert _score(workspace, "autoscore", out, extra=["--resume"]) == 3
        assert "manifest templates differs for scoring" in caplog.text
        assert "EDITED" not in caplog.text  # names the stage, not the prompt
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("key", ["templates", "max_output_tokens"])
    def test_run_without_recorded_prompt_key_loads_but_does_not_resume(
        self, workspace, tmp_path, caplog, key
    ):
        out = tmp_path / "older"
        assert _score(workspace, "baseline", out) == 0
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(out), "--out", reports]) == 0
        assert _score(workspace, "baseline", out, extra=["--resume"]) == 3
        assert f"manifest has no {key}" in caplog.text

    @pytest.mark.parametrize("section,key", [
        ("run", "paralellism"), ("backend", "max_retry"),
        ("items.synth", "gold_rul"),
    ])
    def test_unknown_config_key_exits_2_before_writing(
        self, workspace, tmp_path, caplog, section, key
    ):
        config = yaml.safe_load(workspace.read_text())
        target = config
        for part in section.split("."):
            target = target[part]
        target[key] = "resolved_column"
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out) == 2
        accepted = {"run": RUN_KEYS, "backend": BACKEND_KEYS,
                    "items.synth": ITEM_KEYS}[section]
        assert f"{section}: unknown keys [{key!r}]" in caplog.text
        assert ", ".join(accepted) in caplog.text
        assert not out.exists()

    def test_autoscore_without_schema_exits_2_before_writing(
        self, workspace, tmp_path, caplog
    ):
        config = yaml.safe_load(workspace.read_text())
        del config["items"]["synth"]["schema"]
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "autoscore", out) == 2
        assert "item 'synth' has no component schema" in caplog.text
        assert not out.exists()

    def test_gold_rule_outside_the_family_exits_2_before_writing(
        self, workspace, tmp_path, caplog
    ):
        config = yaml.safe_load(workspace.read_text())
        config["items"]["synth"]["gold_rule"] = "resolved_column"
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, "baseline", out) == 2
        assert "'resolved_column' is not one of the sas rules: first_rater" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("mode,key", [
        ("baseline", "baseline_user"), ("autoscore", "extraction_system"),
    ])
    def test_template_with_unbound_placeholder_exits_2_before_writing(
        self, workspace, tmp_path, caplog, mode, key
    ):
        (workspace.parent / "prompt.txt").write_text(
            "{response}\n{representation_json}")
        config = yaml.safe_load(workspace.read_text())
        config["items"]["synth"]["templates"] = {key: "prompt.txt"}
        workspace.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert _score(workspace, mode, out) == 2
        stage = key.split("_")[0]
        assert (f"the {stage} template uses placeholders its stage does not "
                f"bind: ['representation_json']") in caplog.text
        assert not out.exists()

    def test_misspelt_placeholder_in_the_demo_exits_2_before_writing(
        self, tmp_path, caplog
    ):
        # a misspelt name is a placeholder no stage binds, not literal text
        # sent to the model in place of the response
        demo = tmp_path / "demo"
        shutil.copytree(Path(__file__).parent.parent / "demo", demo)
        (demo / "prompt.txt").write_text(
            "Score this: {respnse} in {score_min}..{score_max}")
        config = yaml.safe_load((demo / "config.yaml").read_text())
        config["items"]["science"]["templates"] = {"baseline_user": "prompt.txt"}
        (demo / "config.yaml").write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert main(["score", "--config", str(demo / "config.yaml"), "--item",
                     "science", "--mode", "baseline", "--out", str(out)]) == 2
        assert ("the baseline template uses placeholders its stage does not "
                "bind: ['respnse']") in caplog.text
        assert not out.exists()

    def test_over_long_integer_reply_is_a_recorded_failure(self, workspace, tmp_path):
        rules = workspace.parent / "rules.jsonl"
        huge = {"match": ["synthetic response r02"],
                "text": '{"score": ' + "9" * 5000 + "}"}
        rules.write_text(json.dumps(huge) + "\n" + rules.read_text())
        out = tmp_path / "huge"
        assert _score(workspace, "baseline", out) == 0
        assert len((out / "records.jsonl").read_text().splitlines()) == 11
        assert json.loads((out / "failures.jsonl").read_text()) == {
            "response_id": "r02",
            "error": "ScoringFailed: gave up after 3 attempts: no balanced "
                     "JSON object found in model output",
        }

    def test_resume_may_change_parallelism_and_seed(self, workspace, tmp_path):
        whole, cut = tmp_path / "whole", tmp_path / "cut"
        assert _score(workspace, "autoscore", whole) == 0
        assert _score(workspace, "autoscore", cut) == 0
        records = cut / "records.jsonl"
        records.write_text("".join(records.read_text().splitlines(True)[:3]))
        config = yaml.safe_load(workspace.read_text())
        config["run"]["seed"] = 7
        workspace.write_text(yaml.safe_dump(config))
        extra = ["--resume", "--parallelism", "1"]
        assert _score(workspace, "autoscore", cut, extra=extra) == 0
        assert records.read_bytes() == (whole / "records.jsonl").read_bytes()

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
    @pytest.mark.parametrize("key", READ_KEYS)
    def test_manifest_without_key_exits_3(self, workspace, tmp_path, caplog, key):
        out = tmp_path / "run"
        assert _score(workspace, "baseline", out) == 0
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest[key]
        manifest_path.write_text(json.dumps(manifest))
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(out), "--out", reports]) == 3
        assert f"{manifest_path} lacks {key}" in caplog.text

    @pytest.mark.parametrize("key,value", [
        ("score_range", {}),
        ("score_range", {"min": 3, "max": 0}),
        ("score_range", [0, 3]),
        ("mode", "hybrid"),
        ("mode", ["baseline"]),
        ("context", {"rubric_text": "r"}),
        ("context", {"question": "q", "rubric_text": 5}),
        ("context", "q"),
    ], ids=["range-empty", "range-inverted", "range-list", "mode-unknown",
            "mode-list", "context-no-question", "context-rubric-int",
            "context-string"])
    def test_malformed_manifest_value_exits_3(
        self, workspace, tmp_path, caplog, key, value
    ):
        out = tmp_path / "run"
        assert _score(workspace, "baseline", out) == 0
        manifest_path = out / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(out), "--out", reports]) == 3
        assert f"{manifest_path} has a malformed" in caplog.text

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

    def test_missing_gold_file_exits_3(self, workspace, tmp_path, caplog):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        gold = tmp_path / "absent.jsonl"
        code = main(
            ["validate-components", "--run", str(run_dir), "--gold", str(gold)]
        )
        assert code == 3
        assert str(gold) in caplog.text

    @pytest.mark.parametrize("bad_line", [
        b'{"response_id": "r03", "val', b'{"response_id": "r03"}', b"[1, 2]",
        b'{"response_id": "r03", "values": 5}',
        b'{"response_id": "r03\xe9", "values": {}}',
    ], ids=["cut_short", "no_values", "not_an_object", "values_not_an_object",
            "not_utf8"])
    def test_bad_gold_line_exits_3(self, workspace, tmp_path, caplog, bad_line):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        gold = workspace.parent / "gold.jsonl"
        lines = gold.read_bytes().splitlines(True)
        lines[2] = bad_line + b"\n"
        gold.write_bytes(b"".join(lines))
        code = main(
            ["validate-components", "--run", str(run_dir), "--gold", str(gold)]
        )
        assert code == 3
        assert f"{gold} line 3" in caplog.text

    @pytest.mark.parametrize("cut,message", [
        ("id", "predicted/gold ids differ"), ("field", "lacks field 'design_count'"),
    ], ids=["id", "field"])
    def test_gold_that_misses_an_id_or_a_field_exits_3(
        self, workspace, tmp_path, caplog, cut, message
    ):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        gold = workspace.parent / "gold.jsonl"
        entries = [json.loads(line) for line in gold.read_text().splitlines()]
        if cut == "id":
            del entries[5]
        else:
            del entries[5]["values"]["design_count"]
        gold.write_text("".join(json.dumps(e) + "\n" for e in entries))
        code = main(
            ["validate-components", "--run", str(run_dir), "--gold", str(gold)]
        )
        assert code == 3
        assert message in caplog.text

    def test_gold_line_with_raw_line_separator_parses(self, workspace, tmp_path):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        gold = workspace.parent / "gold.jsonl"
        lines = gold.read_text().splitlines(True)
        entry = {**json.loads(lines[2]), "note": "a\u2028b"}
        lines[2] = json.dumps(entry, ensure_ascii=False) + "\n"
        gold.write_text("".join(lines), encoding="utf-8")
        code = main(
            ["validate-components", "--run", str(run_dir), "--gold", str(gold)]
        )
        assert code == 0

    @pytest.mark.parametrize("fraction", ["0", "1.5"])
    def test_sample_fraction_outside_unit_interval_exits_2(
        self, workspace, tmp_path, fraction
    ):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        code = main(
            [
                "validate-components",
                "--run", str(run_dir),
                "--gold", str(workspace.parent / "gold.jsonl"),
                "--sample-fraction", fraction,
            ]
        )
        assert code == 2

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
        # timing is read from the records themselves
        run_dir = tmp_path / "b"
        _score(workspace, "baseline", run_dir)
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

    def test_swapped_runs_exit_3(self, workspace, tmp_path, capsys):
        base_dir, auto_dir = tmp_path / "b", tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        code = main(["case", "--run-autoscore", str(base_dir),
                     "--run-baseline", str(auto_dir), "--id", "r02",
                     "--config", str(workspace)])
        assert code == 3
        assert capsys.readouterr().out == ""

    def test_baseline_over_other_dataset_exits_3(self, workspace, tmp_path, capsys):
        base_dir, auto_dir = tmp_path / "b", tmp_path / "a"
        _score(workspace, "autoscore", auto_dir)
        tsv = workspace.parent / "data.tsv"
        tsv.write_text(tsv.read_text().rstrip("\n") + " edited\n")
        _score(workspace, "baseline", base_dir)
        code = main(["case", "--run-autoscore", str(auto_dir),
                     "--run-baseline", str(base_dir), "--id", "r02",
                     "--config", str(workspace)])
        assert code == 3
        assert capsys.readouterr().out == ""


    def test_runs_through_other_backends_exit_3(self, workspace, tmp_path, capsys):
        base_dir, auto_dir = tmp_path / "b", tmp_path / "a"
        _score(workspace, "autoscore", auto_dir)
        config = yaml.safe_load(workspace.read_text())
        config["backend"]["model"] = "other-model"
        workspace.write_text(yaml.safe_dump(config))
        _score(workspace, "baseline", base_dir)
        # evaluate does not compare the two runs either
        reports = tmp_path / "reports"
        assert main(["evaluate", "--run", str(base_dir), "--run", str(auto_dir),
                     "--out", str(reports)]) == 0
        assert not (reports / "comparison.md").exists()
        capsys.readouterr()
        code = main(["case", "--run-autoscore", str(auto_dir),
                     "--run-baseline", str(base_dir), "--id", "r02",
                     "--config", str(workspace)])
        assert code == 3
        assert capsys.readouterr().out == ""


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
