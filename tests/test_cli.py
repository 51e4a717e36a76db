import csv
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
DEMO = Path(__file__).parent.parent / "demo"


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


def _empty_demo_tsv(config, root):
    (root / "data.tsv").write_bytes(b"")


def _cache_line_with_a_list_digest(config, root):
    (root / "cache.jsonl").write_text('{"digest": ["x"], "text": "t"}\n')
    config["backend"]["cache_path"] = "cache.jsonl"


def _replay_from(path):
    def edit(config, root):
        config["backend"].update(kind="replay", replay_path=path)
    return edit


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
        {"fields": [{"name": "a", "kind": "text_list"},
                    {"name": "b", "kind": "count", "derived_form": "a"}]},
        {"fields": [{"name": "a", "kind": "boolean", "description": 5}]},
    ], ids=["field-not-mapping", "schema-list", "fields-mapping", "name-int",
            "derived-from-list", "unknown-key", "description-int"])
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
        ("run", "seed", "0"),
        ("run", "seed", 1.5),
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
        ("base_url", ""),
        ("base_url", 5),
        ("base_url", "localhost:8000/v1"),
        ("base_url", "ftp://h/v1"),
        ("base_url", "https://h/x?api-version=1"),
        ("model", ""),
        ("model", 5),
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

    def test_records_out_of_order_exit_3(self, workspace, tmp_path, caplog):
        out = tmp_path / "swapped"
        assert _score(workspace, "baseline", out) == 0
        records = out / "records.jsonl"
        lines = records.read_text().splitlines(True)
        records.write_text("".join([lines[1], lines[0], *lines[2:4]]))
        before = records.read_bytes()
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(out), "--out", reports]) == 3
        assert _score(workspace, "baseline", out, extra=["--resume"]) == 3
        assert f"{records} line 2: response_id 'r01' does not follow 'r02'" in caplog.text
        assert records.read_bytes() == before

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

    @pytest.mark.parametrize("edit,code,message", [
        (_setting("items", "science", "family", value="gre"), 2,
         "unknown dataset family 'gre'"),
        (_setting("items", "science", "essay_set", value=0), 2,
         "essay_set must be positive"),
        (_setting("items", "science", "essay_set", value=1.7), 2,
         "essay_set must be positive"),
        (_setting("items", "science", "essay_set", value=True), 2,
         "essay_set must be positive"),
        (_setting("items", "science", "essay_set", value="1"), 2,
         "essay_set must be positive"),
        (_setting("items", "science", "score_range", value={"min": 0}), 2,
         "items.science.score_range: 'max'"),
        (_setting("items", "science", "score_range", value={"min": 0, "max": 3.9}),
         2, "score range bounds must be integers, got 0..3.9"),
        (_setting("items", "science", "score_range", value={"min": 0, "max": "3"}),
         2, "score range bounds must be integers, got 0..'3'"),
        (_setting("items", "science", "score_range", value={"min": True, "max": 3}),
         2, "score range bounds must be integers, got True..3"),
        (_setting("items", "science", "family", value=["sas"]), 2,
         "unknown dataset family ['sas']"),
        (_setting("items", "science", "gold_rule", value=["first_rater"]), 2,
         "gold_rule ['first_rater'] is not one of the sas rules"),
        (_setting("items", "science", "question", value=5), 2,
         "question must be a non-empty string"),
        (_setting("items", "science", "reference_material", value=5), 2,
         "items.science: reference_material must be a string, got 5"),
        (_setting("items", "science", "tsv_path", value=["a"]), 2,
         "items.science: tsv_path must be a non-empty string, got ['a']"),
        (_setting("backend", "model", value=5), 2,
         "backend.model must be a non-empty string, got 5"),
        (_setting("backend", "script_path", value="absent.jsonl"), 2,
         "scripted rules file not found"),
        (_setting("items", "science", "tsv_path", value="absent.tsv"), 3,
         "dataset file not found"),
        (_empty_demo_tsv, 3, "dataset file is empty"),
        (_cache_line_with_a_list_digest, 4,
         "cache.jsonl line 1 does not parse: ValueError('digest and text must be "
         "strings, got list and str')"),
        (_setting("backend", "cache_path", value=5), 2,
         "backend.cache_path must be a non-empty string, got 5"),
        (_setting("backend", "cache_path", value=["a"]), 2,
         "backend.cache_path must be a non-empty string, got ['a']"),
        (_setting("backend", "script_path", value=5), 2,
         "backend.script_path must be a non-empty string, got 5"),
        (_replay_from(7), 2, "backend.replay_path must be a non-empty string, got 7"),
    ], ids=["unknown-family", "essay-set-0", "essay-set-float", "essay-set-true",
            "essay-set-string", "range-without-max", "range-float", "range-string",
            "range-true", "family-list", "gold-rule-list", "question-int",
            "reference-material-int", "tsv-path-list", "model-int",
            "missing-rules-file", "missing-tsv", "empty-tsv", "cache-digest-list",
            "cache-path-int", "cache-path-list", "script-path-int", "replay-path-int"])
    def test_demo_config_refusal_exits_before_writing(
        self, tmp_path, caplog, edit, code, message
    ):
        root = tmp_path / "demo"
        shutil.copytree(DEMO, root)
        config_path = root / "config.yaml"
        config = yaml.safe_load(config_path.read_text())
        edit(config, root)
        config_path.write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert main(["score", "--config", str(config_path), "--item", "science",
                     "--mode", "baseline", "--out", str(out)]) == code
        assert message in caplog.text
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

    def test_user_prompt_without_the_response_exits_2_before_writing(
        self, tmp_path, caplog
    ):
        # every placeholder is bound, but the model would never see the response
        demo = tmp_path / "demo"
        shutil.copytree(Path(__file__).parent.parent / "demo", demo)
        (demo / "prompt.txt").write_text("Score this in {score_min}..{score_max}")
        config = yaml.safe_load((demo / "config.yaml").read_text())
        config["items"]["science"]["templates"] = {"baseline_user": "prompt.txt"}
        (demo / "config.yaml").write_text(yaml.safe_dump(config))
        out = tmp_path / "x"
        assert main(["score", "--config", str(demo / "config.yaml"), "--item",
                     "science", "--mode", "baseline", "--out", str(out)]) == 2
        assert "the baseline user prompt has no {response}" in caplog.text
        assert not (out / "manifest.json").exists()
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

    def test_scoring_over_a_run_without_its_manifest_exits_2(
        self, workspace, tmp_path, caplog
    ):
        out = tmp_path / "dup"
        assert _score(workspace, "baseline", out) == 0
        (out / "manifest.json").unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert _score(workspace, "autoscore", out) == 2
        assert f"{out / 'records.jsonl'} exists with no manifest" in caplog.text
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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
        ("score_range", {"min": 0, "max": 3.5}),
        ("dataset_digest", ["x"]),
        ("backend_identity", {"a": 1}),
        ("model_name", ["m"]),
        ("item_id", ["science"]),
        ("dataset_ref", ["synth"]),
    ], ids=["range-empty", "range-inverted", "range-list", "mode-unknown",
            "mode-list", "context-no-question", "context-rubric-int",
            "context-string", "range-float", "digest-list", "identity-object",
            "model-list", "item-list", "ref-list"])
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

    def test_runs_over_other_datasets_get_metrics_but_no_comparison(
        self, workspace, tmp_path
    ):
        run_dir = tmp_path / "full"
        _score(workspace, "baseline", run_dir)
        # an autoscore run over an edited dataset (one response text changed)
        edited_root = tmp_path / "edited"
        edited_root.mkdir()
        edited_config = _write_workspace(edited_root)
        tsv = edited_root / "data.tsv"
        tsv.write_text(tsv.read_text().replace("r01:", "r01 EDITED:"))
        other_dir = tmp_path / "other"
        assert _score(edited_config, "autoscore", other_dir) == 0
        reports = tmp_path / "reports"
        code = main(
            [
                "evaluate",
                "--run", str(run_dir),
                "--run", str(other_dir),
                "--out", str(reports),
            ]
        )
        assert code == 0
        assert (reports / "full.metrics.json").exists()
        assert (reports / "other.metrics.json").exists()
        assert not (reports / "comparison.md").exists()

    def test_second_run_of_one_mode_in_a_pairing_group_exits_3_before_writing(
        self, workspace, tmp_path, caplog
    ):
        # b1 and b2 would both be the group's baseline; one would be dropped
        runs = [tmp_path / "b1", tmp_path / "b2", tmp_path / "auto"]
        for run_dir, mode in zip(runs, ["baseline", "baseline", "autoscore"]):
            assert _score(workspace, mode, run_dir) == 0
        reports = tmp_path / "reports"
        argv = ["evaluate", "--out", str(reports)]
        for run_dir in runs:
            argv += ["--run", str(run_dir)]
        assert main(argv) == 3
        assert f"{runs[0]} and {runs[1]} are both baseline runs" in caplog.text
        assert not reports.exists()

    def test_run_dot_names_the_report_after_the_directory(
        self, workspace, tmp_path, monkeypatch
    ):
        run_dir = tmp_path / "solo"
        assert _score(workspace, "baseline", run_dir) == 0
        monkeypatch.chdir(run_dir)
        reports = tmp_path / "reports"
        assert main(["evaluate", "--run", ".", "--out", str(reports)]) == 0
        assert sorted(p.name for p in reports.iterdir()) == [
            "solo.metrics.json", "solo.metrics.txt"]

    def test_record_score_out_of_range_exits_3(self, workspace, tmp_path, caplog):
        run_dir = tmp_path / "auto"
        assert _score(workspace, "autoscore", run_dir) == 0
        records = run_dir / "records.jsonl"
        lines = records.read_text().splitlines(True)
        record = json.loads(lines[0])
        record["predicted_score"] = 93
        lines[0] = json.dumps(record) + "\n"
        records.write_text("".join(lines))
        reports = tmp_path / "reports"
        assert main(["evaluate", "--run", str(run_dir), "--out", str(reports)]) == 3
        assert "score 93 outside range 0..3" in caplog.text
        assert not reports.exists()

    @pytest.mark.parametrize("file,index,edit", [
        ("records.jsonl", 1, {"response_id": 7}),
        ("records.jsonl", 1, {"predicted_score": "3"}),
        ("records.jsonl", 1, {"predicted_score": True}),
        ("records.jsonl", 1, {"gold_score": 2.5}),
        ("records.jsonl", 1, {"wall_time_ms": 1.5}),
        ("records.jsonl", 1, {"retries": 1.5}),
        ("failures.jsonl", 0, {"response_id": 5}),
        ("failures.jsonl", 0, {"response_id": None}),
        ("failures.jsonl", 0, {"error": ["x"]}),
        ("records.jsonl", 1, {"representation.inconsistency_flags": "ab"}),
        ("records.jsonl", 1, {"representation.inconsistency_flags": [1]}),
        ("records.jsonl", 1, {"representation.schema_id": 7}),
        ("records.jsonl", 1, {"representation.values": [["k", 1]]}),
        ("records.jsonl", 1, {"transcripts.0.raw_output": 5}),
    ], ids=["id_int", "score_str", "score_bool", "gold_float", "wall_time_float",
            "retries_float", "failure_id_int",
            "failure_id_null", "failure_error_list", "flags_str", "flags_int",
            "schema_id_int", "values_list", "raw_output_int"])
    def test_line_with_a_field_of_the_wrong_type_exits_3(
        self, workspace, tmp_path, caplog, file, index, edit
    ):
        # a dotted key edits a part of the record: only autoscore records
        # carry a representation
        nested = any("." in key for key in edit)
        run_dir = tmp_path / "base"
        assert _score(workspace, "autoscore" if nested else "baseline", run_dir) == 0
        path = run_dir / file
        lines = path.read_text().splitlines(True)
        if file == "failures.jsonl":  # the run has none: write two
            lines = [json.dumps({"response_id": rid, "error": "ScoringFailed: x"}) + "\n"
                     for rid in ("r98", "r99")]
        entry = json.loads(lines[index])
        for key, value in edit.items():
            *parents, last = key.split(".")
            part = entry
            for name in parents:
                part = part[int(name)] if isinstance(part, list) else part[name]
            part[last] = value
        lines[index] = json.dumps(entry) + "\n"
        path.write_text("".join(lines))
        reports = tmp_path / "reports"
        assert main(["evaluate", "--run", str(run_dir), "--out", str(reports)]) == 3
        assert f"{path} line {index + 1} does not parse" in caplog.text
        assert not reports.exists()

    def test_two_runs_of_one_name_exit_3_before_writing(
        self, workspace, tmp_path, caplog
    ):
        # each would write base.metrics.*, the second over the first
        runs = [tmp_path / "x" / "base", tmp_path / "y" / "base", tmp_path / "x" / "auto"]
        for run_dir, mode in zip(runs, ["baseline", "baseline", "autoscore"]):
            assert _score(workspace, mode, run_dir) == 0
        reports = tmp_path / "reports"
        argv = ["evaluate", "--out", str(reports)]
        for run_dir in runs:
            argv += ["--run", str(run_dir)]
        assert main(argv) == 3
        assert (f"{runs[0]} and {runs[1]} would both write base.metrics.json"
                in caplog.text)
        assert not reports.exists()

    def test_run_without_records_exits_3_before_writing(
        self, workspace, tmp_path, caplog
    ):
        rules = workspace.parent / "rules.jsonl"
        kept = rules.read_text()
        rules.write_text(json.dumps({"match": "no reply matches", "text": "-"}) + "\n")
        empty = tmp_path / "empty"
        assert _score(workspace, "baseline", empty) == 0
        assert not (empty / "records.jsonl").read_text()
        rules.write_text(kept)
        full = tmp_path / "full"
        assert _score(workspace, "baseline", full) == 0
        reports = tmp_path / "reports"
        # listed before a valid run: neither run's report is written
        assert main(["evaluate", "--run", str(empty), "--run", str(full),
                     "--out", str(reports)]) == 3
        assert f"{empty} has no successful records to evaluate" in caplog.text
        assert not reports.exists()


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
        b'{"response_id": "r03\xe9", "values": {}}', b"[" * 100_000,
        b'{"response_id": ["r03"], "values": {}}', b'{"response_id": 3, "values": {}}',
    ], ids=["cut_short", "no_values", "not_an_object", "values_not_an_object",
            "not_utf8", "nested_too_deeply", "id_a_list", "id_an_int"])
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

    @pytest.mark.parametrize("field,value", [
        ("valid_conclusion", "false"), ("design_count", 2.7), ("design_count", -1),
        ("design_count", True), ("design_count", "x"), ("design_count", None),
    ], ids=["bool_as_string", "fraction", "negative", "bool_as_count", "string",
            "null"])
    def test_gold_value_of_the_wrong_kind_exits_3(
        self, workspace, tmp_path, caplog, field, value,
    ):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        gold = workspace.parent / "gold.jsonl"
        entries = [json.loads(line) for line in gold.read_text().splitlines()]
        entries[2]["values"][field] = value
        gold.write_text("".join(json.dumps(e) + "\n" for e in entries))
        out = tmp_path / "rel"
        code = main(["validate-components", "--run", str(run_dir),
                     "--gold", str(gold), "--out", str(out)])
        assert code == 3
        assert f"gold annotation for r03 has {field!r} = {value!r}" in caplog.text
        assert not out.exists()

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

    def test_empty_sample_exits_3(self, workspace, tmp_path, caplog):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        out = tmp_path / "rel"
        # 1% of 12 responses rounds to none
        code = main(
            [
                "validate-components",
                "--run", str(run_dir),
                "--gold", str(workspace.parent / "gold.jsonl"),
                "--sample-fraction", "0.01",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "no responses to validate" in caplog.text
        assert not out.exists()

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

    def test_manifest_without_schema_exits_3(self, workspace, tmp_path, caplog):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = None
        manifest_path.write_text(json.dumps(manifest))
        code = main(["validate-components", "--run", str(run_dir),
                     "--gold", str(workspace.parent / "gold.jsonl")])
        assert code == 3
        assert (f"{manifest_path}: run manifest carries no schema definition"
                in caplog.text)

    def test_manifest_with_a_malformed_schema_exits_3(self, workspace, tmp_path, caplog):
        run_dir = tmp_path / "auto"
        _score(workspace, "autoscore", run_dir)
        manifest_path = run_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = {"fields": "x"}
        manifest_path.write_text(json.dumps(manifest))
        code = main(["validate-components", "--run", str(run_dir),
                     "--gold", str(workspace.parent / "gold.jsonl")])
        assert code == 3
        assert f"{manifest_path}: schema for 'synth' must be a mapping" in caplog.text

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


class TestLineNestedTooDeeply:
    """A JSON line nested too deeply to parse is a corrupt line like any
    other, with its reader's exit code, not a RecursionError."""

    DEEP = "[" * 100_000

    def test_in_a_run_directory_exits_3(self, workspace, tmp_path, caplog):
        run_dir = tmp_path / "base"
        assert _score(workspace, "baseline", run_dir) == 0
        records = run_dir / "records.jsonl"
        lines = records.read_text().splitlines(True)
        lines[1] = self.DEEP + "\n"
        records.write_text("".join(lines))
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(run_dir), "--out", reports]) == 3
        assert f"{records} line 2 does not parse" in caplog.text

    def test_as_the_manifest_exits_3(self, workspace, tmp_path, caplog):
        run_dir = tmp_path / "base"
        assert _score(workspace, "baseline", run_dir) == 0
        manifest = run_dir / "manifest.json"
        manifest.write_text(self.DEEP)
        reports = str(tmp_path / "reports")
        assert main(["evaluate", "--run", str(run_dir), "--out", reports]) == 3
        assert f"{manifest} does not parse" in caplog.text

    def test_in_the_scripted_rules_exits_2(self, workspace, tmp_path, caplog):
        rules = workspace.parent / "rules.jsonl"
        lines = rules.read_text().splitlines(True)
        lines[2] = self.DEEP + "\n"
        rules.write_text("".join(lines))
        assert _score(workspace, "baseline", tmp_path / "x") == 2
        assert f"{rules} line 3 does not parse" in caplog.text

    def test_in_a_replay_fixture_exits_4(self, workspace, tmp_path, caplog):
        fixture = workspace.parent / "missing-fixture.jsonl"
        fixture.write_text(self.DEEP + "\n")
        code = _score(
            workspace, "baseline", tmp_path / "y", extra=["--backend", "replay"]
        )
        assert code == 4
        assert f"{fixture} line 1 does not parse" in caplog.text


class TestRecordOfAnotherMode:
    """An autoscore run whose first record line is the baseline run's is a
    corrupt run directory for every reader: exit 3 before any report or
    record is written."""

    @pytest.mark.parametrize("command", [
        lambda config_path, auto, base, reports: [
            "evaluate", "--run", str(auto), "--run", str(base), "--out", str(reports)],
        lambda config_path, auto, base, reports: [
            "validate-components", "--run", str(auto),
            "--gold", str(config_path.parent / "gold.jsonl"), "--out", str(reports)],
        lambda config_path, auto, base, reports: [
            "case", "--run-autoscore", str(auto), "--run-baseline", str(base),
            "--id", "r02", "--config", str(config_path), "--out", str(reports)],
        lambda config_path, auto, base, reports: [
            "score", "--config", str(config_path), "--item", "synth",
            "--mode", "autoscore", "--out", str(auto), "--resume"],
    ], ids=["evaluate", "validate-components", "case", "score-resume"])
    def test_exits_3_and_writes_nothing(self, workspace, tmp_path, caplog, command):
        auto, base = tmp_path / "auto", tmp_path / "base"
        assert _score(workspace, "autoscore", auto) == 0
        assert _score(workspace, "baseline", base) == 0
        records = auto / "records.jsonl"
        lines = records.read_text().splitlines(True)
        # cut to four lines, so a resume has responses left to score
        records.write_text("".join([base.joinpath("records.jsonl").read_text()
                                    .splitlines(True)[0], *lines[1:4]]))
        before = records.read_bytes()
        reports = tmp_path / "reports"
        assert main(command(workspace, auto, base, reports)) == 3
        assert (f"{records} line 1: mode 'baseline' in a run of mode 'autoscore'"
                in caplog.text)
        assert not reports.exists()
        assert records.read_bytes() == before


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

    def test_runs_without_records_are_named_and_left_out(
        self, workspace, tmp_path, caplog
    ):
        rules = workspace.parent / "rules.jsonl"
        kept = rules.read_text()
        rules.write_text(json.dumps({"match": "no reply matches", "text": "-"}) + "\n")
        empties = [tmp_path / "empty1", tmp_path / "empty2"]
        for empty in empties:
            assert _score(workspace, "baseline", empty) == 0
        rules.write_text(kept)
        full = tmp_path / "full"
        assert _score(workspace, "baseline", full) == 0
        out, alone = tmp_path / "tradeoff.csv", tmp_path / "alone.csv"
        caplog.clear()
        assert main(["tradeoff", "--run", str(empties[0]), "--run", str(full),
                     "--run", str(empties[1]), "--out", str(out)]) == 0
        assert [r.getMessage() for r in caplog.records
                if r.levelname == "WARNING"] == [
            f"tradeoff leaves out {empty}: it has no records" for empty in empties]
        assert main(["tradeoff", "--run", str(full), "--out", str(alone)]) == 0
        assert out.read_bytes() == alone.read_bytes()

    def test_model_name_with_comma_and_quote_stays_one_field(self, workspace, tmp_path):
        config = yaml.safe_load(workspace.read_text())
        config["backend"]["model"] = 'demo,"model"'
        workspace.write_text(yaml.safe_dump(config))
        run_dir = tmp_path / "b"
        assert _score(workspace, "baseline", run_dir) == 0
        out = tmp_path / "tradeoff.csv"
        assert main(["tradeoff", "--run", str(run_dir), "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert [len(row) for row in rows] == [4, 4]
        assert rows[1][:2] == ['demo,"model"', "baseline"]

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

    def test_reports_without_out_go_to_stdout_only(
        self, workspace, tmp_path, monkeypatch, capsys
    ):
        base_dir, auto_dir = tmp_path / "b", tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["case", "--run-autoscore", str(auto_dir),
                     "--run-baseline", str(base_dir), "--id", "r02",
                     "--config", str(workspace)]) == 0
        assert capsys.readouterr().out.startswith("# Case r02\n")
        assert main(["validate-components", "--run", str(auto_dir),
                     "--gold", str(workspace.parent / "gold.jsonl")]) == 0
        assert "valid_conclusion" in capsys.readouterr().out
        assert sorted(tmp_path.rglob("*")) == before

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


    def test_dataset_edited_after_the_runs_exits_3(self, workspace, tmp_path, capsys,
                                                   caplog):
        base_dir, auto_dir = tmp_path / "b", tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        tsv = workspace.parent / "data.tsv"
        text = synth_response_text("r02")
        tsv.write_text(tsv.read_text().replace(text, text + " edited"))
        code = main(["case", "--run-autoscore", str(auto_dir),
                     "--run-baseline", str(base_dir), "--id", "r02",
                     "--config", str(workspace)])
        assert code == 3
        assert "dataset_digest differs" in caplog.text
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


    def test_list_item_id_in_manifest_exits_3(self, workspace, tmp_path, caplog):
        base_dir, auto_dir = tmp_path / "b", tmp_path / "a"
        _score(workspace, "baseline", base_dir)
        _score(workspace, "autoscore", auto_dir)
        manifest_path = auto_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["item_id"] = ["synth"]
        manifest_path.write_text(json.dumps(manifest))
        code = main(["case", "--run-autoscore", str(auto_dir),
                     "--run-baseline", str(base_dir), "--id", "r02",
                     "--config", str(workspace)])
        assert code == 3
        assert f"{manifest_path} has a malformed item_id" in caplog.text


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


def _four_response_run(root: Path, fields: list, extracted: dict, gold: dict) -> Path:
    """Score four responses (gold scores 1, 2, 2, 3) in autoscore mode
    through scripted rules that extract `extracted[rid]` and score every
    response 2; write `gold` as the component annotations. Returns the run
    directory."""
    ids, scores = ["a1", "a2", "a3", "a4"], [1, 2, 2, 3]
    rows = ["Id\tEssaySet\tScore1\tScore2\tEssayText"]
    rows += [f"{rid}\t1\t{s}\t{s}\tresponse {rid} text" for rid, s in zip(ids, scores)]
    (root / "data.tsv").write_text("".join(r + "\n" for r in rows))
    rules = [{"match": [f"response {rid} text", "Identify the rubric-relevant"],
              "text": json.dumps(extracted[rid])} for rid in ids]
    rules.append({"match": "response", "text": '{"score": 2}'})
    (root / "rules.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rules))
    (root / "gold.jsonl").write_text("".join(
        json.dumps({"response_id": rid, "values": gold[rid]}) + "\n" for rid in ids))
    (root / "config.yaml").write_text(yaml.safe_dump({
        "backend": {"kind": "scripted", "model": "m", "script_path": "rules.jsonl"},
        "run": {"parallelism": 1},
        "items": {"tiny": {"family": "sas", "tsv_path": "data.tsv", "essay_set": 1,
                           "score_range": {"min": 0, "max": 3}, "question": "q",
                           "rubric_text": "r", "schema": {"fields": fields}}},
    }))
    run = root / "run"
    assert main(["score", "--config", str(root / "config.yaml"), "--item", "tiny",
                 "--out", str(run)]) == 0
    return run


OK_FIELD = {"name": "ok", "kind": "boolean"}
# gold ok: T F T F, predicted: T F F F (accuracy 3/4, f1 2/3, kappa 1/2)
OK_PRED = {"a1": True, "a2": False, "a3": False, "a4": False}
OK_GOLD = {"a1": True, "a2": False, "a3": True, "a4": False}

CONSTANT_COUNT_RELIABILITY_JSON = """\
{
  "n": 4,
  "boolean_fields": {
    "ok": {
      "accuracy": 0.75,
      "f1": 0.6666666666666666,
      "cohen_kappa": 0.5
    }
  },
  "count_fields": {
    "k": {
      "mae": 1.0,
      "rmse": 1.0,
      "pearson": null,
      "exact_match_rate": 0.0
    }
  },
  "overall_exact_match_rate": 0.0
}
"""
CONSTANT_COUNT_RELIABILITY_TXT = """\
n = 4
ok: accuracy 0.7500  f1 0.6667  kappa 0.5000
k: mae 1.0000  rmse 1.0000  pearson —  exact-match 0.0000
overall exact-match (all counts): 0.0000
"""
BOOLEAN_ONLY_RELIABILITY_JSON = """\
{
  "n": 4,
  "boolean_fields": {
    "ok": {
      "accuracy": 0.75,
      "f1": 0.6666666666666666,
      "cohen_kappa": 0.5
    }
  },
  "count_fields": {},
  "overall_exact_match_rate": 1.0
}
"""
BOOLEAN_ONLY_RELIABILITY_TXT = """\
n = 4
ok: accuracy 0.7500  f1 0.6667  kappa 0.5000
overall exact-match (all counts): 1.0000
"""
# gold 1 2 2 3 against a constant 2: no correlation is defined
CONSTANT_SCORE_METRICS_JSON = """\
{
  "label": "autoscore",
  "n": 4,
  "failures": 0,
  "accuracy": 0.5,
  "qwk": 0.0,
  "pearson": null,
  "spearman": null,
  "mae": 0.5,
  "rmse": 0.7071067811865476,
  "confusion": [
    [
      0,
      0,
      0,
      0
    ],
    [
      0,
      0,
      1,
      0
    ],
    [
      0,
      0,
      2,
      0
    ],
    [
      0,
      0,
      1,
      0
    ]
  ]
}
"""
CONSTANT_SCORE_METRICS_TXT = """\
[autoscore]
n         4
failures  0
accuracy  0.5000
qwk       0.0000
pearson   —
spearman  —
mae       0.5000
rmse      0.7071
confusion (rows = gold):
     0    0    0    0
     0    0    1    0
     0    0    2    0
     0    0    1    0
"""


class TestReportBytes:
    """The exact bytes of the report files for cells the demo never
    produces: an undefined correlation and a schema without count fields."""

    @pytest.mark.parametrize("fields,count,expected_json,expected_txt", [
        ([OK_FIELD, {"name": "k", "kind": "count"}], ({"k": 1}, {"k": 2}),
         CONSTANT_COUNT_RELIABILITY_JSON, CONSTANT_COUNT_RELIABILITY_TXT),
        ([OK_FIELD], ({}, {}), BOOLEAN_ONLY_RELIABILITY_JSON,
         BOOLEAN_ONLY_RELIABILITY_TXT),
    ], ids=["constant-count", "boolean-only"])
    def test_reliability_files(self, tmp_path, fields, count, expected_json,
                               expected_txt):
        pred, gold = count
        run = _four_response_run(
            tmp_path, fields, {rid: {"ok": v, **pred} for rid, v in OK_PRED.items()},
            {rid: {"ok": v, **gold} for rid, v in OK_GOLD.items()})
        out = tmp_path / "rel"
        assert main(["validate-components", "--run", str(run),
                     "--gold", str(tmp_path / "gold.jsonl"), "--out", str(out)]) == 0
        assert (out / "reliability.json").read_text(encoding="utf-8") == expected_json
        assert (out / "reliability.txt").read_text(encoding="utf-8") == expected_txt

    def test_metrics_files_with_undefined_correlations(self, tmp_path):
        run = _four_response_run(tmp_path, [OK_FIELD],
                                 {rid: {"ok": v} for rid, v in OK_PRED.items()},
                                 {rid: {"ok": v} for rid, v in OK_GOLD.items()})
        out = tmp_path / "reports"
        assert main(["evaluate", "--run", str(run), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["run.metrics.json",
                                                          "run.metrics.txt"]
        assert (out / "run.metrics.json").read_text(encoding="utf-8") == \
            CONSTANT_SCORE_METRICS_JSON
        assert (out / "run.metrics.txt").read_text(encoding="utf-8") == \
            CONSTANT_SCORE_METRICS_TXT


def _score_with_setting(*key, extra=()):
    """Score a baseline run with the config setting at `key` set to `wrong`."""
    def run(config_path, tmp_path, wrong):
        config = yaml.safe_load(config_path.read_text())
        _setting(*key, value=str(wrong))(config, tmp_path)
        config_path.write_text(yaml.safe_dump(config))
        return _score(config_path, "baseline", tmp_path / "run", extra)
    return run


def _validate_against_gold(config_path, tmp_path, wrong):
    assert _score(config_path, "autoscore", tmp_path / "run") == 0
    return main(["validate-components", "--run", str(tmp_path / "run"),
                 "--gold", str(wrong)])


class TestPathOfTheWrongKind:
    """A directory where a file is read, or a file where a run directory
    is, exits with its reader's code and names the path."""

    @pytest.mark.parametrize("wrong_kind,run,code", [
        ("dir", lambda config_path, tmp_path, wrong:
         _score(wrong, "baseline", tmp_path / "run"), 2),
        ("dir", _score_with_setting("items", "synth", "tsv_path"), 3),
        ("dir", _score_with_setting("backend", "script_path"), 2),
        ("dir", _score_with_setting("backend", "cache_path"), 4),
        ("dir", _score_with_setting("backend", "replay_path",
                                    extra=["--backend", "replay"]), 4),
        ("dir", _validate_against_gold, 3),
        ("file", lambda config_path, tmp_path, wrong:
         main(["evaluate", "--run", str(wrong), "--out", str(tmp_path / "reports")]), 3),
        ("file", lambda config_path, tmp_path, wrong:
         _score(config_path, "baseline", wrong, ["--resume"]), 3),
    ], ids=["config", "tsv-path", "script-path", "cache-path", "replay-path", "gold",
            "evaluate-run", "resume-out"])
    def test_input_exits_with_its_readers_code(self, workspace, tmp_path, caplog,
                                                wrong_kind, run, code):
        wrong = tmp_path / "wrong"
        if wrong_kind == "dir":
            wrong.mkdir()
        else:
            wrong.write_text("")
        assert run(workspace, tmp_path, wrong) == code
        assert f"cannot read {wrong}" in caplog.text

    @pytest.mark.parametrize("command,argv", [
        ("score", lambda config_path, a, b: ["score", "--config", str(config_path),
                                             "--item", "synth"]),
        ("evaluate", lambda config_path, a, b: ["evaluate", "--run", str(a),
                                                "--run", str(b)]),
        ("validate-components", lambda config_path, a, b: [
            "validate-components", "--run", str(a),
            "--gold", str(config_path.parent / "gold.jsonl")]),
        ("case", lambda config_path, a, b: [
            "case", "--run-autoscore", str(a), "--run-baseline", str(b),
            "--id", "r02", "--config", str(config_path)]),
        ("tradeoff", lambda config_path, a, b: ["tradeoff", "--run", str(a)]),
    ], ids=["score", "evaluate", "validate-components", "case", "tradeoff"])
    def test_out_that_cannot_be_created_exits_2(self, workspace, tmp_path, caplog,
                                                command, argv):
        auto, base = tmp_path / "a", tmp_path / "b"
        assert _score(workspace, "autoscore", auto) == 0
        assert _score(workspace, "baseline", base) == 0
        # tradeoff writes --out as a file, the others make it a directory
        out = tmp_path / "taken"
        if command == "tradeoff":
            out.mkdir()
        else:
            out.write_text("kept\n")
        assert main([*argv(workspace, auto, base), "--out", str(out)]) == 2
        assert (f"cannot make {out} a directory" if command == "score"
                else f"cannot write {out}") in caplog.text
        assert command == "tradeoff" or out.read_text() == "kept\n"
