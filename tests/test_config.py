import json

import pytest
import yaml

from autoscore.backend import CachingBackend, ScriptedBackend
from autoscore.config import ConfigError, build_backend, load_config

from conftest import RUBRIC_TEXT, SCIENCE_SCHEMA_DEF, z_payload


def _config_dict(**overrides):
    base = {
        "backend": {
            "kind": "scripted",
            "model": "m",
            "script_path": "rules.jsonl",
        },
        "run": {"parallelism": 2},
        "items": {
            "synth": {
                "family": "sas",
                "tsv_path": "data.tsv",
                "essay_set": 1,
                "score_range": {"min": 0, "max": 3},
                "question": "Q?",
                "rubric_text": RUBRIC_TEXT,
                "schema": SCIENCE_SCHEMA_DEF,
            }
        },
    }
    base.update(overrides)
    return base


def _write(tmp_path, config):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config), encoding="utf-8")
    (tmp_path / "rules.jsonl").write_text('{"match": "x", "text": "y"}\n')
    return path


def test_item_resolution(tmp_path):
    config = load_config(_write(tmp_path, _config_dict()))
    item = config.item("synth")
    assert item.context.question == "Q?"
    assert item.schema is not None
    assert item.dataset_spec.essay_set == 1
    # relative tsv paths resolve against the config directory
    assert item.dataset_spec.tsv_path == str(tmp_path / "data.tsv")


def test_unknown_item_errors(tmp_path):
    config = load_config(_write(tmp_path, _config_dict()))
    with pytest.raises(ConfigError):
        config.item("nope")


def test_missing_required_key(tmp_path):
    broken = _config_dict()
    del broken["items"]["synth"]["rubric_text"]
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, broken))


def test_invalid_yaml(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("items: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.yaml")


def test_template_override_from_file(tmp_path):
    config_dict = _config_dict()
    config_dict["items"]["synth"]["templates"] = {
        "baseline_user": "baseline_user.txt",
    }
    (tmp_path / "baseline_user.txt").write_text(
        "Custom instructions.\n{question}\n{response}\n"
        '{score_min}..{score_max} -> {"score": <integer>}\n'
    )
    config = load_config(_write(tmp_path, config_dict))
    templates = config.item("synth").templates
    assert templates["baseline"].user_text.startswith("Custom instructions.")
    # untouched templates keep the shipped defaults
    from autoscore.agents import STAGES

    assert templates["scoring"].user_text == STAGES["scoring"].template.user_text


def test_unknown_template_key_is_a_config_error(tmp_path):
    config_dict = _config_dict()
    config_dict["items"]["synth"]["templates"] = {"baseline_usr": "b.txt"}
    with pytest.raises(ConfigError) as excinfo:
        load_config(_write(tmp_path, config_dict))
    message = str(excinfo.value)
    assert "'baseline_usr'" in message
    for stage in ("extraction", "scoring", "baseline"):
        assert f"{stage}_system" in message and f"{stage}_user" in message


def test_missing_template_file_is_a_config_error(tmp_path):
    config_dict = _config_dict()
    config_dict["items"]["synth"]["templates"] = {"scoring_user": "missing.txt"}
    with pytest.raises(ConfigError) as excinfo:
        load_config(_write(tmp_path, config_dict))
    message = str(excinfo.value)
    assert "items.synth.templates.scoring_user" in message
    assert "missing.txt" in message


@pytest.mark.parametrize("stage", ["extraction", "scoring", "baseline"])
def test_overridden_template_drives_the_agent(tmp_path, stage):
    from autoscore import agents
    from autoscore.core import StudentResponse
    from autoscore.schema import StructuredRepresentation

    config_dict = _config_dict()
    config_dict["items"]["synth"]["templates"] = {
        f"{stage}_user": "override_user.txt",
    }
    (tmp_path / "override_user.txt").write_text(
        "OVERRIDE MARKER {response} range {score_min}-{score_max}\n"
    )
    config = load_config(_write(tmp_path, config_dict))
    item = config.item("synth")
    stage_input = {
        "extraction": item.schema,
        "scoring": StructuredRepresentation("synth", z_payload("r01")),
        "baseline": None,
    }[stage]
    seen = []

    def script(request):
        seen.append("\n".join(c for _, c in request.messages))
        # one reply every stage accepts: extraction drops the extra key
        return json.dumps({**z_payload("r01"), "score": 1})

    getattr(agents, f"run_{stage}")(
        ScriptedBackend(script=script),
        item.context,
        StudentResponse("r1", "some answer"),
        stage_input,
        template=item.templates[stage],
    )
    assert "OVERRIDE MARKER some answer range 0-3" in seen[0]
    assert len(seen) == 1


def test_build_backend_scripted(tmp_path):
    config = load_config(_write(tmp_path, _config_dict()))
    backend = build_backend(config)
    assert isinstance(backend, ScriptedBackend)
    assert backend.identity == "scripted:m"


def test_build_backend_cache_wrap(tmp_path):
    config_dict = _config_dict()
    config_dict["backend"]["cache_path"] = "cache.jsonl"
    config = load_config(_write(tmp_path, config_dict))
    backend = build_backend(config)
    assert isinstance(backend, CachingBackend)
    assert backend.identity == "scripted:m"


def test_build_backend_replay_ignores_cache_path(tmp_path):
    from autoscore.backend import ChatRequest, request_digest

    request = ChatRequest("m", (("user", "hello"),))
    entry = {"digest": request_digest(request), "text": "recorded",
             "latency_ms": 250}
    (tmp_path / "fixture.jsonl").write_text(json.dumps(entry) + "\n")
    config_dict = _config_dict()
    config_dict["backend"].update(
        kind="replay", replay_path="fixture.jsonl", cache_path="cache.jsonl")
    backend = build_backend(load_config(_write(tmp_path, config_dict)))
    for _ in range(2):
        response = backend.complete(request)
        assert (response.text, response.latency_ms, response.from_cache) == (
            "recorded", 250, False)
    assert not (tmp_path / "cache.jsonl").exists()


def test_build_backend_unknown_kind(tmp_path):
    config = load_config(_write(tmp_path, _config_dict()))
    with pytest.raises(ConfigError):
        build_backend(config, "quantum")


def test_build_backend_remote(tmp_path, monkeypatch):
    from autoscore.backend import RemoteBackend

    monkeypatch.setenv("AUTOSCORE_API_KEY", "k")
    config_dict = _config_dict()
    config_dict["backend"] = {
        "kind": "remote",
        "model": "gpt-4o",
        "base_url": "https://api.example/v1",
        "timeout_s": 30,
        "max_in_flight": 2,
    }
    backend = build_backend(load_config(_write(tmp_path, config_dict)))
    assert isinstance(backend, RemoteBackend)
    assert backend.identity == "remote:https://api.example/v1:gpt-4o"


def test_build_backend_remote_without_key(tmp_path, monkeypatch):
    from autoscore.backend import BackendUnavailable

    monkeypatch.delenv("AUTOSCORE_API_KEY", raising=False)
    config_dict = _config_dict()
    config_dict["backend"] = {
        "kind": "remote",
        "model": "gpt-4o",
        "base_url": "https://api.example/v1",
    }
    with pytest.raises(BackendUnavailable):
        build_backend(load_config(_write(tmp_path, config_dict)))
