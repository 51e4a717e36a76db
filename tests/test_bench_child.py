"""The benchmark's child process (bench/child.py) builds RunConfig,
ScriptedBackend and CachingBackend itself, outside the CLI. This runs it
as bench/run.py does, on 30-response corpora from bench/gen.py, so a
change to those signatures fails here instead of in the benchmark. It
reads bench/ and writes only under the test's temporary directory: the
bench modules are loaded, and the children run, without writing
bytecode."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
N = 30
SEED = 1


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


gen = _bench_module("gen")
check = _bench_module("check")


def _child(spec: dict) -> dict:
    """Run one child; on success, its result file."""
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env.update(AUTOSCORE_API_KEY="test-key", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-B", str(BENCH / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    if spec.get("prep"):
        return {}
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def _workload(work: Path, family: str, backend: dict, imputation: str):
    """The corpus's expected outcomes, and its TSV, script and config."""
    corpus = gen.build_corpus(SEED, family, N)
    tsv, script, config = (work / f"{family}.tsv", work / f"{family}-script.json",
                           work / f"{family}-config.json")
    gen.write_tsv(tsv, family, corpus)
    gen.write_json(script, corpus, "script")
    gen.write_config(config, family, tsv, backend, imputation, SEED)
    return {c["id"]: c["expected"] for c in corpus}, script, config


def _measured(work: Path, name: str, config: Path, family: str, mode: str,
              traced: bool, **extra) -> tuple[Path, dict]:
    run_dir = work / name
    spec = {"config": str(config), "item": family, "mode": mode,
            "run_dir": str(run_dir), "result": str(work / f"{name}.json"), **extra}
    if traced:
        spec["spans"] = str(work / f"{name}.spans.jsonl")
    return run_dir, _child(spec)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_sas_autoscore_child_scores_every_response_as_expected(tmp_path, traced):
    expected, script, config = _workload(tmp_path, "sas", {"kind": "scripted"}, "fail")
    run_dir, result = _measured(tmp_path, "sas", config, "sas", "autoscore", traced,
                                script=str(script))
    assert check.mismatched(run_dir, expected, "autoscore") == []
    assert result["backend_calls"] == check.expected_model_calls(expected, "autoscore")


def test_aes_baseline_child_answers_from_the_warm_cache(tmp_path):
    cache = tmp_path / "cache.jsonl"
    # nothing listens on the discard port: a request that missed the cache
    # would fail and show as a mismatched response
    backend = {"kind": "remote", "base_url": "http://127.0.0.1:9",
               "max_in_flight": 2, "timeout_s": 30, "cache_path": str(cache)}
    expected, script, config = _workload(tmp_path, "aes", backend, "floor")
    _child({"prep": True, "config": str(config), "item": "aes", "script": str(script),
            "cache": str(cache), "run_dir": str(tmp_path / "prep")})
    for traced in (False, True):
        name = f"aes-{'traced' if traced else 'untraced'}"
        run_dir, result = _measured(tmp_path, name, config, "aes", "baseline", traced,
                                    fsync=False)
        assert check.mismatched(run_dir, expected, "baseline") == []
        assert result["backend_calls"] == check.expected_model_calls(expected, "baseline")
