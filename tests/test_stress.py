"""Wider-scale determinism and concurrency checks than the unit suites."""

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from autoscore.backend import CachingBackend, ChatRequest, ScriptedBackend
from autoscore.core import ScoreRange, StudentResponse, TaskContext
from autoscore.ingest import Dataset
from autoscore.pipeline import RunConfig, score_dataset
from autoscore.schema import SchemaError, compile_schema, extract_json_block

from conftest import SCIENCE_SCHEMA_DEF

N = 60
IDS = [f"s{i:03d}" for i in range(N)]


def _dataset():
    responses = tuple(
        StudentResponse(rid, f"stress response {rid} text.", i % 4)
        for i, rid in enumerate(IDS)
    )
    return Dataset(responses=responses)


def _script(request):
    blob = "\n".join(c for _, c in request.messages)
    rid = next(r for r in IDS if f"stress response {r}" in blob)
    k = int(rid[1:])
    if "Identify the rubric-relevant components" in blob:
        return json.dumps({
            "valid_conclusion": k % 2 == 0,
            "conclusions": [f"conclusion {rid}"] if k % 2 == 0 else [],
            "design_improvements": [f"fix {j} {rid}" for j in range(k % 3)],
            "validity_improvements": [],
            "design_count": k % 3,
            "validity_count": 0,
        })
    return json.dumps({"score": (k * 7) % 4})


def test_sixty_responses_deterministic_at_high_parallelism(tmp_path):
    dataset = _dataset()
    context = TaskContext(
        "stress", "Q?", "Score 3: ... Score 0: ...", ScoreRange(0, 3),
    )
    schema = compile_schema("stress", SCIENCE_SCHEMA_DEF)
    blobs = []
    for parallelism in (1, 16):
        config = RunConfig(
            mode="autoscore",
            run_dir=tmp_path / f"p{parallelism}",
            backend=ScriptedBackend(script=_script),
            context=context,
            schema=schema,
            parallelism=parallelism,
            dataset_ref="stress",
        )
        result = score_dataset(config, dataset)
        assert len(result.records) == N
        blobs.append((config.run_dir / "records.jsonl").read_bytes())
    assert blobs[0] == blobs[1]


def test_cache_under_concurrent_identical_requests(tmp_path):
    def slow(request):
        time.sleep(0.05)  # long enough for every caller to miss at once
        return "constant"

    inner = ScriptedBackend(script=slow)
    backend = CachingBackend(inner, tmp_path / "cache.jsonl")
    barrier = threading.Barrier(8, timeout=10)
    request = ChatRequest("m", (("user", "same prompt"),))

    def hit():
        barrier.wait()
        return backend.complete(request).text

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            texts = list(pool.map(lambda _: hit(), range(8), timeout=10))
    finally:
        sys.setswitchinterval(interval)
    assert set(texts) == {"constant"}
    # single-flight: the concurrent misses asked the model once
    assert inner.call_count == 1
    # the cache file holds the digest exactly once
    lines = (tmp_path / "cache.jsonl").read_text().splitlines()
    assert len(lines) == 1
    # and a fresh load serves it without touching the inner backend
    idle = ScriptedBackend(responses=[])
    reloaded = CachingBackend(idle, tmp_path / "cache.jsonl")
    assert reloaded.complete(request).from_cache
    assert idle.call_count == 0


def test_extract_json_survives_pathological_text():
    noisy = (
        "{" * 200
        + "\n prose with unicode: café, 中文, emoji \U0001f600 \n"
        + json.dumps({"payload": ["x" * 500, {"nested": {"deep": [1, 2, 3]}}]})
        + "}" * 200
    )
    block = extract_json_block(noisy)
    assert json.loads(block)["payload"][1]["nested"]["deep"] == [1, 2, 3]


def test_extract_json_rejects_nesting_too_deep_to_parse():
    deep = '{"score": ' + "[" * 100_000 + "]" * 100_000 + "}"
    with pytest.raises(SchemaError, match="too deeply"):
        extract_json_block("prose " + deep + ' then {"score": 1}')


def test_extract_json_first_object_wins_among_many():
    text = " ".join(json.dumps({"index": i}) for i in range(50))
    assert json.loads(extract_json_block(text)) == {"index": 0}


def test_max_output_tokens_flows_into_requests(tmp_path, synth_dataset,
                                               synth_context, science_schema):
    seen = []

    def spy(request):
        seen.append(request.max_output_tokens)
        from conftest import synth_script

        return synth_script(request)

    config = RunConfig(
        mode="autoscore",
        run_dir=tmp_path / "caps",
        backend=ScriptedBackend(script=spy),
        context=synth_context,
        schema=science_schema,
        max_output_tokens=777,
        dataset_ref="synth",
    )
    score_dataset(config, synth_dataset)
    assert set(seen) == {777}
