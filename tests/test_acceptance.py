"""Acceptance gate: one test per criterion, each reporting a PASS/FAIL line
in the terminal summary.

Criterion 2 is expected to stay red on exactly one of its 72 entries: the
Biology/LLaMA-3.1-70B spearman delta printed as +10.39% cannot be derived
from the printed three-decimal values 0.517 -> 0.570 (which give +10.25%)
under any percentage convention; the remaining 71 entries reproduce within
the stated ±0.02 points. The assertion is kept as stated rather than
special-cased.
"""

from __future__ import annotations

import contextlib
import json
import random
import threading
import time
from pathlib import Path

import pytest

import oracles
from conftest import (
    ACCEPTANCE_LINES,
    SYNTH_GOLD,
    SYNTH_IDS,
    SYNTH_PRED,
    synth_script,
)

from autoscore import agents
from autoscore.backend import (
    CachingBackend,
    ChatRequest,
    RemoteBackend,
    ScriptedBackend,
)
from autoscore.core import ScoreRange, StudentResponse
from autoscore.ingest import sample_ids, sample_size
from autoscore.metrics import (
    MetricsReport,
    PairedScores,
    ZeroVariance,
    accuracy,
    cohen_kappa_binary,
    evaluate_run,
    f1_binary,
    mae,
    pearson,
    qwk,
    rmse,
    spearman,
)
from autoscore.pipeline import RunConfig, resume, score_dataset
from autoscore.report import delta_percent, round2

DATA_DIR = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException as exc:
        reason = str(exc).strip().splitlines()[0][:140] if str(exc) else type(exc).__name__
        ACCEPTANCE_LINES.append(
            f"ACCEPTANCE {number} ({description}): FAIL [{reason}]"
        )
        raise
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number} ({description}): PASS")


# --------------------------------------------------------------------------
# 1. metric-oracle equivalence on 1,000 random instances
# --------------------------------------------------------------------------

def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric-oracle equivalence, 1000 instances, <10 s"):
        rng = random.Random(20240817)
        started = time.perf_counter()
        tolerance = 1e-12
        for _ in range(1000):
            n = rng.randint(1, 50)
            lo = rng.randint(0, 3)
            k = rng.randint(2, 7)
            hi = lo + k - 1
            gold = [rng.randint(lo, hi) for _ in range(n)]
            pred = [rng.randint(lo, hi) for _ in range(n)]
            p = PairedScores(tuple(gold), tuple(pred), ScoreRange(lo, hi))

            assert abs(accuracy(p) - oracles.oracle_accuracy(gold, pred)) <= tolerance
            assert abs(qwk(p) - oracles.oracle_qwk(gold, pred, lo, hi)) <= tolerance
            assert abs(mae(p) - oracles.oracle_mae(gold, pred)) <= tolerance
            assert abs(rmse(p) - oracles.oracle_rmse(gold, pred)) <= tolerance

            expected_pearson = oracles.oracle_pearson(gold, pred)
            try:
                got_pearson = pearson(p)
            except ZeroVariance:
                got_pearson = None
            if expected_pearson is None or got_pearson is None:
                assert expected_pearson is None and got_pearson is None
            else:
                assert abs(got_pearson - expected_pearson) <= tolerance

            expected_spearman = oracles.oracle_spearman(gold, pred)
            try:
                got_spearman = spearman(p)
            except ZeroVariance:
                got_spearman = None
            if expected_spearman is None or got_spearman is None:
                assert expected_spearman is None and got_spearman is None
            else:
                assert abs(got_spearman - expected_spearman) <= tolerance

            bools_gold = [rng.random() < 0.5 for _ in range(n)]
            bools_pred = [rng.random() < 0.5 for _ in range(n)]
            assert abs(
                cohen_kappa_binary(bools_gold, bools_pred)
                - oracles.oracle_cohen_kappa(bools_gold, bools_pred)
            ) <= tolerance
            assert abs(
                f1_binary(bools_gold, bools_pred)
                - oracles.oracle_f1(bools_gold, bools_pred)
            ) <= tolerance
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f} s"


# --------------------------------------------------------------------------
# 2. printed comparison-table delta reproduction
# --------------------------------------------------------------------------

def test_criterion_2_printed_delta_reproduction():
    with criterion(2, "printed comparison deltas within ±0.02 points"):
        fixture = json.loads((DATA_DIR / "comparison_reference.json").read_text())
        spot = {
            ("Science subset", "GPT-4o", "qwk"): 2.28,
            ("Science subset", "LLaMA-3.1-8B-Instruct", "qwk"): 74.00,
            ("Science subset", "GPT-4o", "mae"): -7.31,
        }
        mismatches = []
        for row in fixture["rows"]:
            for metric, cells in row["metrics"].items():
                computed = round2(
                    delta_percent(cells["baseline"], cells["autoscore"])
                )
                key = (row["dataset"], row["model"], metric)
                if key in spot:
                    assert abs(computed - spot[key]) <= 0.02
                if abs(computed - cells["printed_delta"]) > 0.02:
                    mismatches.append(
                        f"{key}: printed {cells['printed_delta']:+.2f} "
                        f"computed {computed:+.2f}"
                    )
        assert not mismatches, "; ".join(mismatches)


# --------------------------------------------------------------------------
# 3. end-to-end determinism and exact precomputed metrics
# --------------------------------------------------------------------------

# frozen before implementation from the exact-arithmetic oracle over the
# fixture's (gold, pred) pairs; integer moments shown for hand checking:
#   matches=9 L1=3 SSE=3; qwk: A=3 B=332 -> 1 - 36/332
#   pearson: num=148 vx=152 vy=179 -> 148/sqrt(152*179)
#   spearman (doubled average ranks): num=5784 vx=vy=6408 -> 5784/6408
EXPECTED_SYNTH_REPORT = MetricsReport(
    n=12,
    accuracy=0.75,
    qwk=0.891566265060241,
    pearson=0.8972498738242453,
    spearman=0.9026217228464419,
    mae=0.25,
    rmse=0.5,
    confusion=(
        (2, 0, 0, 0),
        (1, 1, 1, 0),
        (0, 1, 3, 0),
        (0, 0, 0, 3),
    ),
    failures=0,
    label="autoscore",
)


class _InterruptAfter:
    def __init__(self, inner, after_calls):
        self.inner = inner
        self.model_name = inner.model_name
        self.after_calls = after_calls
        self._calls = 0
        self._lock = threading.Lock()

    @property
    def identity(self):
        return self.inner.identity

    def complete(self, request):
        with self._lock:
            self._calls += 1
            if self._calls > self.after_calls:
                raise RuntimeError("simulated interrupt")
        return self.inner.complete(request)


def test_criterion_3_end_to_end_determinism(
    tmp_path, synth_dataset, synth_context, science_schema,
    scripted_backend_factory,
):
    with criterion(3, "deterministic records across parallelism and resume"):
        def run(name, backend, parallelism):
            config = RunConfig(
                mode="autoscore",
                run_dir=tmp_path / name,
                backend=backend,
                context=synth_context,
                schema=science_schema,
                parallelism=parallelism,
                dataset_ref="synth",
            )
            result = score_dataset(config, synth_dataset)
            return config, result

        blobs = {}
        result_p1 = None
        for parallelism in (1, 4, 8):
            config, result = run(
                f"p{parallelism}", scripted_backend_factory(), parallelism
            )
            blobs[parallelism] = (config.run_dir / "records.jsonl").read_bytes()
            if parallelism == 1:
                result_p1 = result
        assert blobs[1] == blobs[4] == blobs[8]

        interrupted = RunConfig(
            mode="autoscore",
            run_dir=tmp_path / "interrupted",
            backend=_InterruptAfter(scripted_backend_factory(), after_calls=9),
            context=synth_context,
            schema=science_schema,
            parallelism=4,
            dataset_ref="synth",
        )
        with pytest.raises(RuntimeError):
            score_dataset(interrupted, synth_dataset)
        partial = (interrupted.run_dir / "records.jsonl").read_bytes()
        assert blobs[1].startswith(partial)

        resumed = RunConfig(
            mode="autoscore",
            run_dir=interrupted.run_dir,
            backend=scripted_backend_factory(),
            context=synth_context,
            schema=science_schema,
            parallelism=4,
            dataset_ref="synth",
        )
        resume(resumed, synth_dataset)
        assert (interrupted.run_dir / "records.jsonl").read_bytes() == blobs[1]

        report = evaluate_run(result_p1)
        assert report == EXPECTED_SYNTH_REPORT


# --------------------------------------------------------------------------
# 4. ablation purity: no schema text in baseline prompts
# --------------------------------------------------------------------------

class _RecordingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.prompts: list[str] = []
        self._lock = threading.Lock()

    @property
    def identity(self):
        return self.inner.identity

    def complete(self, request):
        with self._lock:
            self.prompts.extend(content for _, content in request.messages)
        return self.inner.complete(request)


def test_criterion_4_ablation_purity(
    tmp_path, synth_dataset, synth_context, science_schema,
    scripted_backend_factory,
):
    with criterion(4, "baseline prompts carry no component-schema text"):
        schema_markers = [f.name for f in science_schema.fields] + [
            f.description for f in science_schema.fields if f.description
        ]

        baseline_recorder = _RecordingBackend(scripted_backend_factory())
        config = RunConfig(
            mode="baseline",
            run_dir=tmp_path / "baseline",
            backend=baseline_recorder,
            context=synth_context,
            dataset_ref="synth",
        )
        result = score_dataset(config, synth_dataset)
        assert len(result.records) == 12
        baseline_blob = "\n".join(baseline_recorder.prompts)
        for marker in schema_markers:
            assert marker not in baseline_blob

        # sanity: the same scan does fire on autoscore prompts
        auto_recorder = _RecordingBackend(scripted_backend_factory())
        auto_config = RunConfig(
            mode="autoscore",
            run_dir=tmp_path / "autoscore",
            backend=auto_recorder,
            context=synth_context,
            schema=science_schema,
            dataset_ref="synth",
        )
        score_dataset(auto_config, synth_dataset)
        auto_blob = "\n".join(auto_recorder.prompts)
        assert all(marker in auto_blob for marker in schema_markers)


# --------------------------------------------------------------------------
# 5. reliability report against a hand-computed fixture
# --------------------------------------------------------------------------

def test_criterion_5_reliability_report():
    with criterion(5, "reliability report matches hand-computed statistics"):
        import math

        from test_metrics import SCIENCE, _reliability_fixture

        predicted, gold = _reliability_fixture()
        from autoscore.metrics import validate_components

        report = validate_components(predicted, gold, SCIENCE)
        b = report["boolean_fields"]["valid_conclusion"]
        assert b["accuracy"] == 0.9
        assert b["f1"] == 10 / 11
        assert b["cohen_kappa"] == 0.8
        d = report["count_fields"]["design_count"]
        assert (d["mae"], d["rmse"]) == (0.3, math.sqrt(3 / 10))
        assert d["pearson"] == 40 / math.sqrt(49 * 60)
        assert d["exact_match_rate"] == 0.7
        v = report["count_fields"]["validity_count"]
        assert (v["mae"], v["rmse"]) == (0.1, math.sqrt(1 / 10))
        assert v["pearson"] == 38 / math.sqrt(44 * 41)
        assert v["exact_match_rate"] == 0.9
        assert report["overall_exact_match_rate"] == 0.6

        # every reliability quantity is exposed as a named field
        data = report
        assert set(data["boolean_fields"]["valid_conclusion"]) == {
            "accuracy", "f1", "cohen_kappa",
        }
        for name in ("design_count", "validity_count"):
            assert set(data["count_fields"][name]) == {
                "mae", "rmse", "pearson", "exact_match_rate",
            }
        assert "overall_exact_match_rate" in data


# --------------------------------------------------------------------------
# 6. sampling fidelity
# --------------------------------------------------------------------------

def test_criterion_6_sampling_fidelity():
    with criterion(6, "20% samples are 258/1290 and 370/1850, seeded"):
        science_ids = [f"s{i:05d}" for i in range(1290)]
        biology_ids = [f"b{i:05d}" for i in range(1850)]
        assert sample_size(1290, 0.2) == 258
        assert sample_size(1850, 0.2) == 370
        chosen_science = sample_ids(science_ids, 0.2, seed=4)
        chosen_biology = sample_ids(biology_ids, 0.2, seed=4)
        assert len(chosen_science) == 258
        assert len(chosen_biology) == 370
        assert chosen_science == sample_ids(science_ids, 0.2, seed=4)
        assert chosen_biology == sample_ids(biology_ids, 0.2, seed=4)
        assert chosen_science != sample_ids(science_ids, 0.2, seed=5)


# --------------------------------------------------------------------------
# 7. robust parsing of malformed agent output
# --------------------------------------------------------------------------

REPAIRABLE_SCORE_OUTPUTS = [
    ('```json\n{"score": 2}\n```', 2),
    ('Here is my assessment: {"score": 1} hope that helps', 1),
    ('{"score": 3} strictly per the rubric', 3),
    ('The formula {x} maps to {"score": 0}', 0),
    ('```JSON\r\n{"score": 2}\r\n```', 2),
]

UNPARSEABLE_SCORE_OUTPUTS = [
    '{"score": "two"}',       # wrong type
    '{"score": 2.5}',         # non-integer
    '{"score": 9}',           # out of range (0..3)
    "I cannot provide a score.",
    '{"score": ',             # truncated
    "{'score': 2}",           # single quotes: no speculative repair
    '{"points": 2}',          # missing key
    '{"score": true}',        # boolean
]


def test_criterion_7_robust_parsing(synth_context, science_schema):
    with criterion(7, "malformed-output corpus handled per contract"):
        response = StudentResponse(
            "r01", "synthetic response r01: repeat trials."
        )

        for raw, expected in REPAIRABLE_SCORE_OUTPUTS:
            backend = ScriptedBackend(responses=[raw])
            outcome = agents.run_baseline(backend, synth_context, response)
            assert outcome.value == expected
            assert outcome.retries == 0

        for raw in UNPARSEABLE_SCORE_OUTPUTS:
            # bad thrice: retries exhaust into a typed failure, never a crash
            backend = ScriptedBackend(responses=[raw] * 3)
            with pytest.raises(agents.ScoringFailed):
                agents.run_baseline(backend, synth_context, response)
            # bad once then clean: one retry and a valid score
            backend = ScriptedBackend(responses=[raw, '{"score": 2}'])
            outcome = agents.run_baseline(backend, synth_context, response)
            assert outcome.value == 2
            assert outcome.retries == 1

        # extraction side: a wrong declared count is repaired by
        # normalization (no retry); a string boolean needs one
        from conftest import z_payload

        z_bad_count = dict(z_payload("r01"), design_count=7)
        backend = ScriptedBackend(responses=[json.dumps(z_bad_count)])
        outcome = agents.run_extraction(
            backend, synth_context, response, science_schema
        )
        assert outcome.retries == 0
        assert outcome.value.inconsistency_flags == ("design_count",)

        z_bad_bool = dict(z_payload("r01"), valid_conclusion="yes")
        backend = ScriptedBackend(
            responses=[json.dumps(z_bad_bool), json.dumps(z_payload("r01"))]
        )
        outcome = agents.run_extraction(
            backend, synth_context, response, science_schema
        )
        assert outcome.retries == 1


def test_criterion_7_pipeline_records_failures(
    tmp_path, synth_dataset, synth_context, science_schema,
):
    with criterion(7.1, "exhausted retries become recorded failures"):
        def mostly_good(request):
            blob = "\n".join(c for _, c in request.messages)
            if "synthetic response r06" in blob:
                return "no json for you"
            return synth_script(request)

        config = RunConfig(
            mode="autoscore",
            run_dir=tmp_path / "with-failure",
            backend=ScriptedBackend(script=mostly_good),
            context=synth_context,
            schema=science_schema,
            parallelism=3,
            dataset_ref="synth",
        )
        result = score_dataset(config, synth_dataset)
        assert len(result.records) == 11
        assert [rid for rid, _ in result.failures] == ["r06"]
        assert "ExtractionFailed" in result.failures[0][1]


# --------------------------------------------------------------------------
# 8. warm cache means zero network calls
# --------------------------------------------------------------------------

class _CountingTransport:
    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, url, headers, body, timeout_s):
        with self._lock:
            self.calls += 1
        return 200, json.dumps(
            {"choices": [{"message": {"content": '{"score": 1}'}}]}
        )


def test_criterion_8_warm_cache_zero_network_calls(
    tmp_path, synth_dataset, synth_context,
):
    with criterion(8, "second cached run issues zero HTTP calls"):
        transport = _CountingTransport()
        cache_path = tmp_path / "cache.jsonl"

        def run(name):
            remote = RemoteBackend(
                base_url="https://api.example/v1",
                model_name="gpt-4o",
                api_key="test-key",
                transport=transport,
            )
            config = RunConfig(
                mode="baseline",
                run_dir=tmp_path / name,
                backend=CachingBackend(remote, cache_path),
                context=synth_context,
                parallelism=4,
                dataset_ref="synth",
            )
            return score_dataset(config, synth_dataset)

        first = run("cold")
        assert transport.calls == 12
        second = run("warm")
        assert transport.calls == 12, "warm run must not touch the network"
        assert [r.predicted_score for r in first.records] == [
            r.predicted_score for r in second.records
        ]
        # cache hits report zero latency, so the warm run's wall time is zero
        assert all(r.wall_time_ms == 0 for r in second.records)
