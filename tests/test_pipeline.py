import json
import logging
import os
import re
import sys
import threading
import types

import pytest

from autoscore.backend import CachingBackend, ScriptedBackend
from autoscore.core import StudentResponse
from autoscore.ingest import Dataset
from autoscore.pipeline import (
    ManifestMismatch,
    RunConfig,
    RunDirConflict,
    load_run,
    resume,
    score_dataset,
)

from conftest import SYNTH_GOLD, SYNTH_IDS, SYNTH_PRED, synth_script, z_payload


def make_config(tmp_path, backend, mode="autoscore", schema=None, context=None,
                parallelism=1, name="run"):
    return RunConfig(
        mode=mode,
        run_dir=tmp_path / name,
        backend=backend,
        context=context,
        schema=schema,
        parallelism=parallelism,
        dataset_ref="synth",
    )


class TestScoreDataset:
    def test_scripted_run_produces_expected_records(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend,
    ):
        config = make_config(
            tmp_path, scripted_backend, schema=science_schema,
            context=synth_context,
        )
        result = score_dataset(config, synth_dataset)
        assert [r.response_id for r in result.records] == SYNTH_IDS
        assert not result.failures
        for record in result.records:
            assert record.predicted_score == SYNTH_PRED[record.response_id]
            assert record.gold_score == SYNTH_GOLD[record.response_id]
            assert record.mode == "autoscore"
            assert record.representation is not None
            # two agent calls at 1 ms scripted latency each
            assert record.wall_time_ms == 2
            agents_seen = [t.agent_name for t in record.transcripts]
            assert agents_seen == ["extraction", "scoring"]
        # r04's scripted extraction declares a wrong count
        r04 = result.records[3]
        assert r04.representation.inconsistency_flags == ("design_count",)

    def test_baseline_run_has_no_representations(
        self, tmp_path, synth_dataset, synth_context, scripted_backend,
    ):
        config = make_config(
            tmp_path, scripted_backend, mode="baseline", context=synth_context,
        )
        result = score_dataset(config, synth_dataset)
        assert all(r.representation is None for r in result.records)
        assert all(r.wall_time_ms == 1 for r in result.records)
        assert scripted_backend.call_count == 12

    def test_records_jsonl_identical_across_parallelism(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        blobs = {}
        for parallelism in (1, 4, 8):
            config = make_config(
                tmp_path, scripted_backend_factory(), schema=science_schema,
                context=synth_context, parallelism=parallelism,
                name=f"run-p{parallelism}",
            )
            score_dataset(config, synth_dataset)
            blobs[parallelism] = (
                config.run_dir / "records.jsonl"
            ).read_bytes()
        assert blobs[1] == blobs[4] == blobs[8]

    def test_conservation_with_backend_misses(
        self, tmp_path, synth_dataset, synth_context, science_schema,
    ):
        # replay store authored from a full scripted run, then one response's
        # fixture lines removed
        cache_path = tmp_path / "cache.jsonl"
        recorder = CachingBackend(
            ScriptedBackend(script=synth_script, model_name="synth-model"),
            cache_path,
        )
        config = make_config(
            tmp_path, recorder, schema=science_schema, context=synth_context,
            name="record-run",
        )
        score_dataset(config, synth_dataset)

        kept = [
            line
            for line in cache_path.read_text().splitlines()
            if "r07" not in line  # drops r07's extraction (Z embeds the id)
        ]
        fixture = tmp_path / "fixture.jsonl"
        fixture.write_text("".join(line + "\n" for line in kept))

        replay = CachingBackend(None, fixture, "synth-model")
        config2 = make_config(
            tmp_path, replay, schema=science_schema, context=synth_context,
            name="replay-run",
        )
        result = score_dataset(config2, synth_dataset)
        assert len(result.records) == 11
        assert len(result.failures) == 1
        assert result.failures[0][0] == "r07"
        assert "ReplayMiss" in result.failures[0][1]

    def test_deeply_nested_reply_is_reprompted(
        self, tmp_path, synth_dataset, synth_context,
    ):
        deep = '{"score": ' + "[" * 100_000 + "]" * 100_000 + "}"

        def deep_first(request):
            blob = "\n".join(c for _, c in request.messages)
            if len(request.messages) == 2 and "synthetic response r02" in blob:
                return deep
            return synth_script(request)

        config = make_config(
            tmp_path, ScriptedBackend(script=deep_first), mode="baseline",
            context=synth_context,
        )
        result = score_dataset(config, synth_dataset)
        assert not result.failures
        r02 = result.records[1]
        assert (r02.response_id, r02.retries) == ("r02", 1)
        assert r02.predicted_score == SYNTH_PRED["r02"]
        assert r02.transcripts[0].raw_output == deep

    def test_refuses_to_overwrite_existing_run(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        config = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        with pytest.raises(RunDirConflict):
            score_dataset(config, synth_dataset)

    def test_per_record_failures_are_not_fatal(
        self, tmp_path, synth_dataset, synth_context, science_schema,
    ):
        def flaky(request):
            blob = "\n".join(c for _, c in request.messages)
            if "synthetic response r03" in blob:
                return "I refuse to answer."
            return synth_script(request)

        config = make_config(
            tmp_path, ScriptedBackend(script=flaky), schema=science_schema,
            context=synth_context,
        )
        result = score_dataset(config, synth_dataset)
        assert len(result.records) == 11
        assert [rid for rid, _ in result.failures] == ["r03"]
        assert "ExtractionFailed" in result.failures[0][1]


class TestFloorImputation:
    def _flaky_scoring(self, request):
        blob = "\n".join(c for _, c in request.messages)
        if (
            "synthetic response r02" in blob
            and "Identify the rubric-relevant components" not in blob
        ):
            return "no score from me"
        return synth_script(request)

    def test_floor_imputes_minimum_score_on_scoring_failure(
        self, tmp_path, synth_dataset, synth_context, science_schema,
    ):
        config = make_config(
            tmp_path, ScriptedBackend(script=self._flaky_scoring),
            schema=science_schema, context=synth_context,
        )
        config.imputation = "floor"
        result = score_dataset(config, synth_dataset)
        assert not result.failures
        r02 = next(r for r in result.records if r.response_id == "r02")
        assert r02.predicted_score == 0  # the rubric floor
        assert r02.representation is not None
        # 1 extraction call + 3 exhausted scoring attempts, all on record
        assert [t.agent_name for t in r02.transcripts] == [
            "extraction", "scoring", "scoring", "scoring",
        ]
        assert r02.retries == 2
        assert r02.wall_time_ms == 4

    def test_fail_policy_records_failure_for_same_backend(
        self, tmp_path, synth_dataset, synth_context, science_schema,
    ):
        config = make_config(
            tmp_path, ScriptedBackend(script=self._flaky_scoring),
            schema=science_schema, context=synth_context, name="failrun",
        )
        result = score_dataset(config, synth_dataset)
        assert [rid for rid, _ in result.failures] == ["r02"]
        assert (config.run_dir / "failures.jsonl").read_text() == (
            '{"response_id": "r02", "error": "ScoringFailed: gave up after 3 '
            'attempts: no balanced JSON object found in model output"}\n'
        )

    def test_floor_record_keeps_every_attempt_of_both_stages(
        self, tmp_path, synth_dataset, synth_context, science_schema,
    ):
        def retry_both(request):
            blob = "\n".join(c for _, c in request.messages)
            extracting = "Identify the rubric-relevant components" in blob
            if "synthetic response r02" in blob and (
                    not extracting or len(request.messages) == 2):
                return f"prose {len(request.messages)}"
            return synth_script(request)

        config = make_config(
            tmp_path, ScriptedBackend(script=retry_both),
            schema=science_schema, context=synth_context,
        )
        config.imputation = "floor"
        score_dataset(config, synth_dataset)
        line = (config.run_dir / "records.jsonl").read_text().splitlines()[1]
        r02 = json.loads(line)
        assert (r02["predicted_score"], r02["retries"], r02["wall_time_ms"]) == (
            0, 3, 5)
        assert [(t["agent_name"], t["raw_output"]) for t in r02["transcripts"]] == [
            ("extraction", "prose 2"),
            ("extraction", json.dumps(z_payload("r02"))),
            ("scoring", "prose 2"),
            ("scoring", "prose 3"),
            ("scoring", "prose 4"),
        ]
        assert len({t["prompt_digest"] for t in r02["transcripts"]}) == 5

    def test_floor_never_rescues_extraction_failures(
        self, tmp_path, synth_dataset, synth_context, science_schema,
    ):
        def broken_extraction(request):
            blob = "\n".join(c for _, c in request.messages)
            if (
                "synthetic response r05" in blob
                and "Identify the rubric-relevant components" in blob
            ):
                return "not a representation"
            return synth_script(request)

        config = make_config(
            tmp_path, ScriptedBackend(script=broken_extraction),
            schema=science_schema, context=synth_context, name="extr",
        )
        config.imputation = "floor"
        result = score_dataset(config, synth_dataset)
        assert [rid for rid, _ in result.failures] == ["r05"]

    def test_floor_in_baseline_mode(
        self, tmp_path, synth_dataset, synth_context,
    ):
        def refuse_r09(request):
            blob = "\n".join(c for _, c in request.messages)
            if "synthetic response r09" in blob:
                return "nope"
            return synth_script(request)

        config = make_config(
            tmp_path, ScriptedBackend(script=refuse_r09),
            mode="baseline", context=synth_context, name="basefloor",
        )
        config.imputation = "floor"
        result = score_dataset(config, synth_dataset)
        assert not result.failures
        r09 = next(r for r in result.records if r.response_id == "r09")
        assert r09.predicted_score == 0
        assert r09.representation is None
        assert r09.retries == 2


class _InterruptAfter:
    """Wraps a backend; raises a non-domain error from the nth call on."""

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
                raise KeyboardInterrupt("simulated interrupt")
        return self.inner.complete(request)


class TestResume:
    def _uninterrupted(self, tmp_path, dataset, context, schema, factory):
        config = make_config(
            tmp_path, factory(), schema=schema, context=context, name="full",
        )
        score_dataset(config, dataset)
        return (config.run_dir / "records.jsonl").read_bytes()

    def test_interrupt_then_resume_matches_uninterrupted(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        expected = self._uninterrupted(
            tmp_path, synth_dataset, synth_context, science_schema,
            scripted_backend_factory,
        )
        interrupting = _InterruptAfter(scripted_backend_factory(), after_calls=10)
        config = make_config(
            tmp_path, interrupting, schema=science_schema,
            context=synth_context, parallelism=2, name="interrupted",
        )
        with pytest.raises(KeyboardInterrupt):
            score_dataset(config, synth_dataset)

        partial = (config.run_dir / "records.jsonl").read_bytes()
        assert partial != expected
        assert expected.startswith(partial)  # monotone prefix persistence
        persisted = partial.count(b"\n")
        assert 0 < persisted < 12

        fresh = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context, parallelism=2, name="interrupted",
        )
        result = resume(fresh, synth_dataset)
        assert (config.run_dir / "records.jsonl").read_bytes() == expected
        assert [r.response_id for r in result.records] == SYNTH_IDS
        # the resume never re-scored the persisted prefix
        assert fresh.backend.call_count == 2 * (12 - persisted)

    def test_resume_of_complete_run_makes_no_backend_calls(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        config = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        first = score_dataset(config, synth_dataset)
        idle = scripted_backend_factory()
        again = make_config(
            tmp_path, idle, schema=science_schema, context=synth_context,
        )
        result = resume(again, synth_dataset)
        assert idle.call_count == 0
        assert result.records == first.records

    def test_resume_with_different_mode_is_a_mismatch(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        config = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        other = make_config(
            tmp_path, scripted_backend_factory(), mode="baseline",
            context=synth_context,
        )
        with pytest.raises(ManifestMismatch):
            resume(other, synth_dataset)

    def test_resume_with_edited_dataset_is_a_mismatch(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        config = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        from dataclasses import replace

        edited_responses = list(synth_dataset.responses)
        edited_responses[0] = replace(edited_responses[0], text="edited text")
        edited = replace(synth_dataset, responses=tuple(edited_responses))
        again = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        with pytest.raises(ManifestMismatch):
            resume(again, edited)


MANY_IDS = [f"m{k:03d}" for k in range(60)]


def _many(n):
    """A baseline-ready dataset of the first n of MANY_IDS."""
    return Dataset(responses=tuple(
        StudentResponse(rid, f"many response {rid}.", k % 4)
        for k, rid in enumerate(MANY_IDS[:n])
    ))


def _asked_about(request) -> str:
    blob = "\n".join(content for _, content in request.messages)
    return re.search(r"many response (m\d{3})\.", blob).group(1)


def _score_many(request) -> str:
    k = int(_asked_about(request)[1:])
    return "I refuse to answer." if k % 5 == 3 else json.dumps({"score": k % 4})


class TestExecutor:
    def _run(self, tmp_path, context, script, n, parallelism, name="run"):
        config = make_config(
            tmp_path, ScriptedBackend(script=script), mode="baseline",
            context=context, parallelism=parallelism, name=name,
        )
        return config, score_dataset(config, _many(n))

    def test_each_line_is_on_disk_before_the_next_response_is_scored(
        self, tmp_path, synth_context,
    ):
        records = tmp_path / "run" / "records.jsonl"
        lines_seen = {}

        def script(request):
            lines_seen[_asked_about(request)] = records.read_bytes().count(b"\n")
            return json.dumps({"score": 1})

        self._run(tmp_path, synth_context, script, 20, parallelism=1)
        assert lines_seen == {rid: k for k, rid in enumerate(MANY_IDS[:20])}

    def test_records_and_failures_under_contention_match_a_serial_run(
        self, tmp_path, synth_context,
    ):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [
                self._run(tmp_path, synth_context, _score_many, 60, p, f"p{p}")
                for p in (1, 8)
            ]
        finally:
            sys.setswitchinterval(interval)
        files = [
            tuple((config.run_dir / name).read_bytes()
                  for name in ("records.jsonl", "failures.jsonl"))
            for config, _ in runs
        ]
        assert files[0] == files[1]
        assert files[0][1].count(b"\n") == 12
        assert [len(r.records) + len(r.failures) for _, r in runs] == [60, 60]

    def test_worker_error_keeps_its_type_and_leaves_a_prefix(
        self, tmp_path, synth_context,
    ):
        full, _ = self._run(tmp_path, synth_context, _score_many, 20, 3, "full")
        expected = (full.run_dir / "records.jsonl").read_bytes()

        def crash_on_m009(request):
            if _asked_about(request) == "m009":
                raise RuntimeError("model crashed on m009")
            return _score_many(request)

        with pytest.raises(RuntimeError, match="model crashed on m009"):
            self._run(tmp_path, synth_context, crash_on_m009, 20, 3, "broken")
        partial = (tmp_path / "broken" / "records.jsonl").read_bytes()
        assert expected.startswith(partial)
        assert b"m009" not in partial

    @pytest.mark.parametrize("ending,raised", [
        ("finished", None),
        ("worker_error", RuntimeError),
        ("interrupt", KeyboardInterrupt),
    ])
    def test_no_worker_thread_outlives_the_run(
        self, tmp_path, synth_context, monkeypatch, ending, raised,
    ):
        before = set(threading.enumerate())
        landed = threading.Event()

        def script(request):
            if _asked_about(request) == "m005" and ending == "worker_error":
                raise RuntimeError("model crashed")
            if _asked_about(request) >= "m005" and ending == "interrupt":
                landed.wait(10)  # held until the Ctrl-C below lands
            return json.dumps({"score": 1})

        def interrupting_fsync(fd):
            # Ctrl-C in the calling thread, at its first fsync while workers run
            if set(threading.enumerate()) - before:
                landed.set()
                raise KeyboardInterrupt
            os.fsync(fd)

        if ending == "interrupt":
            monkeypatch.setattr("autoscore.pipeline.os", types.SimpleNamespace(
                **{**vars(os), "fsync": interrupting_fsync}))
        if raised is None:
            self._run(tmp_path, synth_context, script, 20, parallelism=4)
        else:
            with pytest.raises(raised):
                self._run(tmp_path, synth_context, script, 20, parallelism=4)
        assert set(threading.enumerate()) <= before
        if ending == "interrupt":
            written = (tmp_path / "run" / "records.jsonl").read_bytes().count(b"\n")
            assert 0 < written < 20

    def test_progress_line_with_rate_and_eta_during_the_run(
        self, tmp_path, synth_context, caplog,
    ):
        caplog.set_level(logging.INFO, logger="autoscore.pipeline")
        progress = re.compile(
            r"persisted \d+/60 responses \(\d+\.\d responses/s, ETA \d+ s\)"
        )
        seen_while_running = threading.Event()

        def script(request):
            if _asked_about(request) == MANY_IDS[-1]:
                # the last response waits (at most 10 s) for a progress line
                # about the ones before it
                for _ in range(1000):
                    if any(progress.fullmatch(m) for m in caplog.messages):
                        seen_while_running.set()
                        break
                    threading.Event().wait(0.01)
            return json.dumps({"score": 1})

        self._run(tmp_path, synth_context, script, 60, parallelism=2)
        assert seen_while_running.is_set()


class TestRunDirLayout:
    def test_run_dir_files(self, tmp_path, synth_dataset, synth_context,
                           science_schema, scripted_backend):
        config = make_config(
            tmp_path, scripted_backend, schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        run_dir = config.run_dir
        assert {p.name for p in run_dir.iterdir()} == {
            "manifest.json", "records.jsonl", "failures.jsonl"}
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["mode"] == "autoscore"
        assert manifest["score_range"] == {"min": 0, "max": 3}
        assert manifest["dataset_digest"] == synth_dataset.digest()
        assert manifest["schema"]["fields"][0]["name"] == "valid_conclusion"
        assert manifest["finished_at"] is not None

    def test_load_run_reads_back_result(self, tmp_path, synth_dataset,
                                         synth_context, science_schema,
                                         scripted_backend):
        config = make_config(
            tmp_path, scripted_backend, schema=science_schema,
            context=synth_context,
        )
        result = score_dataset(config, synth_dataset)
        loaded = load_run(config.run_dir)
        assert loaded.records == result.records
        assert loaded.failures == result.failures

    def test_load_run_without_manifest(self, tmp_path):
        with pytest.raises(ManifestMismatch):
            load_run(tmp_path / "never-ran")

    @pytest.mark.parametrize("cut", [
        lambda data: data[:100],  # torn mid-write
        lambda data: b"\xff" + data,  # not UTF-8
        lambda data: b"[]\n",  # JSON, but not an object
    ])
    def test_load_run_with_unreadable_manifest(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend, cut,
    ):
        config = make_config(
            tmp_path, scripted_backend, schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        manifest = config.run_dir / "manifest.json"
        manifest.write_bytes(cut(manifest.read_bytes()))
        with pytest.raises(ManifestMismatch, match="manifest.json"):
            load_run(config.run_dir)

    def test_torn_trailing_record_line_recovered_on_resume(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory,
    ):
        config = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        pristine = (config.run_dir / "records.jsonl").read_bytes()
        # simulate a crash mid-append: drop half of the last line
        lines = pristine.decode().splitlines()
        torn = "".join(l + "\n" for l in lines[:-1]) + lines[-1][:25]
        (config.run_dir / "records.jsonl").write_text(torn)

        again = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        result = resume(again, synth_dataset)
        assert (config.run_dir / "records.jsonl").read_bytes() == pristine
        assert len(result.records) == 12

    def test_torn_trailing_failure_line_recovered_on_resume(
        self, tmp_path, synth_dataset, synth_context, science_schema,
    ):
        def refuse_r03(request):
            blob = "\n".join(c for _, c in request.messages)
            if "synthetic response r03" in blob:
                return "I refuse to answer."
            return synth_script(request)

        config = make_config(
            tmp_path, ScriptedBackend(script=refuse_r03), schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        records_file = config.run_dir / "records.jsonl"
        failures_file = config.run_dir / "failures.jsonl"
        pristine = (records_file.read_bytes(), failures_file.read_bytes())
        # simulate a crash mid-append of r03's failure: r01 and r02 are on
        # disk, r03's failure line is half written
        records_file.write_bytes(b"".join(pristine[0].splitlines(True)[:2]))
        failures_file.write_bytes(pristine[1][:20])

        again = make_config(
            tmp_path, ScriptedBackend(script=refuse_r03), schema=science_schema,
            context=synth_context,
        )
        result = resume(again, synth_dataset)
        assert (records_file.read_bytes(), failures_file.read_bytes()) == pristine
        assert [rid for rid, _ in result.failures] == ["r03"]
        assert load_run(config.run_dir).failures == result.failures
