import json
import threading

import pytest

from autoscore.backend import CachingBackend, ScriptedBackend
from autoscore.pipeline import (
    ManifestMismatch,
    RunConfig,
    RunDirConflict,
    load_run,
    resume,
    score_dataset,
)

from conftest import SYNTH_GOLD, SYNTH_IDS, SYNTH_PRED, synth_script


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
        assert "ScoringFailed" in result.failures[0][1]

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
        result = resume(config.run_dir, fresh, synth_dataset)
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
        result = resume(config.run_dir, again, synth_dataset)
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
            resume(config.run_dir, other, synth_dataset)

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
            resume(config.run_dir, again, edited)


class TestRunDirLayout:
    def test_run_dir_files(self, tmp_path, synth_dataset, synth_context,
                           science_schema, scripted_backend):
        config = make_config(
            tmp_path, scripted_backend, schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        run_dir = config.run_dir
        assert (run_dir / "manifest.json").exists()
        assert (run_dir / "records.jsonl").exists()
        assert (run_dir / "failures.jsonl").exists()
        assert (run_dir / "timing.csv").exists()
        timing = (run_dir / "timing.csv").read_text().splitlines()
        assert timing[0] == "response_id,wall_time_ms,retries"
        assert len(timing) == 13
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
        result = resume(config.run_dir, again, synth_dataset)
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
        result = resume(config.run_dir, again, synth_dataset)
        assert (records_file.read_bytes(), failures_file.read_bytes()) == pristine
        assert [rid for rid, _ in result.failures] == ["r03"]
        assert load_run(config.run_dir).failures == result.failures
