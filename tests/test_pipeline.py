import gc
import json
import logging
import os
import re
import sys
import threading
import time
import types
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import pytest

from autoscore import agents, pipeline
from autoscore.backend import CachingBackend, ScriptedBackend
from autoscore.core import StudentResponse
from autoscore.ingest import Dataset, DatasetError
from autoscore.pipeline import (
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

    @pytest.mark.parametrize("name", ["records.jsonl", "failures.jsonl"])
    def test_refuses_run_files_left_without_a_manifest(
        self, tmp_path, synth_dataset, synth_context, scripted_backend_factory, name,
    ):
        # a run whose manifest is gone: a new run would append its lines to
        # the old ones and give the old outcomes the new run's manifest
        idle = scripted_backend_factory()
        config = make_config(tmp_path, idle, mode="baseline", context=synth_context)
        config.run_dir.mkdir()
        (config.run_dir / name).write_text("")
        with pytest.raises(RunDirConflict, match=f"^{config.run_dir / name} exists "
                           "with no manifest; score into a directory without run "
                           "files$"):
            score_dataset(config, synth_dataset)
        assert sorted(p.name for p in config.run_dir.iterdir()) == [name]
        assert idle.call_count == 0

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


class TestRunConfig:
    def test_unknown_mode_is_refused(self, tmp_path, synth_context, scripted_backend):
        with pytest.raises(ValueError, match="^unknown mode 'x'$"):
            make_config(tmp_path, scripted_backend, mode="x", context=synth_context)

    @pytest.mark.parametrize("change", [
        {"parallelism": 0},
        {"imputation": "flor"},
        {"templates": {"baseline": agents.PromptTemplate("s", "no response here")}},
        {"mode": "autoscore"},
    ], ids=["parallelism", "imputation", "templates", "mode"])
    def test_a_built_config_cannot_be_changed(
        self, tmp_path, synth_context, scripted_backend, change
    ):
        config = make_config(tmp_path, scripted_backend, mode="baseline",
                             context=synth_context)
        (name, value), = change.items()
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, value)
        # replace builds a new config, and checks it as any other
        with pytest.raises(ValueError):
            replace(config, **change)
        assert not config.run_dir.exists()

    def test_templates_and_prompts_are_read_only(
        self, tmp_path, synth_context, science_schema, scripted_backend
    ):
        config = make_config(tmp_path, scripted_backend, schema=science_schema,
                             context=synth_context)
        assert list(config.templates) == list(config.prompts) == [
            "extraction", "scoring"]
        with pytest.raises(TypeError):
            config.templates["scoring"] = agents.PromptTemplate("s", "{response}")
        with pytest.raises(TypeError):
            config.prompts["scoring"] = config.prompts["extraction"]
        # the compiled prompts are the templates the manifest records
        assert config.prompts["scoring"] == agents.compile_prompt(
            "scoring", config.templates["scoring"], synth_context, science_schema)


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
        config = replace(config, imputation="floor")
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
        config = replace(config, imputation="floor")
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
        config = replace(config, imputation="floor")
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
        config = replace(config, imputation="floor")
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
        with pytest.raises(DatasetError, match="^manifest mode is 'autoscore', "
                           "current run has 'baseline'$"):
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
        from dataclasses import FrozenInstanceError, replace

        edited_responses = list(synth_dataset.responses)
        edited_responses[0] = replace(edited_responses[0], text="edited text")
        edited = replace(synth_dataset, responses=tuple(edited_responses))
        again = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        with pytest.raises(DatasetError, match="^manifest dataset_digest is "):
            resume(again, edited)

    @pytest.mark.parametrize("corrupt", ["stale-id", "gap"])
    def test_persisted_ids_that_are_not_a_prefix_are_refused(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory, corrupt,
    ):
        config = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        records_file = config.run_dir / "records.jsonl"
        lines = records_file.read_bytes().splitlines(True)
        if corrupt == "stale-id":  # an id the dataset does not have
            lines[0] = lines[0].replace(b'"response_id": "r01"',
                                        b'"response_id": "x01"')
            assert b'"x01"' in lines[0]
        else:  # r02 lost between r01 and r03
            del lines[1]
        records_file.write_bytes(b"".join(lines))
        idle = scripted_backend_factory()
        again = make_config(
            tmp_path, idle, schema=science_schema, context=synth_context,
        )
        with pytest.raises(DatasetError, match="^persisted ids are not a "
                           "prefix of the dataset ordering"):
            resume(again, synth_dataset)
        assert records_file.read_bytes() == b"".join(lines)
        assert idle.call_count == 0

    @pytest.mark.parametrize("corrupt,error", [
        ("swapped", "records.jsonl line 2: response_id 'r01' does not follow 'r02'"),
        ("duplicated", "records.jsonl line 4: response_id 'r03' does not follow 'r03'"),
        ("in-both", "failures.jsonl: response_id 'r03' is in records.jsonl too"),
    ], ids=["swapped", "duplicated", "in-both"])
    def test_persisted_lines_out_of_order_are_refused_before_any_call(
        self, tmp_path, synth_dataset, synth_context, science_schema,
        scripted_backend_factory, corrupt, error,
    ):
        # the ids are a prefix as a set, so only their order shows the fault
        config = make_config(
            tmp_path, scripted_backend_factory(), schema=science_schema,
            context=synth_context,
        )
        score_dataset(config, synth_dataset)
        records_file = config.run_dir / "records.jsonl"
        failures_file = config.run_dir / "failures.jsonl"
        lines = records_file.read_bytes().splitlines(True)[:3]
        if corrupt == "swapped":
            lines[0], lines[1] = lines[1], lines[0]
        elif corrupt == "duplicated":
            lines.append(lines[2])
        else:
            failures_file.write_text('{"response_id": "r03", "error": "E: x"}\n')
        records_file.write_bytes(b"".join(lines))
        before = {p.name: p.read_bytes() for p in config.run_dir.iterdir()}
        idle = scripted_backend_factory()
        again = make_config(
            tmp_path, idle, schema=science_schema, context=synth_context,
        )
        with pytest.raises(DatasetError) as excinfo:
            resume(again, synth_dataset)
        assert str(excinfo.value) == f"{config.run_dir}/{error}"
        assert idle.call_count == 0
        assert {p.name: p.read_bytes() for p in config.run_dir.iterdir()} == before

    def test_load_run_refuses_records_out_of_order(
        self, tmp_path, synth_dataset, synth_context, scripted_backend,
    ):
        config = make_config(
            tmp_path, scripted_backend, mode="baseline", context=synth_context,
        )
        score_dataset(config, synth_dataset)
        records_file = config.run_dir / "records.jsonl"
        lines = records_file.read_bytes().splitlines(True)
        lines[4], lines[5] = lines[5], lines[4]
        records_file.write_bytes(b"".join(lines))
        with pytest.raises(DatasetError, match="line 6: response_id 'r05' "
                           "does not follow 'r06'$"):
            load_run(config.run_dir)


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

    @staticmethod
    def _process_time(monkeypatch, process_time):
        monkeypatch.setattr("autoscore.pipeline.time", types.SimpleNamespace(
            **{**vars(time), "process_time": process_time}))

    def test_a_process_that_never_waits_scores_on_one_worker(
        self, tmp_path, synth_context, monkeypatch,
    ):
        # the CPU clock keeps pace with the wall clock, so every window reads
        # busy, even though the model below waits off the CPU
        self._process_time(monkeypatch, time.monotonic)
        records = tmp_path / "run" / "records.jsonl"
        lines_seen, callers = {}, set()

        def script(request):
            callers.add(threading.get_ident())
            lines_seen[_asked_about(request)] = records.read_bytes().count(b"\n")
            threading.Event().wait(0.001)
            return json.dumps({"score": 1})

        self._run(tmp_path, synth_context, script, 40, parallelism=4)
        assert len(callers) == 1
        assert lines_seen == {rid: k for k, rid in enumerate(MANY_IDS[:40])}

    def test_a_process_that_waits_seats_every_worker(
        self, tmp_path, synth_context, monkeypatch,
    ):
        self._process_time(monkeypatch, lambda: 0.0)  # never on the CPU
        callers, deadline = set(), time.monotonic() + 10
        everyone = threading.Event()

        def script(request):
            # each call waits (10 s at most) until every worker has made one
            callers.add(threading.get_ident())
            if len(callers) == 4:
                everyone.set()
            everyone.wait(max(0.0, deadline - time.monotonic()))
            return _score_many(request)

        self._run(tmp_path, synth_context, script, 20, parallelism=4)
        assert len(callers) == 4

    def test_records_and_failures_under_contention_match_a_serial_run(
        self, tmp_path, synth_context,
    ):
        callers = set()

        def script(request):
            # a real 1 ms wait off the CPU: the run seats more than one worker
            callers.add(threading.get_ident())
            threading.Event().wait(0.001)
            return _score_many(request)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [self._run(tmp_path, synth_context, _score_many, 60, 1, "p1"),
                    self._run(tmp_path, synth_context, script, 60, 8, "p8")]
        finally:
            sys.setswitchinterval(interval)
        assert len(callers) > 1
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

    def test_fsync_rounds_are_one_a_window_at_most_and_skip_an_unchanged_file(
        self, tmp_path, synth_context, monkeypatch,
    ):
        synced = []  # the inode of each file the run fsyncs, once per call

        def recording_fsync(fd):
            synced.append(os.fstat(fd).st_ino)
            os.fsync(fd)

        monkeypatch.setattr("autoscore.pipeline.os", types.SimpleNamespace(
            **{**vars(os), "fsync": recording_fsync}))

        def script(request):
            threading.Event().wait(0.001)  # a wait off the CPU, and no failure
            return json.dumps({"score": 1})

        started = time.monotonic()
        config, result = self._run(tmp_path, synth_context, script, 60, parallelism=4)
        elapsed = time.monotonic() - started
        assert not result.failures
        records, failures = ((config.run_dir / name).stat().st_ino
                             for name in ("records.jsonl", "failures.jsonl"))
        assert failures not in synced
        assert 0 < synced.count(records) <= elapsed / pipeline.WINDOW_S + 2

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


def test_schema_is_described_once_per_run_not_per_response(
    tmp_path, synth_context, science_schema,
):
    # counts every execution of describe_schema's code, however it is
    # reached, on every thread
    code = agents.describe_schema.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    def script(request):
        if "Identify the rubric-relevant components" in request.messages[1][1]:
            return json.dumps(z_payload("r01"))
        return json.dumps({"score": 1})

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        config = make_config(tmp_path, ScriptedBackend(script=script),
                             schema=science_schema, context=synth_context,
                             parallelism=2)
        result = score_dataset(config, _many(30))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert len(result.records) == 30
    assert len(calls) == 1


_Z_FLAGGED = json.dumps(z_payload("r04"))  # a corrected count: the note is sent too
# response -> (extraction replies, scoring replies), the last one repeated
_GARBAGE_CASES = {
    "clean": ([_Z_FLAGGED], ['{"score": 2}']),
    "extraction malformed first": (["no json here", _Z_FLAGGED], ['{"score": 2}']),
    "scoring malformed first": ([_Z_FLAGGED], ['{"score": 9}', '{"score": 2}']),
    "extraction exhausted": (["no json here"], ['{"score": 2}']),
    "scoring exhausted": ([_Z_FLAGGED], ['{"score": "two"}']),
}


def _garbage_case_reply(request):
    case = next(c for c in _GARBAGE_CASES if f"<<{c}>>" in request.messages[1][1])
    extraction, scoring = _GARBAGE_CASES[case]
    replies = (extraction if "Identify the rubric-relevant components"
               in request.messages[1][1] else scoring)
    return replies[min(len(request.messages) - 2, len(replies) - 1)]


def test_scoring_a_response_leaves_no_cyclic_garbage(
    tmp_path, synth_context, science_schema,
):
    # a reference cycle per response (json.dumps with an indent, an error kept
    # with its traceback) makes the cycle collector run over the whole heap
    # again and again in a long run
    backend = ScriptedBackend(script=_garbage_case_reply)
    runs = []
    for mode, imputation in (("autoscore", "fail"), ("autoscore", "floor"),
                             ("baseline", "fail")):
        config = RunConfig(
            mode=mode, run_dir=tmp_path / "unused", backend=backend,
            context=synth_context, imputation=imputation,
            schema=science_schema if mode == "autoscore" else None,
        )
        runs.append(config)
    responses = [StudentResponse(case, f"<<{case}>> repeat the trials", 1)
                 for case in _GARBAGE_CASES]

    def score_all():
        return [pipeline._score_one(config, response)[0]
                for config in runs for response in responses]

    assert score_all() == [
        "record", "record", "record", "failure", "failure",  # autoscore, fail
        "record", "record", "record", "failure", "record",  # autoscore, floor
        "record", "record", "record", "record", "failure",  # baseline
    ]
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()  # frees what was there before, as DEBUG_SAVEALL would not
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        score_all()
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(5)
    finally:
        gc.set_debug(debug)
        del gc.garbage[:]
        if enabled:
            gc.enable()
    assert found == 0, kinds


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
        with pytest.raises(DatasetError, match="never-ran has no manifest$"):
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
        with pytest.raises(DatasetError, match="manifest.json"):
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
