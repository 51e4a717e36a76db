"""Run orchestration: fan a dataset out over a worker pool, time and
persist each record, and assemble a deterministic result.

Outcomes are appended to records.jsonl (failures to failures.jsonl) in
response_id order while the run goes on: the executor waits for the
oldest pending response, takes every finished one queued right behind it,
writes them and fsyncs before it waits again. So the files on disk are
always a prefix of the final ordering, two runs of the same config are
byte-identical regardless of parallelism, and resuming skips that prefix.
"""

from __future__ import annotations

import json
import logging
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import agents
from .backend import read_jsonl
from .core import AutoscoreError, ScoredRecord, StudentResponse, TaskContext
from .ingest import Dataset
from .schema import ComponentSchema

logger = logging.getLogger(__name__)

PROGRESS_EVERY = 25

# each mode is an ordered chain of agents; a stage name is also the agent
# name in transcripts and the TemplateSet field holding its prompt
STAGES = {
    "autoscore": ("extraction", "scoring"),
    "baseline": ("baseline",),
}


class ManifestMismatch(AutoscoreError):
    """The run directory is corrupt or belongs to an incompatible run."""


class RunDirConflict(AutoscoreError):
    """score_dataset refuses to write into an already-started run dir."""


@dataclass
class TemplateSet:
    """Per-run prompt templates; None falls back to the shipped defaults."""

    extraction: agents.PromptTemplate = agents.DEFAULT_EXTRACTION_TEMPLATE
    scoring: agents.PromptTemplate = agents.DEFAULT_SCORING_TEMPLATE
    baseline: agents.PromptTemplate = agents.DEFAULT_BASELINE_TEMPLATE


@dataclass
class RunConfig:
    """Everything one scoring run needs: the mode, the backend handle, the
    task context (and schema for autoscore), and execution knobs.

    imputation controls what an exhausted retry budget produces: "fail"
    (default) records a failure; "floor" records the minimum rubric score
    instead. Imputed floors silently flatten error metrics, so "fail" is
    the honest default. Extraction failures always register as failures
    even under "floor", because an autoscore record requires a validated
    representation.
    """

    mode: str  # "autoscore" | "baseline"
    run_dir: Path
    backend: object
    context: TaskContext
    schema: ComponentSchema | None = None
    parallelism: int = 1
    max_retries: int = agents.DEFAULT_MAX_RETRIES
    seed: int = 0
    templates: TemplateSet = field(default_factory=TemplateSet)
    dataset_ref: str = ""
    imputation: str = "fail"
    max_output_tokens: int | None = None  # None keeps per-agent defaults

    def __post_init__(self) -> None:
        self.run_dir = Path(self.run_dir)
        if self.mode not in STAGES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.mode == "autoscore" and self.schema is None:
            raise ValueError("autoscore runs need a compiled schema")
        if self.imputation not in ("fail", "floor"):
            raise ValueError(f"unknown imputation policy {self.imputation!r}")


@dataclass
class RunResult:
    """All records (sorted by response_id), all failures, and the manifest."""

    records: list[ScoredRecord]
    failures: list[tuple[str, str]]
    manifest: dict

    def mean_wall_time_ms(self) -> float | None:
        if not self.records:
            return None
        return sum(r.wall_time_ms for r in self.records) / len(self.records)


def _manifest_for(config: RunConfig, dataset: Dataset) -> dict:
    rng = config.context.score_range
    return {
        "mode": config.mode,
        "item_id": config.context.item_id,
        "dataset_ref": config.dataset_ref or config.context.item_id,
        "dataset_digest": dataset.digest(),
        "n_responses": len(dataset),
        "backend_identity": config.backend.identity,
        "model_name": config.backend.model_name,
        "score_range": {"min": rng.min, "max": rng.max},
        "parallelism": config.parallelism,
        "max_retries": config.max_retries,
        "seed": config.seed,
        "imputation": config.imputation,
        "context": {
            "item_id": config.context.item_id,
            "question": config.context.question,
            "reference_material": config.context.reference_material,
            "rubric_text": config.context.rubric_text,
        },
        "schema": (
            config.schema.to_definition() if config.schema is not None else None
        ),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "finished_at": None,
    }


def _records_path(run_dir: Path) -> Path:
    return run_dir / "records.jsonl"


def _failures_path(run_dir: Path) -> Path:
    return run_dir / "failures.jsonl"


def _manifest_path(run_dir: Path) -> Path:
    return run_dir / "manifest.json"


def _timing_path(run_dir: Path) -> Path:
    return run_dir / "timing.csv"


def _score_one(config: RunConfig, response: StudentResponse):
    """Run the mode's stages in order for one response and assemble its
    record. Domain errors become failure entries (or, for a scoring stage
    under the "floor" policy, a record of the rubric minimum that keeps the
    failed attempts); anything else propagates and aborts the run."""
    options = {"max_retries": config.max_retries}
    if config.max_output_tokens:
        options["max_output_tokens"] = config.max_output_tokens
    done: list[tuple[str, agents.AttemptHistory]] = []
    representation = None
    try:
        for stage in STAGES[config.mode]:
            template = getattr(config.templates, stage)
            if stage == "extraction":
                outcome = agents.run_extraction(
                    config.backend, config.context, response, config.schema,
                    template=template, **options,
                )
                representation = outcome.value
            elif stage == "scoring":
                outcome = agents.run_scoring(
                    config.backend, representation, config.context, response,
                    template=template, **options,
                )
            else:
                outcome = agents.run_baseline(
                    config.backend, config.context, response,
                    template=template, **options,
                )
            done.append((stage, outcome))
        predicted = outcome.value.value
    except AutoscoreError as exc:
        floor = (
            isinstance(exc, agents.ScoringFailed) and config.imputation == "floor"
        )
        if not floor:
            error = f"{type(exc).__name__}: {exc}"
            return ("failure", (response.response_id, error))
        done.append((stage, exc))
        predicted = config.context.score_range.min
    transcripts: list = []
    wall_time_ms = retries = 0
    for stage, history in done:
        transcripts += history.transcripts(stage)
        wall_time_ms += history.wall_time_ms
        retries += history.retries
    return ("record", ScoredRecord(
        response_id=response.response_id,
        mode=config.mode,
        gold_score=response.gold_score,
        predicted_score=predicted,
        representation=representation,
        transcripts=tuple(transcripts),
        wall_time_ms=wall_time_ms,
        retries=retries,
    ))


def _failure_from_line(line: str) -> tuple[str, str]:
    entry = json.loads(line)
    return entry["response_id"], entry["error"]


def _read_done(run_dir: Path):
    """Read back persisted records and failures, skipping a torn trailing
    line in either file. Also returns the intact byte length of each file,
    where the next append must start."""
    records, records_end = read_jsonl(
        _records_path(run_dir), ScoredRecord.from_jsonl_line, ManifestMismatch
    )
    failures, failures_end = read_jsonl(
        _failures_path(run_dir), _failure_from_line, ManifestMismatch
    )
    return records, failures, (records_end, failures_end)


def _sync(handles) -> None:
    for handle in handles:
        handle.flush()
        os.fsync(handle.fileno())


def _execute(config: RunConfig, dataset: Dataset, manifest: dict) -> RunResult:
    records, failures, intact = _read_done(config.run_dir)
    done_ids = {r.response_id for r in records} | {rid for rid, _ in failures}
    ordered = sorted(dataset.responses, key=lambda r: r.response_id)
    ordered_ids = [r.response_id for r in ordered]

    stale = done_ids - set(ordered_ids)
    if stale:
        raise ManifestMismatch(
            f"run dir contains ids not present in the dataset: "
            f"{sorted(stale)[:5]}"
        )
    # outcomes are persisted in response_id order, so they form a prefix
    prefix_len = len(done_ids)
    if set(ordered_ids[:prefix_len]) != done_ids:
        raise ManifestMismatch(
            "persisted ids are not a prefix of the dataset ordering; "
            "the run dir is corrupt or belongs to another dataset"
        )

    with _records_path(config.run_dir).open("a", encoding="utf-8") as rec, \
            _failures_path(config.run_dir).open("a", encoding="utf-8") as fail:
        # cut torn tails off, so the next line does not glue onto them
        rec.truncate(intact[0])
        fail.truncate(intact[1])
        unsynced: set = set()
        pool = ThreadPoolExecutor(max_workers=config.parallelism)
        try:
            futures = deque(
                pool.submit(_score_one, config, response)
                for response in ordered[prefix_len:]
            )
            while futures:
                # block on the oldest outcome, then take every later one at
                # the front that is already done; the batch is synced before
                # the next wait, and only then counts as persisted
                outcomes = [futures.popleft().result()]
                while futures and futures[0].done():
                    outcomes.append(futures.popleft().result())
                for kind, payload in outcomes:
                    if kind == "record":
                        records.append(payload)
                        handle, line = rec, payload.to_jsonl_line()
                    else:
                        failures.append(payload)
                        rid, error = payload
                        handle = fail
                        line = json.dumps({"response_id": rid, "error": error})
                    handle.write(line + "\n")
                    unsynced.add(handle)
                _sync(unsynced)
                unsynced.clear()
                persisted = len(records) + len(failures)
                if persisted % PROGRESS_EVERY < len(outcomes):
                    logger.info(
                        "persisted %d/%d responses", persisted, len(ordered)
                    )
        finally:
            pool.shutdown(cancel_futures=True)
            _sync(unsynced)  # lines an abort left written but unsynced

    if len(records) + len(failures) != len(dataset):
        raise AutoscoreError(
            "conservation violated: "
            f"{len(records)} records + {len(failures)} failures "
            f"!= {len(dataset)} responses"
        )

    manifest = dict(manifest)
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _manifest_path(config.run_dir).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    _write_timing(config.run_dir, records)
    return RunResult(records=records, failures=failures, manifest=manifest)


def _write_timing(run_dir: Path, records: list[ScoredRecord]) -> None:
    lines = ["response_id,wall_time_ms,retries"]
    lines += [
        f"{r.response_id},{r.wall_time_ms},{r.retries}" for r in records
    ]
    _timing_path(run_dir).write_text(
        "".join(line + "\n" for line in lines), encoding="utf-8"
    )


def score_dataset(config: RunConfig, dataset: Dataset) -> RunResult:
    """Score every response exactly once and persist the run directory.

    Per-response agent and backend failures are captured, not fatal; the
    run aborts only on configuration errors or unexpected exceptions.
    """
    run_dir = config.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    if _manifest_path(run_dir).exists():
        raise RunDirConflict(
            f"{run_dir} already contains a run; use resume instead"
        )
    manifest = _manifest_for(config, dataset)
    _manifest_path(run_dir).write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    logger.info(
        "scoring %d responses (mode=%s, parallelism=%d)",
        len(dataset),
        config.mode,
        config.parallelism,
    )
    return _execute(config, dataset, manifest)


def resume(run_dir, config: RunConfig, dataset: Dataset) -> RunResult:
    """Continue an interrupted run; already-persisted responses are skipped
    and the completed result is identical to an uninterrupted run (given a
    deterministic backend)."""
    run_dir = Path(run_dir)
    config.run_dir = run_dir
    manifest_file = _manifest_path(run_dir)
    if not manifest_file.exists():
        raise ManifestMismatch(f"{run_dir} has no manifest to resume from")
    manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    expected = {
        "mode": config.mode,
        "backend_identity": config.backend.identity,
        "dataset_digest": dataset.digest(),
    }
    for key, want in expected.items():
        got = manifest.get(key)
        if got != want:
            raise ManifestMismatch(
                f"manifest {key} is {got!r}, current run has {want!r}"
            )
    return _execute(config, dataset, manifest)


def load_run(run_dir) -> RunResult:
    """Read a completed run directory back into a RunResult."""
    run_dir = Path(run_dir)
    manifest_file = _manifest_path(run_dir)
    if not manifest_file.exists():
        raise ManifestMismatch(f"{run_dir} has no manifest")
    manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    records, failures, _ = _read_done(run_dir)
    records.sort(key=lambda r: r.response_id)
    failures.sort(key=lambda f: f[0])
    return RunResult(records=records, failures=failures, manifest=manifest)
