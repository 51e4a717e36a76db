"""Run orchestration: fan a dataset out over worker threads, time and
persist each record, and assemble a deterministic result.

Outcomes are appended to records.jsonl (failures to failures.jsonl) in
response_id order while the run goes on: whichever worker finishes the
oldest unwritten response writes and flushes every finished line at the
head, and the calling thread fsyncs them before they count as persisted.
So the files on disk are always a prefix of the final ordering, two runs
of the same config are byte-identical regardless of parallelism, and
resuming skips that prefix.
"""

from __future__ import annotations

import json
import logging
import os
import queue
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import agents
from .backend import read_jsonl
from .core import AutoscoreError, ScoredRecord, ScoreRange, StudentResponse, TaskContext
from .ingest import Dataset
from .schema import ComponentSchema

logger = logging.getLogger(__name__)

PROGRESS_EVERY = 25

RECORDS = "records.jsonl"
FAILURES = "failures.jsonl"
MANIFEST = "manifest.json"

# each mode is an ordered chain of agents.STAGES; a stage name is also the
# agent name in transcripts and the key of its prompt in RunConfig.templates
STAGES = {
    "autoscore": ("extraction", "scoring"),
    "baseline": ("baseline",),
}


# the manifest keys a resumed run must share with the run that started the
# directory, checked in this order so the first difference named is the
# most specific one (a changed model also changes the backend identity);
# parallelism and seed may change without changing any outcome
RESUME_KEYS = (
    "mode", "item_id", "n_responses", "dataset_digest",
    "model_name", "backend_identity", "score_range",
    "max_retries", "imputation", "context", "schema",
    "templates", "max_output_tokens",
)
# the keys every manifest has carried and every reader indexes (a run from
# before templates and max_output_tokens were recorded loads, not resumes)
READ_KEYS = (*RESUME_KEYS[:-2], "dataset_ref")


class ManifestMismatch(AutoscoreError):
    """The run directory is corrupt or belongs to an incompatible run."""


class RunDirConflict(AutoscoreError):
    """score_dataset refuses to write into an already-started run dir."""


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
    # stage name -> prompt; __post_init__ fills in the default of a stage left out
    templates: dict[str, agents.PromptTemplate] = field(default_factory=dict)
    dataset_ref: str = ""
    imputation: str = "fail"
    max_output_tokens: int | None = None  # None keeps per-agent defaults

    def __post_init__(self) -> None:
        self.run_dir = Path(self.run_dir)
        if self.mode not in STAGES:
            raise ValueError(f"unknown mode {self.mode!r}")
        counts = {"parallelism": self.parallelism, "max_retries": self.max_retries}
        if self.max_output_tokens is not None:
            counts["max_output_tokens"] = self.max_output_tokens
        for name, value in counts.items():
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.mode == "autoscore" and self.schema is None:
            raise ValueError(f"item {self.context.item_id!r} has no component "
                             f"schema; autoscore needs one")
        self.templates = {
            stage: self.templates.get(stage) or agents.STAGES[stage].template
            for stage in STAGES[self.mode]
        }
        for stage, template in self.templates.items():
            unbound = agents.unbound_placeholders(stage, template)
            if unbound:
                raise ValueError(f"the {stage} template uses placeholders its "
                                 f"stage does not bind: {unbound}")
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
        "max_output_tokens": config.max_output_tokens,
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
        "templates": {
            stage: asdict(template) for stage, template in config.templates.items()
        },
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "finished_at": None,
    }


def _write_manifest(run_dir: Path, manifest: dict) -> None:
    """Replace manifest.json atomically (write a temporary file, fsync it,
    rename it over the old one), so a crash leaves the old manifest or the
    new one, never a torn mix."""
    temporary = run_dir / f"{MANIFEST}.tmp"
    with temporary.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, run_dir / MANIFEST)


def _read_manifest(run_dir: Path) -> dict:
    path = run_dir / MANIFEST
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ManifestMismatch(f"{run_dir} has no manifest") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ManifestMismatch(f"{path} does not parse: {exc}") from None
    if not isinstance(manifest, dict):
        raise ManifestMismatch(f"{path} is not a JSON object")
    missing = [key for key in READ_KEYS if key not in manifest]
    if missing:
        raise ManifestMismatch(f"{path} lacks {', '.join(missing)}")
    try:  # the values readers index must have the shape they index
        ScoreRange(**manifest["score_range"])
        shaped = manifest["mode"] in STAGES and all(
            isinstance(manifest["context"][key], str)
            for key in ("question", "rubric_text"))
    except (TypeError, KeyError, ValueError):
        shaped = False
    if not shaped:
        raise ManifestMismatch(f"{path} has a malformed score_range, mode or context")
    return manifest


def _score_one(config: RunConfig, response: StudentResponse):
    """Run the mode's stages for one response: ("record" | "failure", its
    JSON line, the value). Domain errors become failure entries (or, for a
    scoring stage under the "floor" policy, a record of the rubric minimum
    that keeps the failed attempts); anything else aborts the run."""
    outcomes: list[agents.AgentOutcome] = []
    value = config.schema  # each stage works from the value of the one before
    try:
        for stage in STAGES[config.mode]:
            # entered through the module attribute, looked up per call, so a
            # wrapper set on agents.run_<stage> sees it
            outcome = getattr(agents, f"run_{stage}")(
                config.backend, config.context, response, value,
                template=config.templates[stage],
                max_retries=config.max_retries,
                max_output_tokens=config.max_output_tokens,
            )
            outcomes.append(outcome)
            value = outcome.value
        predicted = value.value
    except AutoscoreError as exc:
        floor = (
            isinstance(exc, agents.ScoringFailed) and config.imputation == "floor"
        )
        if not floor:
            error = f"{type(exc).__name__}: {exc}"
            line = json.dumps({"response_id": response.response_id, "error": error})
            return "failure", line, (response.response_id, error)
        outcomes.append(exc.outcome)
        predicted = config.context.score_range.min
    # each mode ends in a stage that scores; a stage before it extracted the
    # representation the record keeps
    representation = outcomes[0].value if len(outcomes) > 1 else None
    record = ScoredRecord(
        response_id=response.response_id,
        mode=config.mode,
        gold_score=response.gold_score,
        predicted_score=predicted,
        representation=representation,
        transcripts=tuple(t for o in outcomes for t in o.transcripts),
        wall_time_ms=sum(o.wall_time_ms for o in outcomes),
        retries=sum(o.retries for o in outcomes),
    )
    return "record", record.to_jsonl_line(), record


def _failure_from_line(line: str) -> tuple[str, str]:
    entry = json.loads(line)
    return entry["response_id"], entry["error"]


def _read_done(run_dir: Path):
    """Read back persisted records and failures, skipping a torn trailing
    line in either file. Also returns the intact byte length of each file,
    where the next append must start."""
    records, records_end = read_jsonl(
        run_dir / RECORDS, ScoredRecord.from_jsonl_line, ManifestMismatch
    )
    failures, failures_end = read_jsonl(
        run_dir / FAILURES, _failure_from_line, ManifestMismatch
    )
    return records, failures, (records_end, failures_end)


def _execute(config: RunConfig, dataset: Dataset, manifest: dict) -> RunResult:
    records, failures, intact = _read_done(config.run_dir)
    done_ids = {r.response_id for r in records} | {rid for rid, _ in failures}
    ordered = sorted(dataset.responses, key=lambda r: r.response_id)

    # outcomes are persisted in response_id order, so they form a prefix (a
    # stale id, one not in the dataset, fails this too)
    prefix_len = len(done_ids)
    if {r.response_id for r in ordered[:prefix_len]} != done_ids:
        raise ManifestMismatch(
            "persisted ids are not a prefix of the dataset ordering; "
            "the run dir is corrupt or belongs to another dataset"
        )
    todo = ordered[prefix_len:]

    with (config.run_dir / RECORDS).open("a", encoding="utf-8") as rec, \
            (config.run_dir / FAILURES).open("a", encoding="utf-8") as fail:
        # cut torn tails off, so the next line does not glue onto them
        rec.truncate(intact[0])
        fail.truncate(intact[1])
        files = {"record": (rec, records, rec.fileno()),
                 "failure": (fail, failures, fail.fileno())}
        # only the workers take `lock`, so an interrupt that lands in the
        # calling thread, even just as it took some lock, cannot leave one
        # held that a worker waits for. Under the lock: parked outcomes and
        # the next position to claim and to write.
        lock = threading.Lock()
        parked: dict[int, tuple] = {}
        claimed, head = 0, 0
        stopping = False  # set on abort: no further response is claimed
        # to the calling thread: the kind of each line written at the head,
        # in order, or the exception that ends the run
        updates = queue.SimpleQueue()

        def work() -> None:
            nonlocal claimed, head, stopping
            position = None
            try:
                while True:
                    with lock:
                        if position is not None:
                            parked[position] = outcome
                            while head in parked:
                                kind, line, payload = parked.pop(head)
                                files[kind][0].write(line + "\n")
                                files[kind][0].flush()
                                files[kind][1].append(payload)
                                updates.put(kind)
                                head += 1
                        if claimed == len(todo) or stopping:
                            return
                        position, claimed = claimed, claimed + 1
                    outcome = _score_one(config, todo[position])
            except BaseException as exc:  # re-raised by the calling thread
                stopping = True
                updates.put(exc)

        workers, synced, started = [], 0, time.monotonic()
        try:
            for _ in range(config.parallelism):
                workers.append(threading.Thread(target=work))
                workers[-1].start()
            while synced < len(todo):
                # everything queued so far: one fsync per file per round
                batch = [updates.get()]
                while not updates.empty():
                    batch.append(updates.get())
                for update in batch:
                    if isinstance(update, BaseException):
                        raise update
                written = synced + len(batch)
                for kind in set(batch):
                    os.fsync(files[kind][2])  # lines count as persisted now
                done = prefix_len + written
                if done // PROGRESS_EVERY > (prefix_len + synced) // PROGRESS_EVERY:
                    rate = written / (time.monotonic() - started)
                    logger.info("persisted %d/%d responses (%.1f responses/s, "
                                "ETA %.0f s)", done, len(ordered), rate,
                                (len(todo) - written) / rate)
                synced = written
        finally:
            stopping = True
            for worker in filter(threading.Thread.is_alive, workers):
                worker.join()
            if synced < len(todo):  # lines an abort left written but unsynced
                for _, _, fileno in files.values():
                    os.fsync(fileno)

    if len(records) + len(failures) != len(dataset):
        raise AutoscoreError(
            "conservation violated: "
            f"{len(records)} records + {len(failures)} failures "
            f"!= {len(dataset)} responses"
        )

    manifest = dict(manifest)
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    _write_manifest(config.run_dir, manifest)
    return RunResult(records=records, failures=failures, manifest=manifest)


def score_dataset(config: RunConfig, dataset: Dataset) -> RunResult:
    """Score every response exactly once and persist the run directory.

    Per-response agent and backend failures are captured, not fatal; the
    run aborts only on configuration errors or unexpected exceptions.
    """
    run_dir = config.run_dir
    run_dir.mkdir(parents=True, exist_ok=True)
    if (run_dir / MANIFEST).exists():
        raise RunDirConflict(
            f"{run_dir} already contains a run; use resume instead"
        )
    manifest = _manifest_for(config, dataset)
    _write_manifest(run_dir, manifest)
    logger.info(
        "scoring %d responses (mode=%s, parallelism=%d)",
        len(dataset),
        config.mode,
        config.parallelism,
    )
    return _execute(config, dataset, manifest)


def resume(config: RunConfig, dataset: Dataset) -> RunResult:
    """Continue the interrupted run in config.run_dir; already-persisted
    responses are skipped and the completed result is identical to an
    uninterrupted run (given a deterministic backend)."""
    manifest = _read_manifest(config.run_dir)
    current = _manifest_for(config, dataset)
    for key in RESUME_KEYS:
        if key not in manifest:  # written before the key was recorded
            raise ManifestMismatch(f"manifest has no {key}; it cannot be resumed")
        got, want = manifest[key], current[key]
        if got == want:
            continue
        if isinstance(got, dict) and isinstance(want, dict):
            # name the parts that differ, not their (prompt or rubric) text
            parts = [k for k in {**want, **got} if got.get(k) != want.get(k)]
            raise ManifestMismatch(f"manifest {key} differs for {', '.join(parts)}")
        raise ManifestMismatch(f"manifest {key} is {got!r}, current run has {want!r}")
    return _execute(config, dataset, manifest)


def load_run(run_dir) -> RunResult:
    """Read a completed run directory back into a RunResult."""
    run_dir = Path(run_dir)
    manifest = _read_manifest(run_dir)
    records, failures, _ = _read_done(run_dir)
    records.sort(key=lambda r: r.response_id)
    failures.sort(key=lambda f: f[0])
    return RunResult(records=records, failures=failures, manifest=manifest)
