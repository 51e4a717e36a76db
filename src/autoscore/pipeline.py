"""Run orchestration: fan a dataset out over worker threads, time and
persist each record, and assemble a deterministic result.

A run is described by a RunConfig, which is frozen and checked when it is
built, and compiles each stage's prompt then; the manifest and the
prompts every worker sends come from the same fields.

Outcomes are appended to records.jsonl (failures to failures.jsonl) in
response_id order while the run goes on: whichever worker finishes the
oldest unwritten response writes and flushes every finished line at the
head, and once per window the calling thread fsyncs each file that gained
lines before they count as persisted. So the files on disk are always a
prefix of the final ordering, two runs of the same config are
byte-identical regardless of parallelism, and resuming skips that prefix.
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
from types import MappingProxyType

from . import agents
from .backend import read_jsonl
from .core import (AutoscoreError, ScoredRecord, ScoreRange, StudentResponse, TaskContext,
                   decode_json, integer_at_least)
from .ingest import Dataset, DatasetError
from .schema import ComponentSchema

logger = logging.getLogger(__name__)

PROGRESS_EVERY = 25
# the calling thread looks at the run once per window: it fsyncs the files
# that gained lines, logs progress and decides on seats. One worker runs
# until a window shows the process on the CPU for under half its length: on
# a run that never waits, a second worker only takes the interpreter lock
# from the one that holds the oldest unwritten response, and the lines then
# reach the file in one burst near the end. At most one fsync round a window.
WINDOW_S = 0.005

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


class RunDirConflict(AutoscoreError):
    """score_dataset refuses a directory that holds run files, or a path
    it cannot make a directory."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one scoring run needs: the mode, the backend handle, the
    task context (and schema for autoscore), and execution knobs; frozen,
    checked and its prompts compiled when it is built.

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
    # stage name -> prompt; __post_init__ fills in each one left out, read-only
    templates: dict[str, agents.PromptTemplate] = field(default_factory=dict)
    dataset_ref: str = ""
    imputation: str = "fail"
    max_output_tokens: int | None = None  # None keeps per-agent defaults
    # stage name -> its compiled prompt, in the mode's order; read-only
    prompts: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_dir", Path(self.run_dir))
        if self.mode not in STAGES:
            raise ValueError(f"unknown mode {self.mode!r}")
        integer_at_least(self.parallelism, "parallelism", 1)
        integer_at_least(self.max_retries, "max_retries", 1)
        if self.max_output_tokens is not None:
            integer_at_least(self.max_output_tokens, "max_output_tokens", 1)
        if type(self.seed) is not int:
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.mode == "autoscore" and self.schema is None:
            raise ValueError(f"item {self.context.item_id!r} has no component "
                             f"schema; autoscore needs one")
        templates = {stage: self.templates.get(stage) or agents.STAGES[stage].template
                     for stage in STAGES[self.mode]}
        object.__setattr__(self, "templates", MappingProxyType(templates))
        object.__setattr__(self, "prompts", MappingProxyType({  # raises on a bad one
            stage: agents.compile_prompt(stage, template, self.context, self.schema)
            for stage, template in templates.items()}))
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
        manifest = decode_json(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DatasetError(f"{run_dir} has no manifest") from None
    except OSError as exc:  # a run_dir that is a file, say
        raise DatasetError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # not UTF-8 or not JSON
        raise DatasetError(f"{path} does not parse: {exc}") from None
    if not isinstance(manifest, dict):
        raise DatasetError(f"{path} is not a JSON object")
    missing = [key for key in READ_KEYS if key not in manifest]
    if missing:
        raise DatasetError(f"{path} lacks {', '.join(missing)}")
    try:  # the values readers index must have the shape they index
        ScoreRange(**manifest["score_range"])
        shaped = manifest["mode"] in STAGES and all(
            isinstance(manifest["context"][key], str)
            for key in ("question", "rubric_text"))
    except (TypeError, KeyError, ValueError):
        shaped = False
    if not shaped:
        raise DatasetError(f"{path} has a malformed score_range, mode or context")
    for key in ("item_id", "dataset_ref", "dataset_digest", "model_name", "backend_identity"):
        if not isinstance(manifest[key], str):  # keys, headings and file names
            raise DatasetError(f"{path} has a malformed {key}")
    return manifest


def _score_one(config: RunConfig, response: StudentResponse):
    """Run the mode's stages, with their compiled prompts, for one response:
    ("record" | "failure", its JSON line, the value). Domain errors become
    failure entries (or, for a scoring stage under the "floor" policy, a
    record of the rubric minimum that keeps the failed attempts); anything
    else aborts the run."""
    outcomes: list[agents.AgentOutcome] = []
    value = config.schema  # each stage works from the value of the one before
    try:
        for stage, prompt in config.prompts.items():
            # entered through the module attribute, looked up per call, so a
            # wrapper set on agents.run_<stage> sees it
            outcome = getattr(agents, f"run_{stage}")(
                config.backend, config.context, response, value,
                template=prompt,
                max_retries=config.max_retries,
                max_output_tokens=config.max_output_tokens,
            )
            outcomes.append(outcome)
            value = outcome.value
        predicted = value
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
    entry = decode_json(line)
    response_id, error = entry["response_id"], entry["error"]
    if type(response_id) is not str or type(error) is not str:
        raise ValueError(f"response_id and error must be strings, "
                         f"got {response_id!r} and {error!r}")
    return response_id, error


def _read_done(run_dir: Path, mode: str):
    """Read back persisted records and failures, skipping a torn trailing
    line in either file, and refuse a record whose mode is not `mode`, the
    manifest's, which every reader goes by. Also returns the intact byte
    length of each file, where the next append must start."""
    records, records_end = read_jsonl(
        run_dir / RECORDS, ScoredRecord.from_jsonl_line, DatasetError
    )
    for number, record in enumerate(records, start=1):
        if record.mode != mode:
            raise DatasetError(f"{run_dir / RECORDS} line {number}: mode {record.mode!r} "
                               f"in a run of mode {mode!r}")
    failures, failures_end = read_jsonl(
        run_dir / FAILURES, _failure_from_line, DatasetError
    )
    return records, failures, (records_end, failures_end)


def _check_order(run_dir: Path, records, failures) -> None:
    """Refuse what the response_id order lines are written in rules out: a
    line whose id does not follow the one before it in its file (numbered
    among the file's entries, which are its lines, as the program writes no
    blank line), and an id in both files."""
    for name, ids in ((RECORDS, [r.response_id for r in records]),
                      (FAILURES, [rid for rid, _ in failures])):
        for number, (before, after) in enumerate(zip(ids, ids[1:]), start=2):
            if after <= before:
                raise DatasetError(f"{run_dir / name} line {number}: response_id "
                                   f"{after!r} does not follow {before!r}")
    both = {r.response_id for r in records}.intersection(rid for rid, _ in failures)
    if both:
        raise DatasetError(f"{run_dir / FAILURES}: response_id {min(both)!r} "
                           f"is in {RECORDS} too")


def _execute(config: RunConfig, dataset: Dataset, manifest: dict) -> RunResult:
    records, failures, intact = _read_done(config.run_dir, manifest["mode"])
    done_ids = {r.response_id for r in records} | {rid for rid, _ in failures}
    ordered = sorted(dataset.responses, key=lambda r: r.response_id)

    # outcomes are persisted in response_id order, so they form a prefix (a
    # stale id, one not in the dataset, fails this too)
    prefix_len = len(done_ids)
    if {r.response_id for r in ordered[:prefix_len]} != done_ids:
        raise DatasetError(
            "persisted ids are not a prefix of the dataset ordering; "
            "the run dir is corrupt or belongs to another dataset"
        )
    _check_order(config.run_dir, records, failures)
    todo = ordered[prefix_len:]

    with (config.run_dir / RECORDS).open("a", encoding="utf-8") as rec, \
            (config.run_dir / FAILURES).open("a", encoding="utf-8") as fail:
        # cut torn tails off, so the next line does not glue onto them
        rec.truncate(intact[0])
        fail.truncate(intact[1])
        files = {"record": (rec, records), "failure": (fail, failures)}
        # only the workers take `lock`, so an interrupt that lands in the
        # calling thread, even just as it took some lock, cannot leave one
        # held that a worker waits for. Under the lock: parked outcomes and
        # the next position to claim and to write.
        lock = threading.Lock()
        parked: dict[int, tuple] = {}
        claimed, head = 0, 0
        stopping = False  # set on abort: no further response is claimed
        # to the calling thread: the exception that ends the run, or None
        # once the last line is written, so its wait ends early only then
        ended = queue.SimpleQueue()
        # a worker claims nothing before it takes a seat: one gets it at the
        # start, the others once the process is seen waiting. No thread is
        # started mid-run, since an interrupt inside Thread.start can leave
        # one that is_alive does not report yet and the join below misses;
        # a put is one call, done or not.
        seats = queue.SimpleQueue()

        def work() -> None:
            nonlocal claimed, head, stopping
            position = None
            try:
                seats.get()
                while True:
                    with lock:
                        if position is not None:
                            parked[position] = outcome
                            while head in parked:
                                kind, line, payload = parked.pop(head)
                                files[kind][0].write(line + "\n")
                                files[kind][0].flush()
                                files[kind][1].append(payload)  # once it is flushed
                                head += 1
                            if head == len(todo):
                                ended.put(None)
                        if claimed == len(todo) or stopping:
                            return
                        position, claimed = claimed, claimed + 1
                    outcome = _score_one(config, todo[position])
            except BaseException as exc:  # re-raised by the calling thread
                stopping = True
                ended.put(exc)

        workers, synced, started = [], 0, time.monotonic()
        counted = {kind: len(appended) for kind, (_, appended) in files.items()}
        unseated, window = config.parallelism - 1, (started, time.process_time())
        try:
            for _ in range(config.parallelism):
                workers.append(threading.Thread(target=work))
                workers[-1].start()
            seats.put(None)
            while synced < len(todo):
                try:
                    failed = ended.get(timeout=WINDOW_S)
                except queue.Empty:
                    failed = None
                if failed is not None:
                    raise failed
                # a worker appends a payload only after its line is written
                # and flushed, so an fsync covers every line counted before it
                last, counted = counted, {kind: len(files[kind][1]) for kind in files}
                for kind in files:
                    if counted[kind] > last[kind]:
                        os.fsync(files[kind][0].fileno())  # persisted now
                written = synced + sum(counted.values()) - sum(last.values())
                done = prefix_len + written
                if done // PROGRESS_EVERY > (prefix_len + synced) // PROGRESS_EVERY:
                    rate = written / (time.monotonic() - started)
                    logger.info("persisted %d/%d responses (%.1f responses/s, "
                                "ETA %.0f s)", done, len(ordered), rate,
                                (len(todo) - written) / rate)
                synced = written
                if unseated:
                    now, cpu = time.monotonic(), time.process_time()
                    # the process waited (on a model, say) for over half the
                    # window: more workers can use that time
                    if cpu - window[1] < (now - window[0]) / 2:
                        for _ in range(unseated):
                            seats.put(None)
                        unseated = 0
                    window = (now, cpu)
        finally:
            stopping = True
            for _ in workers:  # a worker still waiting for a seat returns
                seats.put(None)
            for worker in filter(threading.Thread.is_alive, workers):
                worker.join()
            if synced < len(todo):  # lines an abort left written but unsynced
                for handle, _ in files.values():
                    os.fsync(handle.fileno())

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
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RunDirConflict(f"cannot make {run_dir} a directory: {exc.strerror}") from None
    if (run_dir / MANIFEST).exists():
        raise RunDirConflict(f"{run_dir} already contains a run; use resume instead")
    for name in (RECORDS, FAILURES):  # left by a run whose manifest is gone
        if (run_dir / name).exists():
            raise RunDirConflict(f"{run_dir / name} exists with no manifest; "
                                 f"score into a directory without run files")
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
            raise DatasetError(f"manifest has no {key}; it cannot be resumed")
        got, want = manifest[key], current[key]
        if got == want:
            continue
        if isinstance(got, dict) and isinstance(want, dict):
            # name the parts that differ, not their (prompt or rubric) text
            parts = [k for k in {**want, **got} if got.get(k) != want.get(k)]
            raise DatasetError(f"manifest {key} differs for {', '.join(parts)}")
        raise DatasetError(f"manifest {key} is {got!r}, current run has {want!r}")
    return _execute(config, dataset, manifest)


def load_run(run_dir) -> RunResult:
    """Read a completed run directory back into a RunResult."""
    run_dir = Path(run_dir)
    manifest = _read_manifest(run_dir)
    records, failures, _ = _read_done(run_dir, manifest["mode"])
    _check_order(run_dir, records, failures)
    return RunResult(records=records, failures=failures, manifest=manifest)
