"""One scoring run in a process of its own, for test_interrupt.py.

    PYTHONPATH=src python tests/interrupt_child.py RUN_DIR CALLS_FILE

Scores N responses in baseline mode at PARALLELISM through a scripted
model that appends one line to CALLS_FILE as each call starts and then
sleeps CALL_S, so the run lasts long enough to be interrupted mid-way.
The tests import this module to score the same dataset in-process.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

from autoscore.backend import ScriptedBackend
from autoscore.core import ScoreRange, StudentResponse, TaskContext
from autoscore.ingest import Dataset, DatasetSpec
from autoscore.pipeline import RunConfig, score_dataset

N = 40
PARALLELISM = 4
CALL_S = 0.1
IDS = [f"i{k:03d}" for k in range(N)]


def dataset() -> Dataset:
    spec = DatasetSpec(
        family="sas", tsv_path="(synthetic)", essay_set=1,
        item_id="interrupt", score_range=ScoreRange(0, 3),
    )
    return Dataset(spec=spec, responses=tuple(
        StudentResponse(rid, "interrupt", f"interrupt response {rid}.", k % 4)
        for k, rid in enumerate(IDS)
    ))


def answer(request) -> str:
    blob = "\n".join(content for _, content in request.messages)
    rid = next(r for r in IDS if f"interrupt response {r}." in blob)
    return json.dumps({"score": int(rid[1:]) * 3 % 4})


def run_config(run_dir, backend) -> RunConfig:
    context = TaskContext(
        "interrupt", "Q?", "Score 3: ... Score 0: ...", ScoreRange(0, 3),
    )
    return RunConfig(
        mode="baseline", run_dir=Path(run_dir), backend=backend,
        context=context, parallelism=PARALLELISM, dataset_ref="interrupt",
    )


def main(run_dir: str, calls_file: str) -> None:
    # a parent that ignores SIGINT would otherwise pass that on to us
    signal.signal(signal.SIGINT, signal.default_int_handler)

    def slow(request) -> str:
        with open(calls_file, "a", encoding="utf-8") as handle:
            handle.write("call\n")
        time.sleep(CALL_S)
        return answer(request)

    score_dataset(run_config(run_dir, ScriptedBackend(script=slow)), dataset())


if __name__ == "__main__":
    main(*sys.argv[1:])
