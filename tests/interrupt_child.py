"""Scoring runs in a process of their own, for test_interrupt.py.

    PYTHONPATH=src python tests/interrupt_child.py RUN_DIR CALLS_FILE

scores N responses in baseline mode at PARALLELISM through a scripted
model that appends one line to CALLS_FILE as each call starts and then
sleeps CALL_S, so the run lasts long enough to be interrupted mid-way.
The tests import this module to score the same dataset in-process.

    PYTHONPATH=src python tests/interrupt_child.py --ctrl-c WORK_DIR TIMES

interrupts TIMES short runs from a worker thread, as Ctrl-C would; see
interrupt_repeatedly.
"""

from __future__ import annotations

import _thread
import faulthandler
import json
import shutil
import signal
import sys
import threading
import time
from pathlib import Path

from autoscore.backend import ScriptedBackend
from autoscore.core import ScoreRange, StudentResponse, TaskContext
from autoscore.ingest import Dataset
from autoscore.pipeline import RunConfig, score_dataset

N = 40
PARALLELISM = 4
CALL_S = 0.1
HANG_S = 5
IDS = [f"i{k:03d}" for k in range(N)]


def dataset(n: int = N) -> Dataset:
    return Dataset(responses=tuple(
        StudentResponse(rid, f"interrupt response {rid}.", k % 4)
        for k, rid in enumerate(IDS[:n])
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


def interrupt_repeatedly(work_dir: str, times: str) -> None:
    """Score 20 responses at PARALLELISM through an instant model whose
    call about i005 interrupts the calling thread, `times` times over. Each
    run must end within HANG_S, or every thread's stack is dumped and the
    process exits 1; no worker thread may outlive a run. Prints how many
    runs ended in KeyboardInterrupt."""
    before = set(threading.enumerate())

    def interrupting(request) -> str:
        if "interrupt response i005." in request.messages[-1][1]:
            _thread.interrupt_main()
        return answer(request)

    interrupted = 0
    for attempt in range(int(times)):
        run_dir = Path(work_dir) / f"run{attempt}"
        faulthandler.dump_traceback_later(HANG_S, exit=True)
        try:
            score_dataset(
                run_config(run_dir, ScriptedBackend(script=interrupting)), dataset(20)
            )
        except KeyboardInterrupt:
            interrupted += 1
        if set(threading.enumerate()) - before:
            sys.exit(f"run {attempt} left worker threads behind")
        shutil.rmtree(run_dir)
    faulthandler.cancel_dump_traceback_later()
    print(interrupted)


if __name__ == "__main__":
    if sys.argv[1] == "--ctrl-c":
        interrupt_repeatedly(*sys.argv[2:])
    else:
        main(*sys.argv[1:])
