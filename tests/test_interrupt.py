"""Interrupting a real scoring process: the run directory it leaves is a
persisted prefix that resumes to the bytes of an uninterrupted run.

Each signal test starts tests/interrupt_child.py in a fresh interpreter,
waits until a record line reaches records.jsonl, signals the child and
then resumes in-process with an instant model.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import interrupt_child as child
from autoscore.backend import ScriptedBackend
from autoscore.pipeline import resume, score_dataset

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)

SRC = Path(__file__).resolve().parents[1] / "src"
TIMEOUT_S = 10.0


def _lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


def _start_and_signal(tmp_path, signum):
    """Run the child until its first record is on disk, then send signum.
    Returns the run dir, the calls file, and the calls begun before the
    signal went out."""
    run_dir, calls = tmp_path / "run", tmp_path / "calls.txt"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, str(Path(child.__file__)), str(run_dir), str(calls)],
        env=env, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + TIMEOUT_S
        while _lines(run_dir / "records.jsonl") == 0:
            assert proc.poll() is None, "the child ended before any record"
            assert time.monotonic() < deadline, "no record reached disk"
            time.sleep(0.005)
        calls_before = _lines(calls)
        # the first batch reaches disk once it is done, not when the run
        # ends or a write buffer fills: a few rounds of calls in at most
        assert calls_before <= 3 * child.PARALLELISM
        proc.send_signal(signum)
        assert proc.wait(timeout=TIMEOUT_S) == -signum
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=TIMEOUT_S)
    return run_dir, calls, calls_before


def _resume_matches_uninterrupted(tmp_path, run_dir):
    full = child.run_config(tmp_path / "full", ScriptedBackend(script=child.answer))
    score_dataset(full, child.dataset())
    expected = (full.run_dir / "records.jsonl").read_bytes()

    partial = (run_dir / "records.jsonl").read_bytes()
    persisted = partial.count(b"\n")
    assert 0 < persisted < child.N
    assert expected.startswith(partial)
    fresh = child.run_config(run_dir, ScriptedBackend(script=child.answer))
    result = resume(fresh, child.dataset())
    assert (run_dir / "records.jsonl").read_bytes() == expected
    assert len(result.records) == child.N
    # one call per response, and none for the persisted prefix
    assert fresh.backend.call_count == child.N - persisted


def test_sigkill_mid_run_leaves_a_resumable_prefix(tmp_path):
    run_dir, _, _ = _start_and_signal(tmp_path, signal.SIGKILL)
    _resume_matches_uninterrupted(tmp_path, run_dir)


def test_sigint_stops_after_the_calls_already_running(tmp_path):
    run_dir, calls, calls_before = _start_and_signal(tmp_path, signal.SIGINT)
    assert _lines(calls) - calls_before <= child.PARALLELISM
    _resume_matches_uninterrupted(tmp_path, run_dir)


def test_repeated_ctrl_c_never_hangs_a_run(tmp_path):
    # an interrupt can land in the calling thread at any bytecode; repeated
    # runs reach the rare landing points, and the child dumps every thread's
    # stack and exits 1 if one run hangs
    times = 500
    proc = subprocess.run(
        [sys.executable, str(Path(child.__file__)), "--ctrl-c", str(tmp_path),
         str(times)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    # an interrupt checked inside a finalizer is dropped, so a run may finish
    assert int(proc.stdout) > times // 2
