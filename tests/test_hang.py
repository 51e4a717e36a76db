"""A test that hangs fails the suite: the faulthandler timer set in
pyproject.toml prints every thread's stack and ends the pytest process.

The check runs pytest under the repository's own configuration on a test
that blocks forever, with the bound lowered to 1 s for that process."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

BLOCKS_FOREVER = """
import threading


def park():
    threading.Event().wait()


def test_blocks_forever():
    threading.Thread(target=park, daemon=True).start()
    threading.Event().wait()
"""


def test_a_hung_test_ends_pytest_with_every_stack_printed(tmp_path):
    test_file = tmp_path / "test_blocks.py"
    test_file.write_text(BLOCKS_FOREVER)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-o", "faulthandler_timeout=1", str(test_file)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "Timeout (0:00:01)!" in done.stderr
    # the frames of the test's own thread and of the one it started
    assert "in test_blocks_forever" in done.stderr
    assert "in park" in done.stderr
