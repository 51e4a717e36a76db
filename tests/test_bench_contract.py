"""The traced benchmark (bench/spans.py) wraps autoscore's functions by
name from the outside. This runs the demo under those wrappers in a child
interpreter, so a refactor that removes or renames a wrapped attribute
fails here instead of in the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import sys
root, out = sys.argv[1], sys.argv[2]
sys.path[:0] = [root + "/bench", root + "/src"]
import spans
recorder = spans.SpanRecorder()
spans.install(recorder)
from autoscore.cli import main
runs = []
for mode in ("baseline", "autoscore"):
    runs += ["--run", f"{out}/{mode}"]
    code = main(["score", "--config", root + "/demo/config.yaml", "--item",
                 "science", "--mode", mode, "--out", f"{out}/{mode}"])
    if code:
        sys.exit(code)
code = main(["evaluate", *runs, "--out", out + "/reports"])
print(sorted({span[1] for span in recorder.spans}))
sys.exit(code)
"""


def test_demo_scores_under_benchmark_tracing(tmp_path):
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in ("agents.run_extraction", "agents.run_scoring",
                 "agents.run_baseline", "pipeline.fsync",
                 "metrics.evaluate_run"):
        assert f"'{name}'" in done.stdout
