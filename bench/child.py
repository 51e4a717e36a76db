"""One benchmark run in a fresh interpreter: set up, score, evaluate.

It drives autoscore through the calls ``autoscore score`` and
``autoscore evaluate`` make: load_config, load_dataset, build_backend (or
a directly built ScriptedBackend), score_dataset, load_run, evaluate_run.
The parent process times set-up from before it spawns this process until
``ready`` below, polls records.jsonl while this process scores, and reads
peak RSS from wait4.

Usage: python3 child.py SPEC_JSON, where the spec names the workload's
config, mode, run directory, result file and, for a traced run, a spans
file. A spec with ``"fsync": false`` makes the fsync that ``pipeline``
calls a no-op. A spec with ``"prep": true`` fills the cache of the cached
workload instead: it runs every mode over a scripted backend behind the
cache.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

EVALUATE_MIN_S = 0.2


class CountingBackend:
    """Counts the calls the agents make into the backend layer, cache hits
    included; every other attribute is the wrapped backend's."""

    def __init__(self, inner):
        self.inner = inner
        self.model_name = inner.model_name
        self.identity = inner.identity
        self._calls = itertools.count()  # next() is atomic across threads

    def complete(self, request):
        next(self._calls)
        return self.inner.complete(request)

    def calls(self) -> int:
        """Calls so far (the counter's next value)."""
        return next(self._calls)


def main(spec: dict) -> None:
    if not spec.get("fsync", True):
        from autoscore import pipeline

        pipeline.os = types.SimpleNamespace(**vars(os))
        pipeline.os.fsync = lambda fd: None
    recorder = None
    if spec.get("spans"):
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)

    from autoscore import backend as backend_mod
    from autoscore import config as config_mod
    from autoscore import ingest, metrics, pipeline

    config = config_mod.load_config(spec["config"])
    item = config.item(spec["item"])
    dataset = ingest.load_dataset(item.dataset_spec)
    script_load_s = 0.0
    if spec.get("script"):
        started = time.monotonic()
        import gen

        script = json.loads(Path(spec["script"]).read_text(encoding="utf-8"))
        script_load_s = time.monotonic() - started
        model = backend_mod.ScriptedBackend(
            script=lambda request: gen.answer(script, request.messages),
            model_name=config.backend_settings["model"],
        )
        if spec.get("prep"):
            model = backend_mod.CachingBackend(model, spec["cache"])
    else:
        model = config_mod.build_backend(config)
    run = config.run_settings
    counted = CountingBackend(model)

    def run_config(mode: str, run_dir: str) -> pipeline.RunConfig:
        return pipeline.RunConfig(
            mode=mode,
            run_dir=Path(run_dir),
            backend=counted,
            context=item.context,
            schema=item.schema if mode == "autoscore" else None,
            parallelism=int(run["parallelism"]),
            max_retries=int(run["max_retries"]),
            seed=int(run["seed"]),
            templates=item.templates,
            dataset_ref=spec["item"],
            imputation=run["imputation"],
        )

    if spec.get("prep"):
        for mode in ("autoscore", "baseline"):
            pipeline.score_dataset(run_config(mode, f"{spec['run_dir']}-{mode}"),
                                   dataset)
        return

    cfg = run_config(spec["mode"], spec["run_dir"])
    ready = time.monotonic()
    pipeline.score_dataset(cfg, dataset)
    scored = time.monotonic()
    # the evaluate path is short on small runs, so an untraced run repeats
    # it for at least EVALUATE_MIN_S
    evaluate_times = []
    while not evaluate_times or recorder is None and (
            len(evaluate_times) < 3 or sum(evaluate_times) < EVALUATE_MIN_S):
        started = time.monotonic()
        report = metrics.evaluate_run(pipeline.load_run(cfg.run_dir))
        evaluate_times.append(time.monotonic() - started)

    result = {
        "ready": ready,
        "script_load_s": script_load_s,
        "scored": scored,
        "evaluate_s": evaluate_times,
        "n": len(dataset),
        "parallelism": cfg.parallelism,
        "backend_calls": counted.calls(),
        "script_calls": getattr(model, "call_count", None),
        "report": {"n": report.n, "failures": report.failures,
                   "qwk": report.qwk},
    }
    if recorder is not None:
        recorder.write(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
