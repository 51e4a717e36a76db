"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each autoscore module from the
outside (module attributes and class attributes), plus the ``os.fsync``
that ``pipeline`` calls (a no-op where the child made it one), so nothing
under ``src/`` knows it is traced. A span is (id, name, start, end,
parent id, response id); spans nest per thread, and a span inherits the
response id of its parent. Spans stay in memory until the run ends.
``summarize`` turns them into the per-layer metrics; a layer is the
module a span's function lives in.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
import types
from collections import defaultdict

LAYERS = ("ingest", "config", "backend", "agents", "schema", "core",
          "pipeline", "metrics")
AGENT_SPANS = ("agents.run_extraction", "agents.run_scoring",
               "agents.run_baseline")
COMPLETE_SPANS = ("backend.CachingBackend.complete",
                  "backend.RemoteBackend.complete",
                  "backend.ScriptedBackend.complete")


class SpanRecorder:
    """Collects spans from wrapped functions, on any thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name: str, rid_of=None):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else (None, None)
            rid = rid_of(args) if rid_of is not None else parent[1]
            sid = next(ids)
            stack.append((sid, rid))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent[0], rid))

        return traced

    def patch(self, owner, attr: str, name: str, rid_of=None) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, rid_of)))
        else:
            setattr(owner, attr, self.wrap(raw, name, rid_of))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _response_id(args):
    for arg in args:
        if hasattr(arg, "response_id") and hasattr(arg, "text"):
            return arg.response_id
    return None


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer boundaries of the imported autoscore package."""
    from autoscore import agents, backend, config, core, ingest, metrics, pipeline

    patch = recorder.patch
    patch(ingest, "load_dataset", "ingest.load_dataset")
    patch(config, "load_config", "config.load_config")
    patch(config, "build_backend", "config.build_backend")
    patch(config, "compile_schema", "schema.compile_schema")
    for module in (backend, agents):
        patch(module, "request_digest", "backend.request_digest")
    for cls in (backend.CachingBackend, backend.RemoteBackend,
                backend.ScriptedBackend):
        patch(cls, "complete", f"backend.{cls.__name__}.complete")
    patch(backend.CachingBackend, "__init__", "backend.CachingBackend.__init__")
    for fn in ("run_extraction", "run_scoring", "run_baseline"):
        patch(agents, fn, f"agents.{fn}", _response_id)
    patch(agents, "render", "agents.render")
    patch(agents, "parse_score", "agents.parse_score")
    patch(agents, "extract_json_block", "schema.extract_json_block")
    patch(agents, "validate_representation", "schema.validate_representation")
    patch(core.ScoredRecord, "to_jsonl_line", "core.to_jsonl_line",
          lambda args: args[0].response_id)
    patch(core.ScoredRecord, "from_jsonl_line", "core.from_jsonl_line")
    patch(pipeline, "score_dataset", "pipeline.score_dataset")
    patch(pipeline, "load_run", "pipeline.load_run")
    patch(metrics, "evaluate_run", "metrics.evaluate_run")
    pipeline_os = types.SimpleNamespace(**vars(pipeline.os))
    pipeline_os.fsync = recorder.wrap(pipeline.os.fsync, "pipeline.fsync")
    pipeline.os = pipeline_os


def percentile(values: list[float], q: float) -> float:
    """The q-quantile (q in hundredths) by linear interpolation; 0 when
    there are no values, since a per-layer figure may not apply."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def summarize(spans: list[tuple], n: int, parallelism: int, score_wall_s: float,
              injected_latency_s: float, stub: dict | None,
              model_calls: int) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append(s)

    def dur(s):
        return s[3] - s[2]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children[s[0]])

    def ancestors(s):
        while s[4] is not None:
            s = by_id[s[4]]
            yield s

    out = {}
    out["ingest.load_s"] = (total("ingest.load_dataset"), "s")
    out["config.load_s"] = (total("config.load_config"), "s")
    out["backend.cache_index_load_s"] = (total("backend.CachingBackend.__init__"), "s")

    agent_calls = [c for name in AGENT_SPANS for a in by_name[name]
                   for c in children[a[0]] if c[1] in COMPLETE_SPANS]
    call_ms = sorted(dur(c) * 1000 for c in agent_calls)
    n_calls = len(agent_calls)
    out["backend.complete.count"] = (n_calls, "count")
    out["backend.complete.p50_ms"] = (percentile(call_ms, 0.5), "ms")
    out["backend.complete.p99_ms"] = (percentile(call_ms, 0.99), "ms")
    overhead_ms = sorted((dur(s) - injected_latency_s) * 1000
                         for s in by_name["backend.RemoteBackend.complete"])
    out["backend.transport_overhead_p50_ms"] = (percentile(overhead_ms, 0.5), "ms")
    stub_requests = stub["requests"] if stub else 0
    out["backend.connections_per_call"] = (
        stub["connections"] / stub_requests if stub_requests else 0.0, "ratio")

    cache_calls = by_name["backend.CachingBackend.complete"]
    misses = [(s, inner) for s in cache_calls for inner in children[s[0]]
              if inner[1] in COMPLETE_SPANS]
    hits = len(cache_calls) - len(misses)
    out["backend.cache_hit_share"] = (hits / n_calls if n_calls else 0.0, "ratio")
    out["backend.cache_write_s"] = (sum(dur(s) - dur(inner) for s, inner in misses), "s")
    out["backend.model_calls_per_response"] = (model_calls / n, "calls/response")

    digests = by_name["backend.request_digest"]
    out["backend.request_digest.count"] = (len(digests), "count")
    out["backend.request_digest.time_s"] = (sum(dur(s) for s in digests), "s")
    out["backend.digests_per_call"] = (len(digests) / n_calls if n_calls else 0.0, "ratio")

    out["agents.render.count"] = (len(by_name["agents.render"]), "count")
    out["agents.render.time_s"] = (total("agents.render"), "s")
    for name in AGENT_SPANS:
        out[f"{name}.self_s"] = (sum(self_time(s) for s in by_name[name]), "s")
    agent_spans = [a for name in AGENT_SPANS for a in by_name[name]]
    calls_per_agent = [sum(1 for c in children[a[0]] if c[1] in COMPLETE_SPANS)
                       for a in agent_spans]
    out["agents.first_attempt_ok_share"] = (
        sum(1 for k in calls_per_agent if k == 1) / len(agent_spans)
        if agent_spans else 0.0, "ratio")
    out["agents.retries_per_response"] = (
        sum(k - 1 for k in calls_per_agent) / n, "calls/response")

    out["schema.extract_json_block.time_s"] = (total("schema.extract_json_block"), "s")
    out["schema.validate_representation.time_s"] = (
        total("schema.validate_representation"), "s")
    out["agents.parse_score.time_s"] = (total("agents.parse_score"), "s")
    out["core.to_jsonl_line.time_s"] = (total("core.to_jsonl_line"), "s")
    out["core.from_jsonl_line.count_in_score"] = (
        sum(1 for s in by_name["core.from_jsonl_line"]
            if any(a[1] == "pipeline.score_dataset" for a in ancestors(s))),
        "count")
    out["pipeline.fsync.count"] = (len(by_name["pipeline.fsync"]), "count")
    out["pipeline.fsync.time_s"] = (total("pipeline.fsync"), "s")
    out["pipeline.worker_busy_share"] = (
        sum(dur(a) for a in agent_spans) / (parallelism * score_wall_s), "ratio")
    out["pipeline.load_run_s"] = (total("pipeline.load_run"), "s")
    out["metrics.evaluate_run_s"] = (total("metrics.evaluate_run"), "s")

    for layer in LAYERS:
        mine = [s for s in spans if s[1].split(".", 1)[0] == layer]
        outermost = [s for s in mine if not any(
            a[1].split(".", 1)[0] == layer for a in ancestors(s))]
        out[f"{layer}.count"] = (len(mine), "count")
        out[f"{layer}.busy_s"] = (sum(dur(s) for s in outermost), "s")
        out[f"{layer}.self_s"] = (sum(self_time(s) for s in mine), "s")
    return out
