"""autoscore benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The benchmark
generates its inputs from the seed (gen.py), then starts one fresh child
interpreter after another (child.py), each a complete ``score`` plus
``evaluate`` over the same inputs, until S seconds have passed. This
process stays light: it polls records.jsonl to see when each record
reaches disk, reads each child's peak RSS through wait4, and checks every
run directory against the expected table (check.py).

Workloads (every one at parallelism 2, the machine's nproc when the
benchmark was written, so no more client threads or connections than
that):

- sas_autoscore_instant: short answers, autoscore mode, a scripted backend
  that answers at once. Every second is orchestration: render, digest,
  parse/validate, record serialisation, per-record fsync, end-of-run
  reread. Transport changes should read "no change" here.
- aes_autoscore_remote: essays, autoscore mode, the real RemoteBackend
  built by config against the loopback stub (stub.py, 10 ms per call),
  with a cold write-through cache. Model time dominates, as in real use.
- aes_baseline_cached: the same essay generator (the remote corpus is its
  prefix), baseline mode with floor imputation, behind a warm cache that
  also holds the autoscore entries of the corpus. The stub must receive no
  request. Reads the cache layer; bypasses validation and transport, and
  durability too: its child turns the fsync pipeline makes per record into
  a no-op. There the per-record fsync to the shared disk took about 40% of
  scoring time and drifted about twice as much as the rest from run to
  run, so it hid the cache path; sas_autoscore_instant measures it.

End-to-end metrics (--trace 0), each the median over the run's children
of that child's figure, except evaluate_s, the mean over every
repetition of every child:

- responses_per_s: responses settled (record or expected failure) per
  second of score_dataset wall time, at the workload's corpus size;
- setup_s: from before the child is spawned until it is ready to score
  (interpreter, imports, TSV load, schema compile, config load, backend
  construction with any cache index load), less the scripted model's own
  table load on the instant workload;
- record_visible_p50_s, record_visible_p99_s: per record, from the start
  of scoring until its line is seen on disk by this process's poll;
- peak_rss_mb: the child's peak RSS from wait4;
- evaluate_s: load_run plus evaluate_run on the finished run directory;
- outcome_match_share: responses whose outcome matches the expected table,
  over responses attempted (1 - error rate; a metric may not be 0);
- backend_calls_per_response: calls the agents make into the backend,
  cache hits included. The calls that reach the model (0 on the cached
  workload) are the per-layer backend.model_calls_per_response, and must
  equal what the seed implies or the run counts as wrong.

With --trace 1 untraced and traced children alternate; the result carries
the per-layer metrics (spans.py), each the median over the traced
children, and the tracing overhead: traced minus untraced responses_per_s.

The last line of standard output is the JSON result (with --workload all,
one such line closes each workload); the lines before it are the same
figures for people, the error rate, the record-visibility sample count,
the environment stamp and, with --trace 1, the per-layer table. A full
copy goes to bench/out/. The exit code is 1 when any output is wrong and 2
when the program is missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import http.client
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

PARALLELISM = 2
STUB_LATENCY_MS = 10.0
POLL_S = 0.005
CHILD_TIMEOUT_S = 120.0
MIN_CHILDREN = 3

WORKLOADS = {
    "sas_autoscore_instant": {"family": "sas", "n": 2000, "mode": "autoscore",
                              "backend": "scripted", "imputation": "fail",
                              "deterministic": True},
    "aes_autoscore_remote": {"family": "aes", "n": 50, "mode": "autoscore",
                             "backend": "remote", "cache": "cold",
                             "imputation": "fail", "deterministic": False},
    "aes_baseline_cached": {"family": "aes", "n": 1500, "mode": "baseline",
                            "backend": "remote", "cache": "warm",
                            "imputation": "floor", "deterministic": True,
                            "fsync": False},
}

END_TO_END = {
    "responses_per_s": "responses/s",
    "setup_s": "s",
    "record_visible_p50_s": "s",
    "record_visible_p99_s": "s",
    "peak_rss_mb": "MB",
    "evaluate_s": "s",
    "outcome_match_share": "ratio",
    "backend_calls_per_response": "calls/response",
}

LIMITS = (
    "no page-cache dropping: the TSV, cache and run files are warm in the page cache",
    "no host tracing: spans come from wrappers in the benchmark's own files",
    "fsync goes to the disk under the run directory, which other tenants share",
    "aes_baseline_cached turns pipeline's per-record fsync into a no-op",
)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env["AUTOSCORE_API_KEY"] = "bench-key"
    return env


def _read_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def _fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    target = str(path.resolve())
    with open("/proc/self/mountinfo", encoding="utf-8") as handle:
        for line in handle:
            fields = line.split()
            mount_point = fields[4]
            fs = fields[fields.index("-") + 1]
            if (target == mount_point or target.startswith(mount_point.rstrip("/") + "/")) \
                    and len(mount_point) >= len(best):
                best, kind = mount_point, fs
    return kind


def _fsync_p50_us(work: Path) -> float:
    probe = work / "fsync-probe"
    times = []
    with probe.open("a", encoding="utf-8") as handle:
        for _ in range(64):
            handle.write("x" * 512 + "\n")
            handle.flush()
            start = time.monotonic()
            os.fsync(handle.fileno())
            times.append(time.monotonic() - start)
    probe.unlink()
    return statistics.median(times) * 1e6


def environment(work: Path) -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        requests_version = metadata.version("requests")
    except metadata.PackageNotFoundError:
        requests_version = "unknown"
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "autoscore").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "run_dir_fs": _fs_type(work),
        "fsync_p50_us": round(_fsync_p50_us(work), 1),
        "python": platform.python_version(),
        "requests": requests_version,
        "commit": _read_commit(),
        "src_sha256": src_digest.hexdigest(),
        "limits": list(LIMITS),
    }


class StubProcess:
    """The loopback model server, in its own process."""

    def __init__(self, script: Path, work: Path):
        self.log = (work / "stub.log").open("wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), str(script), str(STUB_LATENCY_MS)],
            stdout=subprocess.PIPE, stderr=self.log, env=_child_env(),
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError("stub did not start; see stub.log")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats", headers={"Connection": "close"})
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def run_child(spec: dict, work: Path, records: Path | None) -> dict:
    """Start one child, poll records.jsonl until it exits, and reap it with
    wait4. Returns spawn time, record sighting times, exit code, peak RSS."""
    log = work / "child.log"
    with log.open("wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                stdout=subprocess.DEVNULL, stderr=stderr, env=_child_env())
        seen: list[float] = []
        size = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                now = time.monotonic()
                if records is not None:
                    size = _sight(records, size, now, seen)
                if pid:
                    break
                if now - spawned > CHILD_TIMEOUT_S:
                    proc.kill()
                time.sleep(POLL_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(log.read_text(encoding="utf-8", errors="replace")[-4000:])
    return {"spawned": spawned, "seen": seen, "rc": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _sight(path: Path, size: int, now: float, seen: list[float]) -> int:
    """Note the time of every complete line past byte ``size``; return the
    offset after the last complete line."""
    try:
        new_size = path.stat().st_size
    except FileNotFoundError:
        return size
    if new_size > size:
        with path.open("rb") as handle:
            handle.seek(size)
            chunk = handle.read(new_size - size)
        complete = chunk.rfind(b"\n") + 1
        seen.extend([now] * chunk.count(b"\n"))
        return size + complete
    return size


class Workload:
    """A workload's generated inputs, its stub if it has one, and the
    state its runs share: the reference records for the byte check."""

    def __init__(self, name: str, seed: int, work: Path):
        self.w = WORKLOADS[name]
        self.work = work
        family = self.w["family"]
        corpus = gen.build_corpus(seed, family, self.w["n"])
        self.expected = {c["id"]: c["expected"] for c in corpus}
        self.tsv = work / f"{family}.tsv"
        self.script = work / "script.json"
        self.config = work / "config.json"
        self.cache = work / "cache.jsonl"
        gen.write_tsv(self.tsv, family, corpus)
        gen.write_json(self.script, corpus, "script")
        self.stub = None
        backend = {"kind": "scripted"}
        if self.w["backend"] == "remote":
            self.stub = StubProcess(self.script, work)
            backend = {"kind": "remote", "base_url": self.stub.url,
                       "max_in_flight": PARALLELISM, "timeout_s": 30,
                       "cache_path": str(self.cache)}
        gen.write_config(self.config, family, self.tsv, backend,
                         self.w["imputation"], seed)
        self.prep_s = 0.0
        if self.w.get("cache") == "warm":
            self._fill_cache()
        # write the inputs back now, not in the kernel's own time (about
        # 30 s later), when that writeback would slow the measured fsyncs
        for path in (self.tsv, self.script, self.config, self.cache):
            if path.exists():
                with path.open("rb") as handle:
                    os.fsync(handle.fileno())
        self.reference_lines = None
        self.runs = 0

    def _fill_cache(self) -> None:
        """Untimed: run every mode once over the scripted model behind the
        cache, so the index holds every request the measured run makes
        (retry prompts included) and the autoscore entries besides."""
        start = time.monotonic()
        spec = {"prep": True, "config": str(self.config), "item": self.w["family"],
                "script": str(self.script), "cache": str(self.cache),
                "run_dir": str(self.work / "prep")}
        if run_child(spec, self.work, None)["rc"] != 0:
            raise RuntimeError("cache preparation failed")
        shutil.rmtree(self.work / "prep-autoscore")
        shutil.rmtree(self.work / "prep-baseline")
        self.prep_s = time.monotonic() - start

    def measure(self, traced: bool) -> dict:
        """One child run: its end-to-end figures, its correctness, and with
        tracing its per-layer figures."""
        k = self.runs
        self.runs += 1
        run_dir = self.work / f"run{k}"
        result_path = self.work / f"result{k}.json"
        spans_path = self.work / f"spans{k}.jsonl"
        if self.w.get("cache") == "cold" and self.cache.exists():
            self.cache.unlink()
        spec = {"config": str(self.config), "item": self.w["family"],
                "mode": self.w["mode"], "run_dir": str(run_dir),
                "result": str(result_path)}
        if self.w["backend"] == "scripted":
            spec["script"] = str(self.script)
        if not self.w.get("fsync", True):
            spec["fsync"] = False
        if traced:
            spec["spans"] = str(spans_path)
        before = self.stub.stats() if self.stub else None
        child = run_child(spec, self.work, run_dir / "records.jsonl")
        stub = None
        if self.stub:
            after = self.stub.stats()
            stub = {key: after[key] - before[key] for key in after}
        n = self.w["n"]
        sample = {"traced": traced, "rc": child["rc"], "n": n, "problems": []}
        if child["rc"] != 0 or not result_path.exists():
            sample["problems"].append(f"child exited with code {child['rc']}")
            sample["mismatched"] = n
            shutil.rmtree(run_dir, ignore_errors=True)
            return sample
        result = json.loads(result_path.read_text(encoding="utf-8"))
        bad = set(check.mismatched(run_dir, self.expected, self.w["mode"]))
        if self.w["deterministic"]:
            lines = (run_dir / "records.jsonl").read_bytes().splitlines()
            if self.reference_lines is None:
                self.reference_lines = lines
            elif lines != self.reference_lines:
                sample["problems"].append("records.jsonl bytes differ between runs")
                bad |= check.differing_ids(lines, self.reference_lines)
        sample["mismatched"] = len(bad)
        if bad:
            sample["problems"].append(f"{len(bad)} outcomes differ, e.g. {sorted(bad)[:3]}")
        want_calls = check.expected_model_calls(self.expected, self.w["mode"])
        model_calls = (result["script_calls"] if self.w["backend"] == "scripted"
                       else stub["requests"])
        want_model_calls = 0 if self.w.get("cache") == "warm" else want_calls
        if model_calls != want_model_calls:
            sample["problems"].append(
                f"model received {model_calls} calls, the seed implies {want_model_calls}")
        if result["backend_calls"] != want_calls:
            sample["problems"].append(
                f"agents made {result['backend_calls']} calls, the seed implies {want_calls}")
        if result["report"]["n"] + result["report"]["failures"] != n:
            sample["problems"].append("evaluate_run does not account for every response")

        score_s = result["scored"] - result["ready"]
        sample.update({
            "responses_per_s": n / score_s,
            # the scripted model's table is the model's state, not the program's
            "setup_s": result["ready"] - child["spawned"] - result["script_load_s"],
            "visible_s": [t - result["ready"] for t in child["seen"]],
            "peak_rss_mb": child["peak_rss_mb"],
            "evaluate_s": result["evaluate_s"],
            "outcome_match_share": 1 - len(bad) / n,
            "backend_calls_per_response": result["backend_calls"] / n,
        })
        if traced:
            recorded = [tuple(json.loads(line)) for line in
                        spans_path.read_text(encoding="utf-8").splitlines()]
            latency = STUB_LATENCY_MS / 1000 if self.stub else 0.0
            sample["layers"] = spans.summarize(
                recorded, n, result["parallelism"], score_s, latency, stub, model_calls)
            spans_path.unlink()
        shutil.rmtree(run_dir)
        result_path.unlink()
        return sample

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


def end_to_end(samples: list[dict]) -> dict:
    ok = [s for s in samples if "responses_per_s" in s]
    out = {}
    for name in ("responses_per_s", "setup_s", "peak_rss_mb",
                 "outcome_match_share", "backend_calls_per_response"):
        out[name] = statistics.median(s[name] for s in ok)
    # One evaluate pass is a short burst that runs at whichever of the
    # host's few CPU speed levels its process has at the time, so the
    # passes pool into a multimodal sample whose median jumps between
    # levels from run to run; their mean moves with the mix of levels only.
    out["evaluate_s"] = statistics.fmean(t for s in ok for t in s["evaluate_s"])
    for q, name in ((0.50, "record_visible_p50_s"), (0.99, "record_visible_p99_s")):
        out[name] = statistics.median(spans.percentile(s["visible_s"], q) for s in ok)
    return out, sum(len(s["visible_s"]) for s in ok)


def per_layer(samples: list[dict]) -> dict:
    traced = [s for s in samples if s.get("layers")]
    out = {name: (statistics.median(s["layers"][name][0] for s in traced), unit)
           for name, (_, unit) in traced[0]["layers"].items()}
    untraced = statistics.median(
        s["responses_per_s"] for s in samples if not s["traced"] and "responses_per_s" in s)
    with_spans = statistics.median(s["responses_per_s"] for s in traced)
    out["trace.untraced_responses_per_s"] = (untraced, "responses/s")
    out["trace.traced_responses_per_s"] = (with_spans, "responses/s")
    out["trace.overhead_responses_per_s"] = (with_spans - untraced, "responses/s")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; print its figures and return its result line."""
    work = HERE / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = None
    try:
        env = environment(work)
        setup_start = time.monotonic()
        workload = Workload(name, seed, work)
        bench_setup_s = time.monotonic() - setup_start
        samples = []
        ticks_before = _cpu_ticks()
        start = time.monotonic()
        while True:
            done = [s for s in samples if not s["traced"]]
            enough = len(done) >= MIN_CHILDREN and (
                not trace or len(samples) - len(done) >= MIN_CHILDREN)
            if enough and time.monotonic() - start >= seconds:
                break
            traced = bool(trace) and len(samples) % 2 == 1
            samples.append(workload.measure(traced))
        ticks_after = _cpu_ticks()
        # the share of CPU time the hypervisor gave to other guests while
        # the children ran; the timings move with it
        steal_share = ((ticks_after[0] - ticks_before[0])
                       / max(1, ticks_after[1] - ticks_before[1]))
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)

    n = WORKLOADS[name]["n"]
    attempted = sum(s["n"] for s in samples)
    failed = sum(s["mismatched"] for s in samples)
    problems = sorted({p for s in samples for p in s["problems"]})
    correct = not problems and failed == 0
    report = {"workload": name, "seed": seed, "trace": trace, "n_responses": n,
              "children": len(samples), "bench_setup_s": bench_setup_s,
              "host_steal_share": steal_share,
              "cache_prep_s": workload.prep_s, "env": env, "problems": problems}

    print(f"env {json.dumps(env)}")
    print(f"workload {name} seed {seed}: {len(samples)} runs of {n} responses, "
          f"parallelism {PARALLELISM}, host CPU steal {steal_share:.1%}")
    for problem in problems:
        print(f"WRONG: {problem}")
    metrics = {}
    if not correct:
        pass
    elif trace:
        layers = per_layer(samples)
        width = max(len(metric) for metric in layers)
        print(f"{'per-layer metric':<{width}}  value (median of "
              f"{sum(1 for s in samples if s['traced'])} traced runs)")
        for metric, (value, unit) in layers.items():
            print(f"{metric:<{width}}  {value:.6g} {unit}")
            metrics[metric] = {"value": value, "unit": unit}
    else:
        figures, n_visible = end_to_end(samples)
        print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} responses)")
        print(f"record visibility from {n_visible} records")
        for metric, unit in END_TO_END.items():
            print(f"{metric} {figures[metric]:.6g} {unit}")
            metrics[metric] = {"value": figures[metric], "unit": unit}
    report["metrics"] = metrics
    report["samples"] = [{k: v for k, v in s.items() if k != "visible_s"} for s in samples]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "autoscore" / "__init__.py").is_file():
        print(f"autoscore sources not found under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "autoscore"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        line = run_workload(name, args.seed, args.seconds, args.trace)
        print(json.dumps(line))
        correct = correct and line["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
