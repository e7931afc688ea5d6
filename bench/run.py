#!/usr/bin/env python3
"""cantorcode benchmark: one closed-loop client runs seeded jobs against the package.

    python3 bench/run.py --workload coding --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` next to this directory.

`--trace 0` times jobs with tracing off.  The loop issues the next job only
when the previous one has finished, and stops once the jobs have been busy for
`--seconds` and the workload's size cycle is whole.  Inputs are generated
between jobs, outside the timed region.  It prints throughput, latency p50/p90,
peak RSS and set-up time.  Every time is rescaled to a nominal host speed (see
`Pace`); the wall-clock values are printed beside them.

`--trace 1` runs the first `trace_jobs` jobs of the same sequence with the
tracer installed, each followed by an untraced job of the same size.  It
prints every per-layer metric and the tracing overhead, and writes the spans
to `.bench_out/trace-<workload>-seed<seed>.json`.  It covers a fixed job
count, not `--seconds`, so its work counts repeat exactly for a seed.

Both modes print a digest of the first `trace_jobs` job outputs, then, as the
last line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from workloads import WORKLOADS, CheckFailed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("bits", "clopen", "coder", "schedules", "analysis", "labeltree", "fixtures")
SETUP_REPEATS = 9
JOB_LIMIT_S = 10.0  # per job; at least 15x the slowest job of any workload here
# No new job starts after this many seconds of the run, so a program that has
# become far slower still ends within the caller's 180 s.
DEADLINE_S = 140.0
# Divisible by every mix length: warm-up job j takes mix position j, and its
# negative index keeps its input apart from every counted job's.
WARMUP_BASE = -720720
PACE_PERIOD_S = 0.1  # at most one reference sample this often, between jobs
PACE_WINDOW_S = 0.5  # a job is rescaled by the median sample taken within this of it
PACE_NOMINAL_S = 0.003  # the reference loop's time at nominal speed: an idle core of a 2-vCPU x86_64 VM


class JobTimeout(BaseException):
    """Raised into a job by SIGALRM; BaseException so package code cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def reference_loop() -> int:
    """Fixed pure-Python work that touches no package code: small-int arithmetic,
    then dict, str and sort churn.  Its time tracks the host's speed."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    table = {}
    for i in range(4500):
        table[(i * 7919) % 4099] = str(i)
    return total + sum(len(s) for s in sorted(table.values()))


class Pace:
    """Samples the reference loop between jobs and rescales wall times to nominal speed.

    A small VM gets a share of a host core whose speed drifts by tens of
    percent over seconds, with the same drift in CPU time as in wall time, so
    runs minutes apart differ by that much.  A job's time multiplied by
    PACE_NOMINAL_S / (the median reference time within PACE_WINDOW_S of it) is
    what it takes at nominal speed.  The reference runs none of the package, so
    a change to the package moves the rescaled times as much as the wall times.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.costs: list[float] = []

    def sample(self, force=False):
        start = time.perf_counter()
        if force or not self.starts or start - self.starts[-1] >= PACE_PERIOD_S:
            reference_loop()
            self.starts.append(start)
            self.costs.append(time.perf_counter() - start)

    def nominal(self, start, seconds) -> float:
        """`seconds` of wall time from `start`, at nominal speed."""
        lo = bisect_left(self.starts, start - PACE_WINDOW_S)
        hi = bisect_right(self.starts, start + seconds + PACE_WINDOW_S)
        return seconds * PACE_NOMINAL_S / statistics.median(self.costs[lo:hi])


def machine_info() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def load_package() -> SimpleNamespace:
    """Import a fresh copy of the package from src/, dropping any earlier one."""
    for name in tracing.package_modules():
        del sys.modules[name]
    importlib.import_module("cantorcode")
    return SimpleNamespace(**{m: importlib.import_module(f"cantorcode.{m}") for m in MODULES})


class Tally:
    """Outcomes of the counted jobs and the digest of the first `digest_jobs` outputs."""

    def __init__(self, digest_jobs: int):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failures: Counter[str] = Counter()
        self.busy = 0.0  # summed job wall time, the timed region
        self.digest_jobs = digest_jobs
        self._digest = hashlib.sha256()
        self.digested = 0

    def add(self, index, start, latency, fingerprint, status):
        """Record one job outcome, as returned by run_one."""
        self.starts.append(start)
        self.latencies.append(latency)
        self.busy += latency
        if status != "ok":
            self.failures[status] += 1
        if 0 <= index < self.digest_jobs:
            self._digest.update(repr((status, fingerprint)).encode() + b"\n")
            self.digested += 1

    def digest(self) -> str:
        return self._digest.hexdigest()


def run_one(wl, api, inp):
    """Run one job under its time limit: (start, latency seconds, fingerprint, status)."""
    fingerprint = None
    status = "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            fingerprint = wl.run(api, inp)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        status = "timeout"
    except CheckFailed as exc:
        status = exc.reason
        print(f"check failed: {exc}", file=sys.stderr)
    except Exception as exc:  # a package error fails the job, not the run
        status = f"error.{type(exc).__name__}"
        print(f"job error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return start, time.perf_counter() - start, fingerprint, status


def set_up(wl, seed, pace, deadline) -> tuple[SimpleNamespace, list[tuple[float, float]], Counter]:
    """Import, generate and run the warm-up jobs, SETUP_REPEATS times; keep the last copy.

    Returns the package, the (start, seconds) of each set-up and the warm-up failures.
    """
    spans = []
    warmup_failures: Counter[str] = Counter()
    pace.sample(force=True)
    while len(spans) < SETUP_REPEATS and (not spans or time.perf_counter() < deadline):
        start = time.perf_counter()
        api = load_package()
        wl.prepare(api)
        for i in range(wl.warmup):
            status = run_one(wl, api, wl.make_input(api, seed, WARMUP_BASE + i))[-1]
            if status != "ok":
                warmup_failures[status] += 1
        spans.append((start, time.perf_counter() - start))
        pace.sample(force=True)
    gc.collect()
    return api, spans, warmup_failures


def closed_loop(wl, api, seed, seconds, tally, pace, deadline):
    """Issue jobs 0, 1, ... one at a time until they have been busy for `seconds`
    and the last mix cycle is whole, sampling the reference loop between them."""
    index = 0
    while (tally.busy < seconds or index % len(wl.mix)) and (index == 0 or time.perf_counter() < deadline):
        pace.sample()
        inp = wl.make_input(api, seed, index)
        tally.add(index, *run_one(wl, api, inp))
        index += 1
    pace.sample(force=True)


def traced_pass(wl, api, seed, tracer, traced, plain, deadline):
    """Jobs 0 .. trace_jobs-1 with the tracer installed, each followed by job
    trace_jobs + i, which has the same mix position, with it removed.

    Inputs are generated with the tracer out, so it sees only jobs; alternating
    the two kinds exposes them to the same machine load.
    """
    for i in range(wl.trace_jobs):
        inp = wl.make_input(api, seed, i)
        with tracer.installed(), tracer.job_span(i, f"job.{wl.name}"):
            outcome = run_one(wl, api, inp)
        traced.add(i, *outcome)
        inp = wl.make_input(api, seed, wl.trace_jobs + i)
        plain.add(wl.trace_jobs + i, *run_one(wl, api, inp))
        if time.perf_counter() > deadline:
            print(f"warning: trace stopped after {i + 1} of {wl.trace_jobs} jobs", file=sys.stderr)
            break


def timed_run(wl, api, seed, seconds, setup_s, tally, pace, deadline):
    """The end-to-end metrics, tracing off: (metrics, jobs attempted, failures)."""
    closed_loop(wl, api, seed, seconds, tally, pace, deadline)
    wall = tally.latencies
    lat = [pace.nominal(start, s) for start, s in zip(tally.starts, wall)]
    beyond = len(lat) - int(0.9 * len(lat))
    print(f"latency samples {len(lat)} ({beyond} beyond p90), busy {tally.busy:.3f}s")
    print(f"wall clock: throughput {len(wall) / tally.busy:.6g} 1/s, p50 {percentile(wall, 50) * 1e3:.6g} ms, "
          f"p90 {percentile(wall, 90) * 1e3:.6g} ms")
    costs = sorted(pace.costs)
    print(f"reference loop: {len(costs)} samples, median {statistics.median(costs) * 1e3:.4g} ms "
          f"(min {costs[0] * 1e3:.4g}, max {costs[-1] * 1e3:.4g}); nominal {PACE_NOMINAL_S * 1e3:g} ms")
    metrics = {
        "throughput_jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return metrics, len(lat), tally.failures


def traced_run(wl, api, seed, info, tally, deadline):
    """The per-layer metrics and tracing overhead; writes the spans to OUT."""
    tracer = tracing.Tracer(tracing.package_modules())
    plain = Tally(0)
    traced_pass(wl, api, seed, tracer, tally, plain, deadline)
    metrics = tracer.layer_metrics(tally.failures)
    traced_tp = len(tally.latencies) / tally.busy
    plain_tp = len(plain.latencies) / plain.busy
    metrics["trace.throughput_jobs_per_s"] = (traced_tp, "1/s")
    metrics["trace.untraced_throughput_jobs_per_s"] = (plain_tp, "1/s")
    metrics["trace.overhead_ratio"] = (plain_tp / traced_tp, "ratio")
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-seed{seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": wl.name, "seed": seed, "machine": info, "traced_jobs": len(tally.latencies),
            "digest": tally.digest(), "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "spans": tracer.spans,
        }, fh)
    print(f"traced {len(tally.latencies)} jobs, untraced {len(plain.latencies)} jobs; spans in {trace_file}")
    return metrics, len(tally.latencies) + len(plain.latencies), tally.failures + plain.failures


def percentile(samples, q):
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "cantorcode" / "__init__.py").is_file():
        print(f"error: no cantorcode package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    wl = WORKLOADS[args.workload]
    info = machine_info()
    print(f"workload {wl.name}: {wl.why}")
    print(f"seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}; closed loop, 1 client")
    print("machine " + json.dumps(info, sort_keys=True))

    deadline = started + DEADLINE_S
    pace = Pace()
    api, setup_spans, warmup_failures = set_up(wl, args.seed, pace, deadline)
    setup_times = [pace.nominal(start, s) for start, s in setup_spans]
    setup_s = statistics.median(setup_times)
    print(f"setup_s {setup_s:.4f} (median of {len(setup_times)}: "
          + ", ".join(f"{t:.4f}" for t in setup_times) + "; wall clock "
          + ", ".join(f"{s:.4f}" for _, s in setup_spans) + ")")

    tally = Tally(wl.trace_jobs)
    if args.trace:
        metrics, attempted, failures = traced_run(wl, api, args.seed, info, tally, deadline)
    else:
        metrics, attempted, failures = timed_run(wl, api, args.seed, args.seconds, setup_s, tally, pace, deadline)
    failed = sum(failures.values())
    if warmup_failures:
        print(f"warm-up jobs failed: {json.dumps(warmup_failures)}")
    print(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} jobs) {json.dumps(failures)}")
    partial = "" if tally.digested == wl.trace_jobs else f" (partial: {tally.digested} of {wl.trace_jobs})"
    print(f"digest {wl.name} seed {args.seed} jobs 0-{wl.trace_jobs - 1}: {tally.digest()}{partial}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = failed == failures["timeout"] and not warmup_failures  # a timeout is slow, not wrong
    print(f"wall_s {time.perf_counter() - started:.3f}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
