"""Self-tests of the benchmark: output contract, metric names and units, determinism.

    python3 -m pytest bench/test_bench.py -q

Most tests start `bench/run.py` in a subprocess; the whole file takes about two
minutes, most of it in the fixed-size traced runs.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Per-layer metrics that must be non-zero on each workload: the layers it runs.
RUNS = {
    "coding": ("clopen.prune.calls", "coder.settle_words.self_s", "coder.encode.calls",
               "coder.decode.calls", "coder.end_to_end.self_s", "coder.words_settled",
               "coder.words_used_ratio", "schedules.redundancy_report.self_s",
               "clopen.ClopenClass.is_extendible.calls", "bits.BitString.from_int.calls"),
    "pruning": ("clopen.prune.acts", "clopen.prune.self_s_per_act",
                "clopen.verify_extension_property.self_s", "clopen.verify_density_property.self_s",
                "clopen.ClopenClass.minus_cylinder.calls", "clopen.ClopenClass.part_below.calls",
                "clopen.ClopenClass.union.calls", "bits.Dyadic.constructed"),
    "chain": ("analysis.random_vt_instance.self_s", "analysis.vt_construction.self_s",
              "analysis.vt_construction.cover_members", "clopen.ClopenClass.keep_leftmost.calls",
              "clopen.ClopenClass.part_below.calls", "clopen.ClopenClass.union.calls"),
    "deciders": ("labeltree.is_fully_labelable_bruteforce.self_s", "labeltree.splice_reduce.self_s",
                 "labeltree.labelling_from_reduction.self_s", "labeltree.validate_labelling.self_s",
                 "labeltree.measure_condition_check.self_s", "labeltree.labelable_ratio"),
}


def run_bench(workload, trace, seed=5, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    return result, lines


def digest_of(lines):
    return next(line for line in lines if line.startswith("digest "))


def check_metrics(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        got = metrics[m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float))


def test_spec_matches_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
    for name, required in RUNS.items():
        assert set(required) <= {m["name"] for m in SPEC["per_layer"]}, name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_timed_run_emits_every_end_to_end_metric(workload):
    result, lines = result_of(run_bench(workload, 0))
    check_metrics(result["metrics"], SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("failed_ratio ") for line in lines)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result, _ = result_of(run_bench(workload, 1))
    check_metrics(result["metrics"], SPEC["per_layer"])
    for name in RUNS[workload]:
        assert result["metrics"][name]["value"] > 0, name
    assert (ROOT / ".bench_out" / f"trace-{workload}-seed5.json").is_file()


def test_traced_counts_and_digest_repeat_exactly():
    runs = [result_of(run_bench("chain", 1, seed=9)) for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"} for r, _ in runs]
    assert counts[0] == counts[1]
    assert digest_of(runs[0][1]) == digest_of(runs[1][1])
    # the timed run digests the same first jobs
    _, timed_lines = result_of(run_bench("chain", 0, seed=9, seconds=10))
    assert digest_of(timed_lines) == digest_of(runs[0][1])


class _Stub:
    def __init__(self, job):
        self.run = lambda api, inp: job()


def _spin():
    while True:
        pass


def _wrong():
    raise CheckFailed("roundtrip", "stub")


def test_job_outcomes_are_recorded_not_raised(monkeypatch):
    import run

    monkeypatch.setattr(run, "JOB_LIMIT_S", 0.2)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        _, latency, _, status = run.run_one(_Stub(_spin), None, None)
        assert status == "timeout" and latency >= 0.2
        assert run.run_one(_Stub(_wrong), None, None)[3] == "roundtrip"
        assert run.run_one(_Stub(lambda: 1 / 0), None, None)[3] == "error.ZeroDivisionError"
        assert run.run_one(_Stub(lambda: "fp"), None, None)[2:] == ("fp", "ok")
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_pace_rescales_by_the_median_reference_sample_nearby():
    import run

    pace = run.Pace()
    pace.starts = [0.0, 0.5, 1.0, 5.0]
    pace.costs = [2 * run.PACE_NOMINAL_S, 4 * run.PACE_NOMINAL_S, 2 * run.PACE_NOMINAL_S, 8 * run.PACE_NOMINAL_S]
    # samples at 0.0, 0.5 and 1.0 lie within PACE_WINDOW_S of [0.2, 0.5]; their median cost is 2x nominal
    assert pace.nominal(0.2, 0.3) == pytest.approx(0.15)
    pace.sample(force=True)
    assert len(pace.costs) == 5 and pace.costs[-1] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("deciders", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
