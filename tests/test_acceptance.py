"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Every measure comparison is an exact dyadic check (zero tolerance); the two
runtime budgets are asserted on wall time.  Lines are written to the real
stdout so they are visible regardless of capture settings.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from cantorcode.analysis import random_vt_instance, vt_construction
from cantorcode.bits import BitString, Dyadic, ONE, dyadic_sum
from cantorcode.cli import main as cli_main
from cantorcode.clopen import random_class
from cantorcode.coder import decode, end_to_end
from cantorcode.fixtures import fixture_trees
from cantorcode.labeltree import (
    is_fully_labelable_bruteforce,
    load_tree,
    splice_reduce,
)
from cantorcode.schedules import Schedule, oracle_use_bound, preset, redundancy_report

B = BitString
REPO = Path(__file__).resolve().parent.parent


@pytest.fixture()
def report(capsys, pytestconfig):
    # each line starts at column 0, after whatever progress output pytest has
    # left on the current line, so `grep '^CRITERION'` finds every one of them
    writer = pytestconfig.get_terminal_writer()

    def emit(criterion: int, ok: bool, detail: str) -> None:
        with capsys.disabled():
            if writer.width_of_current_line:
                writer.line()
            writer.line(f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
            writer.flush()

    return emit


@dataclass(frozen=True)
class CorpusRun:
    sched: Schedule
    levels: int
    source: BitString
    result: object  # EndToEndResult
    budget: Dyadic
    recovered: BitString
    use: tuple[int, ...]


def _build_corpus() -> tuple[list[CorpusRun], float]:
    runs: list[CorpusRun] = []
    start = time.perf_counter()
    for flavor, count in (("kucera", 100), ("gacs", 100)):
        for seed in range(count):
            sched = preset(flavor)
            if flavor == "kucera":
                levels = 2 + seed % 3          # L in {8, 13, 19}
                depth = sched.L(levels) + seed % 3
            else:
                levels = 2 + seed % 2          # L in {9, 16}
                depth = sched.L(levels) + seed % 9
            depth = min(depth, 24)
            p = random_class(depth, seed * 7 + (flavor == "gacs"), Dyadic(1, 1), removals=26)
            rng = random.Random(1000 * seed + levels)
            source = B.from_int(rng.getrandbits(sched.M(levels)), sched.M(levels))
            outcome = end_to_end(source, p, sched)
            back = decode(outcome.path.code, outcome.pruned.pstar, sched, levels)
            budget = dyadic_sum(
                Dyadic.pow2(sched.m(i) - sched.l(i)) for i in range(levels)
            )
            runs.append(
                CorpusRun(sched, levels, source, outcome, budget, back.source, back.use)
            )
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def corpus():
    return _build_corpus()


def test_criterion_1_round_trip(corpus, report):
    runs, elapsed = corpus
    failures = [r for r in runs if r.recovered != r.source]
    ok = not failures and len(runs) == 200 and elapsed < 60.0
    report(1, ok, f"{len(runs)} seeded round trips, {len(failures)} mismatches, "
                  f"{elapsed:.1f}s (< 60s)")
    assert len(runs) == 200
    assert not failures
    assert elapsed < 60.0


def test_criterion_2_pruning_soundness(corpus, report):
    from cantorcode.clopen import verify_extension_property

    runs, _ = corpus
    bad_ext = 0
    bad_measure = 0
    for r in runs:
        if not verify_extension_property(r.result.pruned.pstar, r.sched, r.levels).ok:
            bad_ext += 1
        if not r.result.pruned.q.measure() <= r.budget:  # exact dyadic comparison
            bad_measure += 1
    ok = bad_ext == 0 and bad_measure == 0
    report(2, ok, f"extension property holds on {len(runs)} pruned classes, "
                  f"removed measure within budget on all (exact)")
    assert bad_ext == 0
    assert bad_measure == 0


def test_criterion_3_use_bound_exact(corpus, report):
    runs, _ = corpus
    mismatches = 0
    bits = 0
    for r in runs:
        for k, used in enumerate(r.use):
            bits += 1
            if used != oracle_use_bound(r.sched, k):
                mismatches += 1
    report(3, mismatches == 0,
           f"{bits} decoded bits, {mismatches} deviations from L(s+1) (zero tolerance)")
    assert mismatches == 0


def _gacs_order_bound(n: int) -> float:
    """sqrt(2n)*log2(2n): the growth of the gacs preset derived in the README.

    With m_i = i+1 the first k blocks carry k(k+1)/2 bits, so n source bits
    need about k = sqrt(2n) blocks.  Block i pays ceil(2*log2(i+2)), at most
    about 2*log2(k) = log2(2n), so the overheads sum to about k*log2(2n).
    """
    return math.sqrt(2 * n) * math.log2(2 * n)


def _bound_violations(rows) -> list[tuple[int, int, float]]:
    return [
        (n, red, _gacs_order_bound(n))
        for n, _, red in rows
        if 64 <= n <= 4096 and not red <= _gacs_order_bound(n)
    ]


def test_criterion_4_redundancy_separation(report):
    gacs = redundancy_report(preset("gacs"), 4096)
    kucera = redundancy_report(preset("kucera"), 4096)
    violations = _bound_violations(gacs.rows)
    # The bound separates orders of growth: faster-growing redundancy breaks it
    # at every n in the window.
    faster = {
        "kucera": len(_bound_violations(kucera.rows)),
        "gacs-sqrt": len(_bound_violations(redundancy_report(preset("gacs-sqrt"), 4096).rows)),
    }
    separates = all(count == 4033 for count in faster.values())
    k_red = kucera.rows[4095][2]
    g_red = gacs.rows[4095][2]
    factor_ok = k_red >= 4 * g_red
    ok = not violations and separates and factor_ok
    first = (f"; first violation at n={violations[0][0]}: "
             f"redundancy {violations[0][1]} > {violations[0][2]:.1f}" if violations else "")
    report(4, ok,
           f"gacs bound sqrt(2n)*log2(2n) violated at {len(violations)}/4033 sampled n{first}; "
           f"kucera/gacs-sqrt violate it at {faster['kucera']}/{faster['gacs-sqrt']} of 4033; "
           f"kucera/gacs redundancy at n=4096: {k_red}/{g_red} = {k_red / g_red:.1f}x "
           f"(factor >= 4: {'yes' if factor_ok else 'no'})")
    assert factor_ok
    assert not violations, (
        f"gacs redundancy exceeds sqrt(2n)*log2(2n) at {len(violations)} of the sampled n, "
        f"first at n={violations[0][0]} ({violations[0][1]} > {violations[0][2]:.1f}); "
        f"the README derives that the per-block overheads ceil(2*log2(i+2)) over the "
        f"~sqrt(2n) blocks of m_i = i+1 sum to ~sqrt(2n)*log2(2n)"
    )
    assert separates, (
        f"sqrt(2n)*log2(2n) no longer separates faster growth: kucera breaks it at "
        f"{faster['kucera']} and gacs-sqrt at {faster['gacs-sqrt']} of the 4033 sampled n"
    )


SWEEP_COUNT = 5200
SWEEP_SEED = 20240


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    start = time.perf_counter()
    code = cli_main(["sweep", "--count", str(SWEEP_COUNT), "--seed", str(SWEEP_SEED),
                     "--max-height", "3", "--max-per-level", "10", "--out", str(out)])
    elapsed = time.perf_counter() - start
    rows = []
    for line in out.read_text().splitlines()[1:]:
        index, digest, lab, red, cond = line.split(",")
        rows.append((int(index), digest, lab == "1", red == "1", cond == "1"))
    return code, rows, elapsed, out.read_bytes()


def test_criterion_5_equivalence_sweep(sweep, report):
    code, rows, elapsed, _ = sweep
    disagreements = [r for r in rows if r[2] != r[3]]
    ok = code == 0 and not disagreements and len(rows) >= 5000 and elapsed < 600.0
    labelable = sum(1 for r in rows if r[2])
    report(5, ok, f"{len(rows)} instances ({labelable} labelable), "
                  f"{len(disagreements)} disagreements, {elapsed:.1f}s (< 600s)")
    assert code == 0
    assert len(rows) >= 5000
    assert not disagreements
    assert elapsed < 600.0


def test_criterion_6_figure_fixtures(report):
    fixture_dir = REPO / "fixtures" / "trees"
    built = fixture_trees()
    mismatches = []
    verdicts = {}
    for name, expected_tree in sorted(built.items()):
        tree = load_tree(fixture_dir / f"{name}.txt")
        if tree != expected_tree:
            mismatches.append(name)
        brute = is_fully_labelable_bruteforce(tree)[0]
        red = splice_reduce(tree).ok
        verdicts[name] = (brute, red)
    required_accepts = ("labelable_full_binary", "labelable_eight_chains")
    accept_ok = all(verdicts[n] == (True, True) for n in required_accepts)
    reject_ok = all(
        verdicts[n] == (False, False) for n in verdicts if n.startswith("nonlabelable")
    )
    extras_ok = all(
        verdicts[n] == (True, True) for n in verdicts if n.startswith("labelable")
    )
    ok = not mismatches and accept_ok and reject_ok and extras_ok
    report(6, ok, f"{len(verdicts)} fixture files: both deciders accept the "
                  f"canonical pair and every labelable fixture, reject all "
                  f"{sum(1 for n in verdicts if n.startswith('non'))} non-labelable ones")
    assert not mismatches, f"fixture files drifted from builders: {mismatches}"
    assert accept_ok and reject_ok and extras_ok


def test_criterion_7_measure_condition_sufficiency(sweep, report):
    _, rows, _, _ = sweep
    satisfied = [r for r in rows if r[4]]
    counterexamples = [r for r in satisfied if not r[2]]
    ok = not counterexamples and len(satisfied) > 0
    report(7, ok, f"{len(satisfied)} swept trees satisfy the measure condition, "
                  f"{len(counterexamples)} fail to be labelable (zero permitted)")
    assert satisfied
    assert not counterexamples


def test_criterion_8_vt_machinery(report):
    runs = 0
    witnesses = 0
    for seed in range(50):
        P, u_sets, g, n = random_vt_instance(seed, t_max=3)
        result = vt_construction(P, u_sets, lambda t: g[t], n, 3)
        runs += 1
        product = ONE
        for t in range(1, len(result.levels)):
            product = product * (ONE - Dyadic.pow2(-g[t - 1] - 1))
            assert result.levels[t].cover.measure() <= product  # exact
        assert result.witness is not None
        assert result.witness_density <= Dyadic.pow2(-g[result.witness_t])  # exact
        witnesses += 1
    report(8, True, f"{runs} seeded chain runs: exact product decay at every level, "
                    f"{witnesses}/50 witnesses within their density bound")
    assert runs == witnesses == 50


def test_criterion_9_determinism(sweep, tmp_path, report):
    _, _, _, sweep_bytes = sweep
    second_sweep = tmp_path / "sweep2.csv"
    assert cli_main(["sweep", "--count", str(SWEEP_COUNT), "--seed", str(SWEEP_SEED),
                     "--max-height", "3", "--max-per-level", "10",
                     "--out", str(second_sweep)]) == 0
    same_sweep = second_sweep.read_bytes() == sweep_bytes

    pairs = []
    for tag in ("a", "b"):
        rep = tmp_path / f"report_{tag}.csv"
        vt = tmp_path / f"vt_{tag}.csv"
        assert cli_main(["report", "--schedule", "gacs", "--n-max", "4096",
                         "--out", str(rep)]) == 0
        assert cli_main(["vt-run", "--seed", "13", "--out", str(vt)]) == 0
        pairs.append((rep.read_bytes(), vt.read_bytes()))
    same_rest = pairs[0] == pairs[1]
    report(9, same_sweep and same_rest,
           "sweep, report and chain CSVs are byte-identical across repeated seeded runs")
    assert same_sweep and same_rest
