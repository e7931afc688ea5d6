"""Schedule presets, exact budget sums, oracle-use bounds, redundancy tables."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cantorcode.bits import Dyadic, ONE
from cantorcode.clopen import ClopenClass, prune
from cantorcode.errors import InputError, PreconditionError
from cantorcode.schedules import (
    ceil_2log2,
    convergence_margin,
    oracle_use_bound,
    parse_schedule_spec,
    preset,
    redundancy_report,
)


def oracle_ceil_2log2(n: int) -> int:
    # independent float-free check via exhaustive doubling
    k = 0
    while 2 ** k < n * n:
        k += 1
    return k


class TestPresets:
    @pytest.mark.parametrize("n", range(1, 200))
    def test_ceil_2log2_matches_oracle(self, n):
        assert ceil_2log2(n) == oracle_ceil_2log2(n)

    def test_kucera_first_block(self):
        s = preset("kucera")
        assert (s.m(0), s.l(0)) == (1, 3)  # overhead ceil(2*log2(2)) = 2

    def test_gacs_third_block(self):
        s = preset("gacs")
        assert (s.m(2), s.l(2)) == (3, 7)  # overhead ceil(2*log2(4)) = 4

    def test_custom_zero_overhead(self):
        s = preset("custom", [1, 1], [1, 1])
        assert s.g(0) == s.g(1) == 0
        assert s.length == 2

    def test_negative_overhead_rejected(self):
        with pytest.raises(InputError, match="negative overhead"):
            preset("custom", [2], [1])

    def test_custom_index_bound(self):
        s = preset("custom", [1], [2])
        with pytest.raises(PreconditionError, match="beyond explicit schedule"):
            s.m(1)

    def test_negative_block_count_rejected(self):
        s = preset("gacs")
        assert s.L(3) == 16
        for boundary in (s.M, s.L, s.budget):
            for n in (-1, -2):
                with pytest.raises(PreconditionError, match=f"negative block count {n}"):
                    boundary(n)
        with pytest.raises(PreconditionError, match="negative block count -1"):
            prune(ClopenClass.full(16), s, -1)

    def test_parse_spec(self):
        assert parse_schedule_spec("kucera").name == "kucera"
        s = parse_schedule_spec("custom:m=1,2;l=3,4")
        assert (s.m(1), s.l(1)) == (2, 4)
        with pytest.raises(InputError):
            parse_schedule_spec("nonsense")

    def test_presets_reproducible(self):
        a, b = preset("gacs"), preset("gacs")
        assert [(a.m(i), a.l(i)) for i in range(50)] == [(b.m(i), b.l(i)) for i in range(50)]

    def test_boundaries_strictly_increase(self):
        for name in ("kucera", "gacs", "gacs-squared", "gacs-sqrt"):
            s = preset(name)
            for n in range(40):
                assert s.M(n) < s.M(n + 1)
                assert s.L(n) < s.L(n + 1)
                assert s.l(n) >= s.m(n)


class TestConvergence:
    def test_kucera_partial_sum(self):
        partial, within = convergence_margin(preset("kucera"), 2, ONE)
        assert partial == Dyadic(1, 2) + Dyadic(1, 4)  # 1/4 + 1/16
        assert within

    def test_divergent_zero_overhead(self):
        s = preset("custom", [1] * 4, [1] * 4)
        partial, within = convergence_margin(s, 4, ONE)
        assert partial == Dyadic(4)
        assert not within

    def test_empty_sum(self):
        partial, within = convergence_margin(preset("gacs"), 0, Dyadic(1, 3))
        assert partial == Dyadic(0)
        assert within

    def test_monotone_in_k(self):
        s = preset("kucera")
        sums = [convergence_margin(s, k, ONE)[0] for k in range(12)]
        assert all(a <= b for a, b in zip(sums, sums[1:]))


class TestOracleUse:
    def test_examples(self):
        assert oracle_use_bound(preset("kucera"), 0) == 3
        assert oracle_use_bound(preset("gacs"), 0) == 3
        assert oracle_use_bound(preset("custom", [2], [2]), 1) == 2

    def test_blockwise_constant(self):
        s = preset("gacs")
        for n in range(60):
            t = 0
            while s.M(t + 1) <= n:
                t += 1
            assert oracle_use_bound(s, n) == s.L(t + 1)


class TestRedundancyReport:
    def test_use_is_nondecreasing(self):
        for name in ("kucera", "gacs"):
            rep = redundancy_report(preset(name), 500)
            uses = [u for _, u, _ in rep.rows]
            assert all(a <= b for a, b in zip(uses, uses[1:]))

    def test_kucera_fits_under_3_nlogn(self):
        rep = redundancy_report(preset("kucera"), 4096)
        worst = max(red / (n * math.log2(n + 2)) for n, _, red in rep.rows)
        assert worst <= 3.0
        reds = [red for *_, red in rep.rows]
        assert all(a <= b for a, b in zip(reds, reds[1:]))

    def test_zero_overhead_redundancy_bounded_by_block(self):
        s = preset("custom", [2] * 8, [2] * 8)
        rep = redundancy_report(s, 15)
        assert all(red <= 2 for *_, red in rep.rows)

    def test_chained_inequality(self):
        # L(t+1) <= n + m_t + sum_{i<=t} (l_i - m_i) for every n in block t
        for name in ("kucera", "gacs"):
            s = preset(name)
            t = 0
            acc = s.l(0) - s.m(0)
            for n in range(0, 4096):
                while s.M(t + 1) <= n:
                    t += 1
                    acc += s.l(t) - s.m(t)
                assert s.L(t + 1) <= n + s.m(t) + acc

    def test_csv_shape(self):
        rep = redundancy_report(preset("kucera"), 5)
        lines = rep.to_csv().strip().splitlines()
        assert lines[0] == "n,use,redundancy,bound_nlogn,bound_sqrtnlogn"
        assert len(lines) == 6
        assert lines[1].startswith("1,3,2,")

    def test_partial_sums_attached(self):
        rep = redundancy_report(preset("kucera"), 10)
        assert rep.partial_sums[0] == Dyadic(1, 2)
        assert all(a <= b for a, b in zip(rep.partial_sums, rep.partial_sums[1:]))


@st.composite
def custom_lists(draw):
    m = draw(st.lists(st.integers(1, 4), min_size=1, max_size=7))
    l = [mi + draw(st.integers(0, 4)) for mi in m]
    return m, l


class TestNaiveShadow:
    """Block index, use bound, report rows and budget sums against plain loops."""

    @settings(max_examples=120, deadline=None)
    @given(custom_lists(), st.data())
    def test_single_definitions_match_plain_loops(self, ml, data):
        m, l = ml
        k = len(m)
        M = [sum(m[:i]) for i in range(k + 1)]
        L = [sum(l[:i]) for i in range(k + 1)]

        def plain_budget(n):
            return sum((Fraction(1, 2 ** (l[i] - m[i])) for i in range(n)), Fraction(0))

        def as_fraction(d):
            return Fraction(d.num, 2 ** d.exp)

        def plain_use(bit):
            t = 0
            while M[t + 1] <= bit:
                t += 1
            return L[t + 1]

        s = preset("custom", m, l)
        # bits = 0, every boundary M(n) exactly, between boundaries, and past the end;
        # drawn in any order, so the cached sums are grown from any starting state
        bits_queries = data.draw(st.permutations(range(M[-1] + 3)), label="bits")
        for bits in bits_queries:
            if bits > M[-1]:
                with pytest.raises(PreconditionError, match="beyond explicit schedule"):
                    s.blocks_for_source(bits)
            elif bits in M:
                assert s.blocks_for_source(bits) == M.index(bits)
            else:
                with pytest.raises(PreconditionError, match="not a boundary"):
                    s.blocks_for_source(bits)
            if bits >= M[-1]:
                with pytest.raises(PreconditionError, match="beyond explicit schedule"):
                    oracle_use_bound(s, bits)
            else:
                assert oracle_use_bound(s, bits) == plain_use(bits)

        for n in range(k + 2):
            if n > k:
                with pytest.raises(PreconditionError, match="beyond explicit schedule"):
                    convergence_margin(s, n, ONE)
                continue
            partial, within = convergence_margin(s, n, ONE)
            assert as_fraction(partial) == plain_budget(n)
            assert within == (plain_budget(n) < 1)

        n_max = data.draw(st.integers(1, M[-1]), label="n_max")
        rep = redundancy_report(preset("custom", m, l), n_max)
        assert rep.rows == tuple((n, plain_use(n - 1), plain_use(n - 1) - n)
                                 for n in range(1, n_max + 1))
        last_block = next(t for t in range(k) if M[t + 1] >= n_max)
        assert [as_fraction(d) for d in rep.partial_sums] == [
            plain_budget(t + 1) for t in range(last_block + 1)]
        with pytest.raises(PreconditionError, match="beyond explicit schedule"):
            redundancy_report(preset("custom", m, l), M[-1] + 1)
