"""Left sets, the truncated-cover chain and its witnesses, density floors."""

from __future__ import annotations

import pytest

from cantorcode.analysis import (
    density_threshold_experiment,
    left_sets,
    left_sets_for_levels,
    random_vt_instance,
    truncate_class,
    vt_construction,
)
from cantorcode.bits import BitString, Dyadic, ONE
from cantorcode.clopen import ClopenClass, prune, random_class
from cantorcode.errors import PreconditionError
from cantorcode.schedules import preset

B = BitString


def cls(depth: int, *members: str) -> ClopenClass:
    return ClopenClass.from_members(depth, [B(m) for m in members])


class TestLeftmostAndLeftSets:
    def test_leftmost_examples(self):
        assert ClopenClass.full(4).leftmost(2) == B("00")
        assert cls(2, "10", "11").leftmost(1) == B("1")

    def test_leftmost_of_empty_rejected(self):
        with pytest.raises(PreconditionError, match="empty class"):
            ClopenClass.empty(3).leftmost(1)

    def test_leftmost_is_prefix_chain_on_pruned_class(self):
        sched = preset("kucera")
        pstar = prune(random_class(13, 3, Dyadic(1, 1)), sched, 3).pstar
        path = pstar.leftmost(pstar.depth)
        for i in range(pstar.depth + 1):
            assert pstar.leftmost(i) == path.prefix(i)

    def test_left_sets_examples(self):
        u1 = left_sets(cls(2, "10", "11"), 1)
        assert {str(m) for m in u1.members()} == {"0", "1"}
        assert left_sets(ClopenClass.full(3), 1).members() == [B("0")]
        assert left_sets(ClopenClass.full(3), 0).members() == [B("")]

    def test_left_sets_meet_bound_is_exact(self):
        for seed in range(6):
            p = random_class(10, seed, Dyadic(1, 2))
            for i in (0, 2, 5, 9):
                u = left_sets(p, i)
                meet = p.intersect(ClopenClass.from_cylinders(p.depth, u.members()))
                assert meet.measure() <= Dyadic.pow2(-i)

    def test_truncation(self):
        c = ClopenClass.full(3)
        kept = truncate_class(c, Dyadic(3, 3))
        assert kept.members() == [B("000"), B("001"), B("010")]
        assert truncate_class(c, ONE) == c
        assert truncate_class(c, Dyadic(1, 5)).is_empty()


class TestVtConstruction:
    def test_t_max_zero(self):
        P, u_sets, g, n = random_vt_instance(0)
        result = vt_construction(P, u_sets, lambda t: g[t], n, 0)
        assert len(result.levels) == 1
        assert result.levels[0].cover == ClopenClass.full(n[0])
        assert result.witness is None

    @pytest.mark.parametrize("seed", range(10))
    def test_measure_decay_and_product_bound(self, seed):
        P, u_sets, g, n = random_vt_instance(seed)
        result = vt_construction(P, u_sets, lambda t: g[t], n, len(g))
        product = ONE
        for t, lv in enumerate(result.levels):
            if t == 0:
                continue
            prev = result.levels[t - 1]
            step = ONE - Dyadic.pow2(-g[t - 1] - 1)
            assert lv.cover.measure() <= step * prev.cover.measure()
            product = product * step
            assert lv.cover.measure() <= product

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_density_bound(self, seed):
        P, u_sets, g, n = random_vt_instance(seed)
        result = vt_construction(P, u_sets, lambda t: g[t], n, len(g))
        assert result.witness is not None
        t = result.witness_t
        assert result.witness == P.leftmost(n[t])
        assert result.witness_density <= Dyadic.pow2(-g[t])

    def test_unit_overhead_witness(self):
        # g = 1 everywhere: the witness certifies density at most 1/2
        x = B("000011")
        members = {x} | {B.from_int(v, 6) for v in (13, 40, 41, 59)}
        final = ClopenClass.from_members(6, members)
        n = [2, 4, 6]
        u_sets = left_sets_for_levels(final, n)
        result = vt_construction(final, u_sets, lambda t: 1, n, 2)
        assert result.witness_t == 1
        assert result.witness == B("0000")
        assert result.witness_threshold == Dyadic(1, 1)
        assert result.witness_density <= Dyadic(1, 1)

    def test_zero_overhead_chain(self):
        # g identically 0: covers halve each level and the witness bound 2^0 is trivial
        x = B("001100")
        members = {x} | {B.from_int(v, 6) for v in (15, 30, 51)}
        final = ClopenClass.from_members(6, members)
        n = [2, 4, 6]
        result = vt_construction(
            final,
            left_sets_for_levels(final, n),
            lambda t: 0,
            n,
            2,
        )
        for t in range(1, 3):
            prev = result.levels[t - 1].cover.measure()
            assert result.levels[t].cover.measure() <= Dyadic(1, 1) * prev
        assert result.witness is not None
        assert result.witness_threshold == ONE
        assert result.witness_density <= ONE

    def test_level_spacing_precondition(self):
        P, u_sets, g, n = random_vt_instance(1)
        with pytest.raises(PreconditionError, match="too close"):
            vt_construction(P, u_sets, lambda t: 99, n, len(g))

    def test_path_outside_level_sets_rejected(self):
        final = cls(3, "101")
        bad_u = [ClopenClass.full(0), cls(2, "00"), ClopenClass.full(3).keep_leftmost(1)]
        with pytest.raises(PreconditionError, match="not inside the level sets"):
            vt_construction(final, bad_u, lambda t: 0, [0, 2, 3], 2)

    def test_heavy_level_set_rejected(self):
        final = ClopenClass.full(3)
        with pytest.raises(PreconditionError, match="too heavily"):
            vt_construction(
                final,
                [ClopenClass.full(0), ClopenClass.full(2), ClopenClass.full(3)],
                lambda t: 0,
                [0, 2, 3],
                2,
            )


class TestDensityExperiment:
    def test_full_class_all_ones(self):
        rows = density_threshold_experiment(ClopenClass.full(8), lambda t: 1, [2, 4, 6])
        assert all(r.min_density == ONE and r.ok for r in rows)

    def test_thin_branch_shows_subthreshold_level(self):
        p = ClopenClass.full(6).minus_cylinder(B("10")).union(cls(6, "100000"))
        rows = density_threshold_experiment(p, lambda t: 1, [0, 3, 6])
        assert rows[1].min_density == Dyadic(1, 3)
        assert rows[1].argmin == B("100")
        assert not rows[1].ok  # 1/8 < 1/2
        assert rows[0].ok and rows[2].ok

    def test_pruned_class_clears_thresholds(self):
        sched = preset("kucera")
        for seed in range(6):
            pstar = prune(random_class(13, seed, Dyadic(1, 1)), sched, 3).pstar
            rows = density_threshold_experiment(
                pstar, sched.g, [sched.L(i) for i in range(3)]
            )
            for i, row in enumerate(rows):
                assert row.min_density > Dyadic.pow2(sched.m(i) - sched.l(i))

    def test_spacing_precondition(self):
        with pytest.raises(PreconditionError, match="too close"):
            density_threshold_experiment(ClopenClass.full(4), lambda t: 3, [1, 2])
