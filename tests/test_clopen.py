"""Clopen classes: measures, densities, pruning, and the two property verifiers."""

from __future__ import annotations

import io
import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorcode.bits import BitString, Dyadic, ONE, ZERO, dyadic_sum
from cantorcode.clopen import (
    ApproxSequence,
    ClopenClass,
    parse_class_text,
    prune,
    random_class,
    verify_density_property,
    verify_extension_property,
    write_class_text,
)
from cantorcode.errors import InputError, PreconditionError
from cantorcode.schedules import preset

B = BitString


def cls(depth: int, *members: str) -> ClopenClass:
    return ClopenClass.from_members(depth, [B(m) for m in members])


class TestMeasureAndMembership:
    def test_measure_examples(self):
        assert ClopenClass.full(3).measure() == ONE
        assert ClopenClass.empty(3).measure() == ZERO
        assert cls(3, "000", "001", "010").measure() == Dyadic(3, 3)

    def test_is_extendible_examples(self):
        assert ClopenClass.full(3).is_extendible(B("01"))
        assert not cls(3, "000", "001").is_extendible(B("1"))
        assert cls(3, "000", "001").is_extendible(B("00"))

    def test_extendible_depth_error(self):
        with pytest.raises(PreconditionError, match="deeper than class approximation"):
            ClopenClass.full(3).is_extendible(B("0000"))

    def test_density_examples(self):
        full = ClopenClass.full(4)
        for s in ("", "0", "10", "111"):
            assert full.density(B(s)) == ONE
        halves = cls(2, "00", "01")
        assert halves.density(B("0")) == ONE
        assert halves.density(B("1")) == ZERO
        # one member (100) below the cylinder of "1": 1 * 2^(1-3)
        assert cls(3, "000", "001", "100").density(B("1")) == Dyadic(1, 2)

    def test_density_brute_force_cross_check(self):
        c = cls(4, "0000", "0011", "0101", "1100", "1110")
        for length in range(5):
            for v in range(1 << length):
                s = B.from_int(v, length)
                count = sum(1 for m in c.members() if s.is_prefix_of(m))
                assert c.density(s) == Dyadic(count, 4 - len(s))

    def test_set_algebra(self):
        a = cls(3, "000", "001", "010")
        b = cls(3, "010", "111")
        assert a.union(b).member_count == 4
        assert a.intersect(b) == cls(3, "010")
        assert a.minus(b) == cls(3, "000", "001")
        assert a.intersect(b).is_subset_of(a)
        assert not a.is_subset_of(b)

    def test_part_below_and_minus_cylinder(self):
        c = ClopenClass.full(3)
        assert c.part_below(B("01")) == cls(3, "010", "011")
        assert c.minus_cylinder(B("01")).member_count == 6
        assert c.part_below(B("")) == c

    def test_leftmost_and_extension_count(self):
        c = cls(3, "010", "011", "110")
        assert c.leftmost(2) == B("01")
        assert c.extension_count(B(""), 3) == 3
        assert c.extension_count(B("01"), 3) == 2
        assert c.extension_count(B("1"), 2) == 1

    def test_extension_rank_examples(self):
        c = cls(3, "010", "011", "110")
        assert [c.extension_rank(B(""), B(w)) for w in ("010", "011", "110", "111")] == [0, 1, 2, 3]
        assert c.extension_rank(B("01"), B("011")) == 1
        assert c.extension_rank(B(""), B("00")) == 0  # not extendible: nothing sorts before it
        with pytest.raises(PreconditionError, match="does not extend"):
            c.extension_rank(B("1"), B("011"))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_extension_rank_matches_naive_count(self, data):
        depth = data.draw(st.integers(0, 7), label="depth")
        words = st.integers(0, (1 << depth) - 1).map(lambda v: B.from_int(v, depth))
        c = ClopenClass.from_members(depth, data.draw(st.sets(words, max_size=40)))
        length = data.draw(st.integers(0, depth), label="length")
        w = B.from_int(data.draw(st.integers(0, (1 << length) - 1)), length)
        s = w.prefix(data.draw(st.integers(0, length), label="prefix"))
        below = {u.prefix(length) for u in c.members() if s.is_prefix_of(u) and u.prefix(length) < w}
        assert c.extension_rank(s, w) == len(below)

    def test_keep_leftmost(self):
        c = ClopenClass.full(3)
        assert c.keep_leftmost(3) == cls(3, "000", "001", "010")
        assert c.keep_leftmost(0).is_empty()
        assert c.keep_leftmost(99) == c


def recount(node, height: int) -> int:
    """Members below a trie node, recounted from its leaves; checks every stored count."""
    if node is True:
        return 1 << height
    if node is False:
        return 0
    left, right, count = node
    total = recount(left, height - 1) + recount(right, height - 1)
    assert count == total
    assert 0 < count < 1 << height  # never uniformly full or empty
    return total


class TestCountInvariant:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_counts_survive_every_operation(self, data):
        depth = data.draw(st.integers(0, 6), label="depth")

        def prefix(max_len):
            length = data.draw(st.integers(0, max_len))
            return B.from_int(data.draw(st.integers(0, (1 << length) - 1)), length)

        def fresh():
            kind = data.draw(st.sampled_from(("from_members", "from_cylinders", "shallow")))
            if kind == "from_members":
                words = st.integers(0, (1 << depth) - 1).map(lambda v: B.from_int(v, depth))
                return ClopenClass.from_members(depth, data.draw(st.sets(words, max_size=12)))
            if kind == "from_cylinders":
                count = data.draw(st.integers(0, 4))
                return ClopenClass.from_cylinders(depth, [prefix(depth) for _ in range(count)])
            shallow_depth = data.draw(st.integers(0, depth))
            shallow = ClopenClass.from_cylinders(
                shallow_depth, [prefix(shallow_depth) for _ in range(data.draw(st.integers(0, 3)))]
            )
            return ClopenClass.from_cylinders(depth, shallow.members())

        c = fresh()
        ops = ("minus_cylinder", "part_below", "union", "intersect", "minus", "keep_leftmost")
        for op in data.draw(st.lists(st.sampled_from(ops), max_size=10), label="ops"):
            if op in ("minus_cylinder", "part_below"):
                c = getattr(c, op)(prefix(depth))
            elif op == "keep_leftmost":
                c = c.keep_leftmost(data.draw(st.integers(0, c.member_count)))
            else:
                c = getattr(c, op)(fresh())
            assert recount(c._root, depth) == c.member_count == len(c.members())


class TestMeetMeasure:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_meet_walk_equals_member_scan(self, data):
        depth = data.draw(st.integers(0, 7), label="depth")
        shallow = data.draw(st.integers(0, depth), label="shallow")

        def draw_class(d, label):
            kind = data.draw(st.sampled_from(("members", "cylinders", "full")), label=label)
            if kind == "full":
                return ClopenClass.full(d)
            lengths = st.integers(0, d) if kind == "cylinders" else st.just(d)
            words = lengths.flatmap(
                lambda n: st.integers(0, (1 << n) - 1).map(lambda v: B.from_int(v, n)))
            found = data.draw(st.sets(words, max_size=12), label=label)
            if kind == "cylinders":
                return ClopenClass.from_cylinders(d, found)
            return ClopenClass.from_members(d, found)

        P, u = draw_class(depth, "P"), draw_class(shallow, "u")
        inside = set(u.members())
        scanned = sum(1 for x in P.members() if x.prefix(shallow) in inside)
        assert P.meet_measure(u) == Dyadic(scanned, depth)

    def test_deeper_set_rejected(self):
        with pytest.raises(PreconditionError, match="level set deeper than the class"):
            ClopenClass.full(3).meet_measure(ClopenClass.full(4))


class TestDeepClasses:
    """Trie writes and listings are loops: classes thousands of levels deep stay usable."""

    DEPTH = 5000

    def test_from_cylinders_at_depth_5000(self):
        deep = B("01" * (self.DEPTH // 2))
        c = ClopenClass.from_cylinders(self.DEPTH, [deep, B("1"), deep.prefix(3000)])
        assert c.member_count == (1 << (self.DEPTH - 1)) + (1 << 2000)
        assert c.is_extendible(deep) and not c.is_extendible(B("00"))
        assert c.density(deep.prefix(3000)) == ONE

    def test_leftmost_members_and_strings_at_depth_3000(self):
        path = B("01" * 1500)
        c = ClopenClass.from_cylinders(3000, [path])
        assert c.leftmost(3000) == path
        assert c.leftmost(1700) == path.prefix(1700)
        assert c.members() == [path]
        assert list(c.extendible_strings(3000)) == [path]
        assert list(c.extendible_extensions(path.prefix(10), 2999)) == [path.prefix(2999)]
        assert c.extension_rank(B(""), path) == 0

    def test_keep_leftmost_at_depth_3000(self):
        p = B("01" * 1500)
        q = p.prefix(2999).append(0)
        c = ClopenClass.from_members(3000, [p, q])
        assert c.keep_leftmost(1).members() == [q]
        assert c.keep_leftmost(2) == c and c.keep_leftmost(0).is_empty()

    def test_meet_measure_at_depth_3000(self):
        p = B("01" * 1500)
        q = p.prefix(2999).append(0)
        c = ClopenClass.from_members(3000, [p, q])
        assert c.meet_measure(ClopenClass.from_members(2999, [p.prefix(2999)])) == Dyadic(2, 3000)
        assert c.meet_measure(ClopenClass.from_members(3000, [p])) == Dyadic(1, 3000)
        assert c.meet_measure(ClopenClass.full(1500).minus_cylinder(p.prefix(1500))).is_zero()
        assert ClopenClass.full(3000).meet_measure(ClopenClass.from_members(2000, [p.prefix(2000)])) \
            == Dyadic(1, 2000)

    def test_minus_cylinder_at_depth_5000(self):
        deep = B("10" * (self.DEPTH // 2))
        c = ClopenClass.full(self.DEPTH).minus_cylinder(deep)
        assert c.member_count == (1 << self.DEPTH) - 1
        assert not c.is_extendible(deep) and c.is_extendible(deep.prefix(self.DEPTH - 1))
        c = c.minus_cylinder(deep.prefix(1))
        assert c.member_count == (1 << (self.DEPTH - 1))
        assert c.minus_cylinder(B("0")).is_empty()


class TestFileFormat:
    def test_roundtrip(self):
        c = cls(3, "000", "101", "110")
        out = io.StringIO()
        write_class_text(c, out)
        assert parse_class_text(out.getvalue()) == c

    def test_wrong_length_line(self):
        with pytest.raises(InputError, match="wrong-length member at line 3"):
            parse_class_text("depth 3\n000\n0011\n")

    def test_duplicate_line(self):
        with pytest.raises(InputError, match="duplicate member at line 3"):
            parse_class_text("depth 2\n01\n01\n")

    def test_bad_header(self):
        with pytest.raises(InputError, match="depth"):
            parse_class_text("width 3\n000\n")


class TestApproxSequence:
    def test_accepts_shrinking(self):
        a = ClopenClass.full(2)
        b = cls(2, "01", "10")
        seq = ApproxSequence((a, b, b))
        assert seq.final == b
        assert seq.at(0) == a
        assert seq.at(99) == b

    def test_rejects_growth(self):
        with pytest.raises(PreconditionError, match="not a subset"):
            ApproxSequence((cls(2, "01"), ClopenClass.full(2)))

    def test_rejects_depth_mismatch(self):
        with pytest.raises(PreconditionError, match="depth"):
            ApproxSequence((ClopenClass.full(2), ClopenClass.full(3)))


class TestPrune:
    def test_full_class_needs_no_acts(self):
        sched = preset("custom", [1, 1], [3, 3])
        result = prune(ClopenClass.full(6), sched, 2)
        assert result.trace == ()
        assert result.q.is_empty()
        assert result.pstar == ClopenClass.full(6)
        # every extendible string at lengths 0 and 3 keeps >= 2 next-level extensions
        for length, nxt in ((0, 3), (3, 6)):
            for v in range(1 << length):
                s = B.from_int(v, length)
                assert result.pstar.extension_count(s, nxt) >= 2

    def test_budget_violation(self):
        sched = preset("custom", [1, 1], [3, 3])  # series sum 1/2
        thin = cls(6, "000000")
        with pytest.raises(PreconditionError, match="measure budget exhausted"):
            prune(thin, sched, 2)

    def test_single_level_full_depth2(self):
        sched = preset("custom", [1], [2])
        result = prune(ClopenClass.full(2), sched, 1)
        assert result.q.is_empty()
        assert result.pstar == ClopenClass.full(2)

    def test_thin_branch_is_removed(self):
        # 00*, 01*, 11* full; 10* holds the single word 100000
        sched = preset("custom", [1, 1], [3, 3])
        p = ClopenClass.full(6).minus_cylinder(B("10")).union(cls(6, "100000"))
        assert p.measure() == Dyadic(49, 6)
        result = prune(p, sched, 2)
        assert len(result.trace) == 1
        act = result.trace[0]
        assert (act.stage, act.level, act.sigma) == (1, 1, B("100"))
        assert act.removed == Dyadic(1, 6)
        assert result.q == cls(6, "100000")
        assert result.pstar == ClopenClass.full(6).minus_cylinder(B("10"))
        assert verify_extension_property(result.pstar, sched, 2)
        assert verify_density_property(result.pstar, sched, 2)

    def test_deterministic(self):
        sched = preset("kucera")
        p = random_class(13, 5, Dyadic(1, 1))
        r1 = prune(p, sched, 3)
        r2 = prune(p, sched, 3)
        assert r1.trace == r2.trace
        assert r1.pstar == r2.pstar and r1.q == r2.q

    @pytest.mark.parametrize("seed", range(12))
    def test_postconditions_on_random_classes(self, seed):
        sched = preset("kucera")
        levels = 3  # L(3) = 13
        p = random_class(13, seed, Dyadic(1, 1), removals=30)
        budget = dyadic_sum(Dyadic.pow2(sched.m(i) - sched.l(i)) for i in range(levels))
        result = prune(p, sched, levels)
        assert not result.pstar.is_empty()
        assert result.q.measure() <= budget
        assert result.pstar == p.minus(result.q)
        assert verify_extension_property(result.pstar, sched, levels)
        # surviving strings sit strictly above the acted threshold
        for i in range(levels):
            thr = Dyadic.pow2(sched.m(i) - sched.l(i))
            for s in result.pstar.extendible_strings(sched.L(i)):
                assert result.pstar.density(s) > thr
        # each string acted on at most once
        acted = [a.sigma for a in result.trace]
        assert len(acted) == len(set(acted))

    @pytest.mark.parametrize("depth,removals", [(0, 24), (-3, 24), (5, -1)])
    def test_random_class_ranges(self, depth, removals):
        with pytest.raises(PreconditionError, match="depth >= 1 and removals >= 0"):
            random_class(depth, 1, Dyadic(1, 1), removals)
        assert random_class(1, 1, ZERO, 0) == ClopenClass.full(1)


class TestVerifiers:
    def test_full_class_passes_everything(self):
        sched = preset("kucera")
        full = ClopenClass.full(13)
        assert verify_extension_property(full, sched, 3)
        assert verify_density_property(full, sched, 3)

    def test_extension_counterexample(self):
        sched = preset("custom", [2], [2])
        verdict = verify_extension_property(cls(2, "00", "01", "10"), sched, 1)
        assert not verdict.ok
        assert (verdict.level, verdict.sigma) == (0, B(""))
        assert (verdict.observed, verdict.required) == (3, 4)

    def test_density_counterexample_at_inner_level(self):
        sched = preset("custom", [1, 1], [2, 2])
        p = ClopenClass.full(4).minus_cylinder(B("10")).union(cls(4, "1000"))
        verdict = verify_density_property(p, sched, 1)
        assert verdict.ok  # level 0 alone passes: density 13/16 >= 1/2
        verdict = verify_density_property(p, sched, 2)
        assert not verdict.ok
        assert (verdict.level, verdict.sigma) == (1, B("10"))
        assert verdict.observed == Dyadic(1, 2)
        assert verdict.required == Dyadic(1, 1)

    def test_counterexample_is_least(self):
        sched = preset("custom", [1, 1], [2, 2])
        p = (
            ClopenClass.full(4)
            .minus_cylinder(B("01")).union(cls(4, "0100"))
            .minus_cylinder(B("11")).union(cls(4, "1100"))
        )
        verdict = verify_density_property(p, sched, 2)
        assert verdict.sigma == B("01")

    def test_mixed_densities_per_length(self):
        # 10* holds one word: mixed at lengths 1 and 2, and at 3 below 100 only
        p = ClopenClass.full(4).minus_cylinder(B("10")).union(cls(4, "1000"))
        assert list(p.mixed_densities([0, 1, 2, 2, 3])) == [
            [(0, Dyadic(13, 4))],
            [(1, Dyadic(5, 3))],
            [(2, Dyadic(1, 2))],
            [(2, Dyadic(1, 2))],
            [(4, Dyadic(1, 1))],
        ]
        assert list(p.mixed_densities([])) == []
        for bad in ([2, 1], [5], [-1, 2]):
            with pytest.raises(PreconditionError, match="must not fall or pass depth 4"):
                list(p.mixed_densities(bad))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 12 - 1), st.integers(1, 2), st.integers(2, 3))
    def test_density_implies_extension(self, mask, m0, l0):
        # depth <= 12 sweep of the implication between the two properties
        if l0 < m0:
            l0 = m0
        depth = 4
        members = [B.from_int(v, depth) for v in range(1 << depth) if (mask >> v) & 1]
        if not members:
            return
        c = ClopenClass.from_members(depth, members)
        sched = preset("custom", [m0], [l0])
        if sched.L(1) > depth:
            return
        if verify_density_property(c, sched, 1):
            assert verify_extension_property(c, sched, 1)


class _CountedNode(tuple):
    """A trie node that counts the reads of its left child: one per expansion by a walk."""

    reads = 0

    def __getitem__(self, key):
        if key == 0:
            self.reads += 1
        return super().__getitem__(key)


def _counted(node, nodes: list):
    """A copy of the trie below `node` built from counted nodes, each listed in `nodes`."""
    if node is True or node is False:
        return node
    copy = _CountedNode((_counted(node[0], nodes), _counted(node[1], nodes), node[2]))
    nodes.append(copy)
    return copy


class TestOneWalk:
    """Prune and both verifiers grow each boundary's mixed prefixes from the previous
    boundary's: one walk down the trie, not one walk from the root per boundary."""

    LEVELS = 12

    def counted_class(self):
        sched = preset("kucera")
        depth = sched.L(self.LEVELS)
        rng = random.Random(6)
        c = ClopenClass.full(depth)
        for _ in range(12):
            length = rng.randint(depth // 2, depth)
            c = c.minus_cylinder(B.from_int(rng.getrandbits(length), length))
        nodes: list = []
        return sched, ClopenClass(depth, _counted(c._root, nodes)), nodes

    def expansions(self, fn):
        sched, c, nodes = self.counted_class()
        result = fn(c, sched, self.LEVELS)
        assert len(nodes) > 500
        return result, max(node.reads for node in nodes)

    def test_prune_without_acts_expands_each_node_once(self):
        result, most = self.expansions(prune)
        assert result.trace == ()
        assert most == 1

    def test_density_verifier_expands_each_node_once(self):
        verdict, most = self.expansions(verify_density_property)
        assert verdict.ok
        assert most == 1

    def test_extension_verifier_expands_each_node_at_most_twice(self):
        # once by the frontier walk, once by the extension count below a boundary
        verdict, most = self.expansions(verify_extension_property)
        assert verdict.ok
        assert most <= 2
