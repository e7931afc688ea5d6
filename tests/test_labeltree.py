"""Labelled trees: the five conditions, both deciders, splicing, and the converse map."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from cantorcode.bits import BitString, Dyadic, EMPTY
from cantorcode.errors import InputError, PreconditionError
from cantorcode.fixtures import build_tree, fixture_trees
from cantorcode.labeltree import (
    Labelling,
    SpliceStep,
    UTree,
    _bipartition_patterns,
    is_full_labelling,
    is_fully_labelable_bruteforce,
    is_isomorphic_to_full_binary,
    labelling_from_reduction,
    measure_condition_check,
    parse_labelling_text,
    parse_tree_text,
    random_utree,
    render_labelling_text,
    render_tree_text,
    splice,
    splice_reduce,
    validate_labelling,
)

B = BitString


def full_binary(u: tuple[int, ...]) -> UTree:
    shape: tuple = ()
    for _ in u:
        shape = (shape, shape)
    return build_tree(shape, u)


def identity_labelling(tree: UTree) -> Labelling:
    # the canonical full binary embedding at u=(1,2,3) has address == subject
    return Labelling((nd, nd) for nd in tree.nodes if nd != EMPTY)


class TestUTree:
    def test_structure(self):
        t = full_binary((1, 2, 3))
        assert t.height == 3
        assert [t.level_count(i) for i in range(3)] == [2, 4, 8]
        assert t.children(B("01")) == (B("010"), B("011"))
        assert t.parent(B("010")) == B("01")
        assert t.level_of(EMPTY) == -1
        assert t.spans == (
            (range(0, 2),),
            (range(0, 2), range(2, 4)),
            (range(0, 2), range(2, 4), range(4, 6), range(6, 8)),
        )

    def test_downward_closure_enforced(self):
        with pytest.raises(PreconditionError, match="no parent"):
            UTree((1, 2), [B("1"), B("01")])

    def test_bad_level_length(self):
        with pytest.raises(PreconditionError, match="not a level length"):
            UTree((1, 3), [B("1"), B("10")])

    def test_file_roundtrip(self):
        t = fixture_trees()["labelable_mixed_arity"]
        assert parse_tree_text(render_tree_text(t)) == t

    def test_file_errors(self):
        with pytest.raises(InputError, match="line 1"):
            parse_tree_text("nodes: 1 2\n")
        with pytest.raises(InputError, match="bad node at line 3"):
            parse_tree_text("u: 1 2\n-\n0x\n")


class TestValidateLabelling:
    def test_identity_labelling_of_full_binary(self):
        t = full_binary((1, 2, 3))
        lab = identity_labelling(t)
        verdict = validate_labelling(t, lab)
        assert verdict.ok and verdict.advisories == ()
        assert is_full_labelling(t, lab)

    def test_duplicate_subject_is_advisory_only(self):
        t = build_tree(((), (), ()), (2,))  # three leaves at one level
        lvl = t.levels[0]
        lab = Labelling([(lvl[0], B("0")), (lvl[1], B("0")), (lvl[2], B("1"))])
        verdict = validate_labelling(t, lab)
        assert verdict.ok
        assert verdict.advisories == ("duplicate subject 0",)

    def test_condition_1_root_cannot_be_labelled(self):
        t = full_binary((1,))
        verdict = validate_labelling(t, Labelling([(EMPTY, B("0"))]))
        assert (verdict.ok, verdict.condition) == (False, 1)

    def test_condition_2_wrong_subject_length(self):
        t = full_binary((1, 2))
        verdict = validate_labelling(t, Labelling([(B("0"), B("00"))]))
        assert (verdict.ok, verdict.condition) == (False, 2)

    def test_condition_3_missing_shorter_subject(self):
        t = full_binary((1,))
        verdict = validate_labelling(t, Labelling([(B("0"), B("0"))]))
        assert (verdict.ok, verdict.condition) == (False, 3)
        assert verdict.witness == B("1")

    def test_condition_4_two_labels_on_one_node(self):
        t = full_binary((1,))
        lab = Labelling([(B("0"), B("0")), (B("0"), B("1"))])
        verdict = validate_labelling(t, lab)
        assert (verdict.ok, verdict.condition) == (False, 4)

    def test_condition_5_subject_must_extend_parent_subject(self):
        t = full_binary((1, 2))
        pairs = [
            (B("0"), B("0")), (B("1"), B("1")),
            (B("00"), B("10")), (B("01"), B("01")),  # 10 does not extend 0
            (B("10"), B("00")), (B("11"), B("11")),
        ]
        verdict = validate_labelling(t, Labelling(pairs))
        assert (verdict.ok, verdict.condition) == (False, 5)
        assert verdict.witness == B("00")

    def test_domain_outside_tree_rejected(self):
        t = full_binary((1,))
        with pytest.raises(PreconditionError, match="not in the tree"):
            validate_labelling(t, Labelling([(B("11"), B("0"))]))

    def test_labelling_text_roundtrip(self):
        t = full_binary((1, 2))
        lab = identity_labelling(t)
        assert parse_labelling_text(render_labelling_text(lab)) == lab


class TestBruteForce:
    def test_full_binary_is_labelable(self):
        ok, lab = is_fully_labelable_bruteforce(full_binary((1, 2, 3)))
        assert ok and is_full_labelling(full_binary((1, 2, 3)), lab)

    def test_single_path_is_not(self):
        t = build_tree((((),),), (1, 2))  # one node per level, height 2
        ok, lab = is_fully_labelable_bruteforce(t)
        assert (ok, lab) == (False, None)

    def test_narrow_branch_blocks_labelling(self):
        # root children a (one child) and b (three children); leaves need four subjects
        t = build_tree((((),), ((), (), ())), (1, 3))
        ok, _ = is_fully_labelable_bruteforce(t)
        assert not ok

    def test_repetition_is_used_when_needed(self):
        t = fixture_trees()["labelable_eight_chains"]
        ok, lab = is_fully_labelable_bruteforce(t)
        assert ok
        assert is_full_labelling(t, lab)
        assert validate_labelling(t, lab).advisories  # subjects necessarily repeat

    def test_height_cap(self):
        t = full_binary((1, 2, 3, 4, 5))
        with pytest.raises(PreconditionError, match="instance too large"):
            is_fully_labelable_bruteforce(t)

    def test_monotone_under_node_addition(self):
        rng = random.Random(424)
        grown = 0
        for _ in range(300):
            t0 = random_utree(rng)
            ok0, _ = is_fully_labelable_bruteforce(t0)
            if not ok0:
                continue
            extra = _grow(t0, rng)
            if extra is None:
                continue
            grown += 1
            ok1, _ = is_fully_labelable_bruteforce(extra)
            assert ok1, f"superset of a labelable tree must stay labelable: {extra}"
        assert grown >= 20


def _grow(t: UTree, rng: random.Random) -> UTree | None:
    """Add one random node (keeping downward closure), or None if the tree is full."""
    candidates = []
    for i in range(t.height):
        width = t.u[i] - (t.u[i - 1] if i else 0)
        parents = t.levels[i - 1] if i else (EMPTY,)
        for p in parents:
            for v in range(1 << width):
                c = p + B.from_int(v, width)
                if c not in t.nodes:
                    candidates.append(c)
    if not candidates:
        return None
    return UTree(t.u, set(t.nodes) | {rng.choice(candidates)})


class TestSplice:
    def test_merge_to_single_path(self):
        t = full_binary((1,))
        merged, _ = splice(t, None, B("0"), B("1"))
        assert merged.nodes == {EMPTY, B("0")}

    def test_non_siblings_rejected(self):
        t = full_binary((1, 2))
        with pytest.raises(PreconditionError, match="not siblings"):
            splice(t, None, B("00"), B("10"))
        with pytest.raises(PreconditionError, match="distinct"):
            splice(t, None, B("0"), B("0"))

    def test_subtrees_take_disjoint_union(self):
        t = build_tree(((((),),), (((),),)), (1, 2, 3))  # two chains
        merged, _ = splice(t, None, B("0"), B("1"))
        assert merged.level_count(0) == 1
        assert merged.level_count(1) == 2
        assert merged.level_count(2) == 2
        assert merged.children(B("0")) == (B("00"), B("01"))

    def test_address_capacity_error(self):
        t = full_binary((1, 2, 3))
        with pytest.raises(PreconditionError, match="address capacity exceeded"):
            splice(t, None, B("0"), B("1"))  # four pooled children, two slots

    def test_label_conflict(self):
        t = full_binary((1,))
        lab = Labelling([(B("0"), B("0")), (B("1"), B("1"))])
        with pytest.raises(PreconditionError, match="label conflict"):
            splice(t, lab, B("0"), B("1"))

    def test_label_transfer_onto_labelled_sibling(self):
        t = build_tree(((), ()), (1,))
        lab = Labelling([(B("0"), B("1"))])
        merged, moved = splice(t, lab, B("0"), B("1"))
        assert moved.as_dict() == {B("0"): B("1")}
        assert merged.nodes == {EMPTY, B("0")}

    def test_moved_descendants_keep_labels(self):
        t = build_tree((((),), ((),)), (1, 2))
        lab = Labelling([(B("0"), B("0")), (B("00"), B("00"))])
        merged, moved = splice(t, lab, B("0"), B("1"))
        # both level-1 nodes now sit above the survivor, labels carried along
        assert merged.children(B("0")) == (B("00"), B("01"))
        assert moved.as_dict()[B("00")] == B("00")


class TestSpliceReduce:
    def test_full_binary_needs_no_steps(self):
        result = splice_reduce(full_binary((1, 2, 3)))
        assert result.ok and result.steps == ()

    def test_eight_chains_reduce_with_six_root_merges(self):
        result = splice_reduce(fixture_trees()["labelable_eight_chains"])
        assert result.ok
        assert sum(1 for s in result.steps if s.level == 0) == 6

    @pytest.mark.parametrize("name", sorted(fixture_trees()))
    def test_fixture_verdicts(self, name):
        tree = fixture_trees()[name]
        expected = name.startswith("labelable")
        assert splice_reduce(tree).ok == expected
        assert is_fully_labelable_bruteforce(tree)[0] == expected

    def test_agreement_sweep_small(self):
        rng = random.Random(7)
        for _ in range(400):
            t = random_utree(rng)
            assert splice_reduce(t).ok == is_fully_labelable_bruteforce(t)[0]

    def test_addresses_do_not_affect_verdicts(self):
        # the same shapes embedded at different level lengths and address offsets
        for name, tree in fixture_trees().items():
            shape = _shape_of(tree)
            alt = build_tree(shape, (4, 7, 9))
            assert splice_reduce(alt).ok == splice_reduce(tree).ok
            assert is_isomorphic_to_full_binary(alt) == is_isomorphic_to_full_binary(tree)

    def test_isomorphism_check(self):
        assert is_isomorphic_to_full_binary(full_binary((2, 4, 6)))
        assert not is_isomorphic_to_full_binary(fixture_trees()["labelable_eight_chains"])
        # the check agrees with the nested shape of the full binary tree on the
        # fixtures, random trees, and full embeddings at random level lengths,
        # half of them with one leaf removed
        rng = random.Random(41)
        trees = list(fixture_trees().values()) + [random_utree(rng) for _ in range(2000)]
        for _ in range(200):
            height = rng.randint(1, 4)
            tree = full_binary(tuple(sorted(rng.sample(range(1, 3 * height + 1), height))))
            if rng.random() < 0.5:
                tree = UTree(tree.u, tree.nodes - {rng.choice(tree.levels[-1])})
            trees.append(tree)
        full = [()]
        while len(full) <= 4:
            full.append((full[-1], full[-1]))
        agree = [_shape_of(t) == full[t.height] for t in trees]
        assert [is_isomorphic_to_full_binary(t) for t in trees] == agree
        assert 0 < sum(agree) < len(trees)

    def test_concrete_splice_matches_reduction_engine(self):
        # applying a witness step with the concrete operation must preserve
        # reducibility and merge the sibling subtrees as disjoint union
        rng = random.Random(31)
        applied = 0
        for _ in range(300):
            raw = random_utree(rng)
            # re-embed at wide level lengths so pooled children always fit
            t = build_tree(_shape_of(raw), tuple(4 * (i + 1) for i in range(raw.height)))
            result = splice_reduce(t)
            if not result.ok or not result.steps:
                continue
            step = result.steps[0]
            if step.left not in t.nodes or step.right not in t.nodes:
                continue
            before = dict.fromkeys(range(t.height), 0)
            for i in range(t.height):
                before[i] = t.level_count(i)
            merged, _ = splice(t, None, step.left, step.right)
            applied += 1
            assert merged.level_count(step.level) == before[step.level] - 1
            for i in range(t.height):
                if i != step.level:
                    assert merged.level_count(i) == before[i]
            assert splice_reduce(merged).ok
        assert applied >= 30


def _shape_of(tree: UTree, node: BitString = EMPTY) -> tuple:
    return tuple(sorted(_shape_of(tree, c) for c in tree.children(node)))


class TestSearchCost:
    def test_searches_do_not_compare_words(self, seeded_tree, monkeypatch):
        """Both searches run on level indices: word comparisons and hashes stay
        within a small multiple of the output, pairs plus steps."""
        tree = seeded_tree(9)
        calls = {"lt": 0, "hash": 0}
        lt, hash_ = BitString.__lt__, BitString.__hash__

        def counted_lt(a, b):
            calls["lt"] += 1
            return lt(a, b)

        def counted_hash(a):
            calls["hash"] += 1
            return hash_(a)

        monkeypatch.setattr(BitString, "__lt__", counted_lt)
        monkeypatch.setattr(BitString, "__hash__", counted_hash)
        ok, lab = is_fully_labelable_bruteforce(tree)
        result = splice_reduce(tree)
        monkeypatch.undo()
        assert ok and result.ok
        assert (len(lab), len(result.steps)) == (62, 32)
        # sorting the 62 witness pairs is the only comparison work left
        assert calls["lt"] + calls["hash"] <= 4 * (len(lab) + len(result.steps))

    def test_splice_reduce_retains_no_memory(self, seeded_tree):
        """No cache outlives a call: memory after thousands of distinct trees is flat."""
        trees = [seeded_tree(s, 2 + s % 3) for s in range(2000)]
        splice_reduce(trees[0])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            reducible = sum(splice_reduce(t).ok for t in trees)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert reducible > 100
        assert retained < 32 * 1024

    @pytest.mark.parametrize("call", [
        "bruteforce", "splice_reduce", "labelling_from_reduction", "splice", "build_tree",
        "bipartition_patterns",
    ])
    def test_calls_leave_no_cyclic_garbage(self, call):
        """Each call frees what it built by reference counting alone."""
        tree = fixture_trees()["labelable_eight_chains"]
        steps = splice_reduce(tree).steps
        a, b = tree.levels[0][:2]
        run = {
            "bruteforce": lambda: is_fully_labelable_bruteforce(tree),
            "splice_reduce": lambda: splice_reduce(tree),
            "labelling_from_reduction": lambda: labelling_from_reduction(tree, steps),
            "splice": lambda: splice(tree, None, a, b),
            "build_tree": lambda: build_tree((((),),) * 8),
            "bipartition_patterns": lambda: list(_bipartition_patterns((2, 3, 1))),
        }[call]
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLabellingFromReduction:
    def test_full_binary_empty_steps_gives_identity(self):
        t = full_binary((1, 2, 3))
        lab = labelling_from_reduction(t, ())
        assert lab.as_dict() == {nd: nd for nd in t.nodes if nd != EMPTY}

    def test_reduction_labelling_is_full(self):
        for name, tree in fixture_trees().items():
            result = splice_reduce(tree)
            if not result.ok:
                continue
            lab = labelling_from_reduction(tree, result.steps)
            assert is_full_labelling(tree, lab), name

    def test_eight_chains_cover_all_length2_subjects(self):
        tree = fixture_trees()["labelable_eight_chains"]
        lab = labelling_from_reduction(tree, splice_reduce(tree).steps)
        mid = {s for nd, s in lab.pairs if len(nd) == tree.u[1]}
        assert mid == {B("00"), B("01"), B("10"), B("11")}

    def test_invalid_steps_rejected(self):
        t = full_binary((1, 2))
        bogus = (SpliceStep(0, B("0"), B("1"), B("1")),)
        with pytest.raises(PreconditionError, match="invalid steps"):
            labelling_from_reduction(t, bogus)
        with pytest.raises(PreconditionError, match="invalid steps"):
            labelling_from_reduction(t, (SpliceStep(0, B("0"), B("0"), B("0")),))
        # a correct merge leaves level 0 short of the binary copy
        with pytest.raises(PreconditionError, match="reduced to 1 nodes"):
            labelling_from_reduction(t, (SpliceStep(0, B("0"), B("1"), B("0")),))


class TestMeasureCondition:
    def test_spec_arithmetic(self):
        # u=(2,4): series 1/4 + 1/8; seven deepest nodes give measure 7/16
        nodes = [B.from_int(v, 2) for v in range(4)]
        nodes += [B.from_int(v, 4) for v in range(7)]
        t = UTree((2, 4), nodes)
        mc = measure_condition_check(t)
        assert mc.series_sum == Dyadic(3, 3)
        assert mc.measure == Dyadic(7, 4)
        assert mc.satisfied

    @pytest.mark.parametrize("k,satisfied", [(1, True), (2, False), (3, False)])
    def test_full_binary_tight_levels(self, k, satisfied):
        t = full_binary(tuple(range(1, k + 1)))
        mc = measure_condition_check(t)
        assert mc.series_sum == Dyadic(k, 1)
        assert mc.measure == Dyadic(1)
        assert mc.satisfied == satisfied

    def test_empty_top_level(self):
        t = UTree((1, 2), [B("0"), B("1")])
        mc = measure_condition_check(t)
        assert mc.measure == Dyadic(0)
        assert not mc.satisfied

    def test_condition_implies_labelable(self):
        rng = random.Random(99)
        seen = 0
        for _ in range(600):
            t = random_utree(rng)
            if measure_condition_check(t).satisfied:
                seen += 1
                assert is_fully_labelable_bruteforce(t)[0]
        assert seen >= 10
