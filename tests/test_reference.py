"""Shadow model: every trie-backed operation re-done with explicit string sets.

The reference implementations here are deliberately naive (materialized member
sets, quadratic scans) and share no code with the package internals, so any
divergence points at a real defect on one side.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from cantorcode.analysis import (
    density_threshold_experiment,
    left_sets,
    truncate_class,
    vt_construction,
)
from cantorcode.bits import BitString, Dyadic, ONE, dyadic_sum
from cantorcode.clopen import (
    ApproxSequence,
    ClopenClass,
    prune,
    verify_density_property,
    verify_extension_property,
)
from cantorcode.coder import decode, encode, settle_words
from cantorcode.errors import PreconditionError
from cantorcode.labeltree import UTree, is_fully_labelable_bruteforce, splice_reduce
from cantorcode.schedules import Schedule, preset

B = BitString


# -- naive model over frozensets of strings ------------------------------------


def n_members(depth: int, rng: random.Random, keep: float) -> frozenset[str]:
    return frozenset(
        format(v, f"0{depth}b") for v in range(1 << depth) if rng.random() < keep
    )


def n_measure(members: frozenset[str], depth: int) -> Dyadic:
    return Dyadic(len(members), depth)

def n_extendible(members: frozenset[str], s: str) -> bool:
    return any(m.startswith(s) for m in members)


def n_density(members: frozenset[str], depth: int, s: str) -> Dyadic:
    count = sum(1 for m in members if m.startswith(s))
    return Dyadic(count, depth - len(s))


def n_ext_count(members: frozenset[str], s: str, length: int) -> int:
    return len({m[:length] for m in members if m.startswith(s)})


def n_prune(members: frozenset[str], depth: int, sched: Schedule, levels: int):
    """Reference pruning: rescan (level, lex) after every removal."""
    current = set(members)
    acts = []
    while True:
        hit = None
        for n in range(levels):
            length = sched.L(n)
            thr = Dyadic.pow2(sched.m(n) - sched.l(n))
            for v in range(1 << length):
                s = format(v, f"0{length}b") if length else ""
                if n_extendible(frozenset(current), s) and n_density(
                    frozenset(current), depth, s
                ) <= thr:
                    hit = (n, s)
                    break
            if hit:
                break
        if hit is None:
            break
        lvl, s = hit
        removed = {m for m in current if m.startswith(s)}
        current -= removed
        acts.append((lvl, s, len(removed)))
    return frozenset(current), acts


def n_settle(members: frozenset[str], depth: int, sigma: str, m: int, width: int):
    """Reference table: the 2^m least extendible width-bit extensions, in slot order."""
    out = []
    for v in range(1 << (width - len(sigma))):
        cand = sigma + format(v, f"0{width - len(sigma)}b")
        if n_extendible(members, cand):
            out.append(cand)
        if len(out) == (1 << m):
            break
    return out


def to_class(members: frozenset[str], depth: int) -> ClopenClass:
    return ClopenClass.from_members(depth, [B(m) for m in members])


# -- comparisons ----------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_measure_density_extensions_match(seed):
    rng = random.Random(seed)
    depth = rng.randint(2, 8)
    members = n_members(depth, rng, rng.choice([0.2, 0.5, 0.8]))
    c = to_class(members, depth)
    assert c.measure() == n_measure(members, depth)
    assert c.member_count == len(members)
    for length in range(depth + 1):
        for v in range(1 << length):
            s = format(v, f"0{length}b") if length else ""
            bs = B(s)
            assert c.is_extendible(bs) == n_extendible(members, s)
            assert c.density(bs) == n_density(members, depth, s)
            for target in range(length, depth + 1):
                assert c.extension_count(bs, target) == n_ext_count(members, s, target)


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_and_leftmost_match(seed):
    rng = random.Random(seed + 100)
    depth = rng.randint(2, 7)
    members = n_members(depth, rng, 0.4)
    if not members:
        return
    c = to_class(members, depth)
    assert [str(m) for m in c.members()] == sorted(members)
    for length in range(depth + 1):
        want = sorted({m[:length] for m in members})
        assert [str(s) for s in c.extendible_strings(length)] == want
        assert str(c.leftmost(length)) == want[0]
    quota = rng.randint(0, len(members))
    assert [str(m) for m in c.keep_leftmost(quota).members()] == sorted(members)[:quota]


@pytest.mark.parametrize("seed", range(24))
def test_prune_matches_reference(seed):
    rng = random.Random(seed + 300)
    m = [rng.randint(1, 2) for _ in range(2)]
    # keep the budget series strictly below 1 so a dense enough class exists
    l = [m[0] + rng.randint(1, 2), m[1] + rng.randint(2, 3)]
    sched = preset("custom", m, l)
    depth = sched.L(2)
    budget = dyadic_sum(Dyadic.pow2(m[i] - l[i]) for i in range(2))
    members = frozenset()
    while not n_measure(members, depth) > budget:
        members = n_members(depth, rng, 0.75)
    got = prune(to_class(members, depth), sched, 2)
    want_members, want_acts = n_prune(members, depth, sched, 2)
    assert {str(x) for x in got.pstar.members()} == set(want_members)
    assert [(a.level, str(a.sigma)) for a in got.trace] == [(lv, s) for lv, s, _ in want_acts]
    assert got.q.member_count == len(members) - len(want_members)
    # verifier verdicts agree with definition-level scans
    for levels in (1, 2):
        ext = verify_extension_property(got.pstar, sched, levels)
        assert ext.ok == all(
            n_ext_count(want_members, s, sched.L(i + 1)) >= (1 << m[i])
            for i in range(levels)
            for s in {mm[: sched.L(i)] for mm in want_members}
        )
        den = verify_density_property(got.pstar, sched, levels)
        assert den.ok == all(
            n_density(want_members, depth, s) >= Dyadic.pow2(m[i] - l[i])
            for i in range(levels)
            for s in {mm[: sched.L(i)] for mm in want_members}
        )


def n_verdicts(members: frozenset[str], depth: int, m: list[int], l: list[int]):
    """Reference verifiers and density floor: the least failing (level, prefix, observed,
    required) of each property, or None, and the (min density, least argmin) per level,
    from one pass over the members at each block boundary."""
    bounds = [sum(l[:i]) for i in range(len(l) + 1)]
    ext = den = None
    floors = []
    for i in range(len(m)):
        counts: dict[str, int] = {}
        extensions: dict[str, set[str]] = {}
        for w in members:
            s = w[: bounds[i]]
            counts[s] = counts.get(s, 0) + 1
            extensions.setdefault(s, set()).add(w[: bounds[i + 1]])
        need, thr = 1 << m[i], Dyadic.pow2(m[i] - l[i])
        densities = [(s, Dyadic(counts[s], depth - bounds[i])) for s in sorted(counts)]
        for s, dens in densities:
            if ext is None and len(extensions[s]) < need:
                ext = (i, s, len(extensions[s]), need)
            if den is None and dens < thr:
                den = (i, s, dens, thr)
        least = min(d for _, d in densities)
        floors.append((least, next(s for s, d in densities if d == least)))
    return ext, den, floors


def test_verifier_counterexamples_and_density_floor_match():
    failed = {"extension": 0, "density": 0}
    runs = 0
    for seed in range(60):
        rng = random.Random(seed + 1500)
        blocks = rng.randint(1, 3)
        m = [rng.randint(1, 2) for _ in range(blocks)]
        l = [mi + rng.randint(0, 1) for mi in m]
        depth = sum(l) + rng.randint(0, 1)
        members = n_members(depth, rng, rng.choice([0.3, 0.6, 0.9, 0.97]))
        if not members:
            continue
        runs += 1
        c = to_class(members, depth)
        sched = preset("custom", m, l)
        want_ext, want_den, want_floors = n_verdicts(members, depth, m, l)
        checks = {
            "extension": (verify_extension_property(c, sched, blocks), want_ext),
            "density": (verify_density_property(c, sched, blocks), want_den),
        }
        for name, (verdict, want) in checks.items():
            got = None if verdict.ok else (
                verdict.level, str(verdict.sigma), verdict.observed, verdict.required
            )
            assert got == want, name
            failed[name] += not verdict.ok
        lengths = [sum(l[:i]) for i in range(blocks)]
        rows = density_threshold_experiment(c, lambda i: l[i] - m[i], lengths)
        assert [(r.level, r.length) for r in rows] == list(enumerate(lengths))
        assert [(r.min_density, str(r.argmin)) for r in rows] == want_floors
        assert [r.threshold for r in rows] == [Dyadic.pow2(m[i] - l[i]) for i in range(blocks)]
        assert [r.ok for r in rows] == [
            least >= Dyadic.pow2(m[i] - l[i]) for i, (least, _) in enumerate(want_floors)
        ]
    # the sample exercises both verdicts of both verifiers
    assert all(0 < count < runs for count in failed.values()), (failed, runs)


def n_cascade_class(seed: int) -> tuple[frozenset[str], int]:
    """A class built to make prune cascade under custom m=1,1,1; l=4,4,4.

    Some level-1 strings (length 4) are full.  One or two of them keep only two
    full level-2 children (length 8), density 2/16, exactly the level-1
    threshold 2^(1-4), plus one to three thin level-2 children that lift them
    just above it.  Removing the thin children drops the level-1 parent back to
    the threshold, so the parent is acted on right after a longer-boundary act.
    """
    rng = random.Random(seed + 1300)
    depth = rng.randint(12, 13)
    tail = depth - 8
    members: set[str] = set()
    level1 = rng.sample(range(16), rng.randint(8, 10))
    for sigma in level1:
        members.update(format(sigma, "04b") + format(t, f"0{depth - 4}b")
                       for t in range(1 << (depth - 4)))
    for sigma in rng.sample(level1, rng.randint(1, 2)):
        s = format(sigma, "04b")
        members -= {m for m in members if m.startswith(s)}
        kids = [s + format(c, "04b") for c in rng.sample(range(16), rng.randint(3, 5))]
        for kid in kids[:2]:
            members.update(kid + format(t, f"0{tail}b") for t in range(1 << tail))
        for kid in kids[2:]:
            keep = rng.randint(1, 1 << (tail - 3))
            members.update(kid + format(t, f"0{tail}b") for t in rng.sample(range(1 << tail), keep))
    return frozenset(members), depth


@pytest.mark.parametrize("seed", range(6))
def test_prune_cascade_matches_reference(seed):
    sched = preset("custom", [1, 1, 1], [4, 4, 4])
    members, depth = n_cascade_class(seed)
    got = prune(to_class(members, depth), sched, 3)
    want_members, want_acts = n_prune(members, depth, sched, 3)
    assert [(a.level, str(a.sigma)) for a in got.trace] == [(lv, s) for lv, s, _ in want_acts]
    assert [a.removed for a in got.trace] == [Dyadic(k, depth) for _, _, k in want_acts]
    assert {str(x) for x in got.pstar.members()} == set(want_members)
    assert {str(x) for x in got.q.members()} == members - want_members
    # a cascade: an act at a shorter boundary right after a longer one
    assert any(b[0] < a[0] for a, b in zip(want_acts, want_acts[1:]))


@pytest.mark.parametrize("seed", range(16))
def test_word_tables_match_reference(seed):
    rng = random.Random(seed + 500)
    sched = preset("custom", [rng.randint(1, 2)], [rng.randint(2, 3)])
    if sched.l(0) < sched.m(0):
        return
    depth = sched.L(1)
    members = n_members(depth, rng, 0.7)
    if not members:
        return
    c = to_class(members, depth)
    want = n_settle(members, depth, "", sched.m(0), sched.L(1))
    if len(want) < (1 << sched.m(0)):
        with pytest.raises(Exception, match="extension property violated"):
            settle_words(c, sched, B(""))
        return
    table = settle_words(c, sched, B(""))
    assert [str(w) for w in table.slots] == want


def n_staged_settle(stages: list[frozenset[str]], sigma: str, m: int, width: int):
    """Reference stage process.  Step s = 1, 2, ... reads stage min(s, last), so stage 0
    is never read, and makes one event: it clears the least slot whose word has no
    member left, or fills the least empty slot with the least live width-bit extension
    of sigma that no slot holds.  A step with neither only moves on to the next stage;
    at the last stage it ends the run, and so does an empty slot with nothing to fill
    it.  Returns the slots, None for an empty one, and the (stage, slot, op, word)
    events."""
    slots: list[str | None] = [None] * (1 << m)
    history = []
    s = 0
    while True:
        s += 1
        live = stages[min(s, len(stages) - 1)]
        bad = [t for t, w in enumerate(slots) if w is None or not n_extendible(live, w)]
        if not bad:
            if live == stages[-1]:
                return slots, history
            continue
        t = bad[0]
        if slots[t] is not None:
            history.append((s, t, "clear", slots[t]))
            slots[t] = None
            continue
        fresh = sorted({w[:width] for w in live if w.startswith(sigma)} - set(slots))
        if not fresh:
            return slots, history
        slots[t] = fresh[0]
        history.append((s, t, "assign", fresh[0]))


def test_staged_tables_match_reference():
    seen = {"table": 0, "open slot": 0, "dead sigma": 0, "clear": 0, "drain": 0}
    for seed in range(300):
        rng = random.Random(seed + 1700)
        m = [rng.randint(1, 2) for _ in range(2)]
        l = [mi + rng.randint(0, 2) for mi in m]
        sched = preset("custom", m, l)
        depth = sched.L(2)
        stages = [n_members(depth, rng, rng.choice([0.6, 0.9, 1.0]))]
        for _ in range(rng.randint(0, 5)):
            stages.append(frozenset(w for w in sorted(stages[-1]) if rng.random() < 0.85))
        if not stages[0]:
            continue
        level = rng.randint(0, 1)
        sigma = rng.choice(sorted(stages[0]))[: sched.L(level)]
        approx = ApproxSequence(tuple(to_class(st, depth) for st in stages))
        run = lambda: settle_words(approx.final, sched, B(sigma), stages=approx)  # noqa: E731
        if not n_extendible(stages[-1], sigma):
            seen["dead sigma"] += 1
            with pytest.raises(PreconditionError, match="is not extendible in the class"):
                run()
            continue
        slots, history = n_staged_settle(stages, sigma, m[level], sched.L(level + 1))
        seen["clear"] += any(op == "clear" for _, _, op, _ in history)
        seen["drain"] += any(b[0] - a[0] > 1 for a, b in zip(history, history[1:]))
        if None in slots:
            seen["open slot"] += 1
            with pytest.raises(PreconditionError) as err:
                run()
            assert str(err.value) == f"extension property violated at {sigma or 'the root'}"
            continue
        seen["table"] += 1
        table = run()
        assert [str(w) for w in table.slots] == slots
        assert [(e.stage, e.slot, e.op, str(e.word)) for e in table.history] == history
    # the sample reaches every outcome, clears words, and drains stages between events
    assert all(seen.values()), seen


@pytest.mark.parametrize("seed", range(16))
def test_roundtrip_against_fresh_tables(seed):
    rng = random.Random(seed + 700)
    sched = preset("kucera")
    depth = sched.L(2)
    members = n_members(depth, rng, 0.8)
    c = to_class(members, depth)
    if not verify_extension_property(c, sched, 2).ok:
        return
    for v in range(4):
        x = B.from_int(v, 2)
        y = encode(x, c, sched).code
        # reference decode: block by block against reference tables
        sigma = ""
        out = ""
        for i in range(2):
            slots = n_settle(members, depth, sigma, sched.m(i), sched.L(i + 1))
            target = str(y)[: sched.L(i + 1)]
            j = slots.index(target)
            out += format(j, f"0{sched.m(i)}b")
            sigma = target
        assert out == str(x)
        assert decode(y, c, sched, 2).source == x


@pytest.mark.parametrize("seed", range(10))
def test_left_sets_and_truncation_match(seed):
    rng = random.Random(seed + 900)
    depth = rng.randint(3, 8)
    members = n_members(depth, rng, 0.3)
    if not members:
        return
    c = to_class(members, depth)
    for i in range(depth + 1):
        star = min(m[:i] for m in members)
        want = sorted(format(v, f"0{i}b") if i else "" for v in range(int(star, 2) + 1 if i else 1))
        assert [str(s) for s in left_sets(c, i).members()] == want
    thr = Dyadic(rng.randint(0, 1 << depth), depth)
    kept = truncate_class(c, thr)
    naive = []
    total = Dyadic(0)
    for m in sorted(members):
        if total + Dyadic(1, depth) <= thr:
            naive.append(m)
            total = total + Dyadic(1, depth)
        else:
            break
    assert [str(s) for s in kept.members()] == naive


@pytest.mark.parametrize("seed", range(8))
def test_vt_chain_matches_reference(seed):
    rng = random.Random(seed + 1100)
    n = [rng.randint(2, 3)]
    g = [rng.randint(0, 1) for _ in range(2)]
    for t in range(2):
        n.append(n[t] + g[t] + 1)
    depth = n[-1]
    members = n_members(depth, rng, 0.5)
    if not members:
        return
    final = to_class(members, depth)
    u_sets = [left_sets(final, length) for length in n]
    result = vt_construction(final, u_sets, lambda t: g[t], n, 2)

    # reference chain with explicit sets
    u_strs = [{str(s) for s in u.members()} for u in u_sets]
    covers = [{format(v, f"0{n[0]}b") for v in range(1 << n[0])}]
    for t in range(2):
        nxt = set()
        for sigma in covers[t]:
            below = sorted(s for s in u_strs[t + 1] if s.startswith(sigma))
            budget = (ONE - Dyadic.pow2(-g[t] - 1)).shifted(-n[t])
            kept = []
            total = Dyadic(0)
            for s in below:
                if total + Dyadic(1, n[t + 1]) <= budget:
                    kept.append(s)
                    total = total + Dyadic(1, n[t + 1])
                else:
                    break
            nxt.update(kept)
        covers.append(nxt)
    for t in range(3):
        assert {str(s) for s in result.levels[t].cover.members()} == covers[t]
    # reference witness: maximal t with the leftmost path's prefix in the cover
    x = min(members)
    exit_t = 0
    for t in range(3):
        if x[: n[t]] in covers[t]:
            exit_t = t
        else:
            break
    if exit_t == 2:
        assert result.witness is None
    else:
        assert result.witness_t == exit_t
        assert str(result.witness) == x[: n[exit_t]]
        assert result.witness_density <= Dyadic.pow2(-g[exit_t])


# -- naive labelability over sets of words ---------------------------------------


def n_random_tree(rng: random.Random) -> tuple[tuple[int, ...], frozenset[str]]:
    """Level lengths and a downward-closed word set of at most 10 nodes, root excluded."""
    u: list[int] = []
    for _ in range(rng.choice((1, 2, 2, 2))):  # height 3 needs 14 nodes to be labelable
        u.append((u[-1] if u else 0) + rng.randint(1, 2))
    words: set[str] = set()
    current = [""]
    for length in u:
        width = length - len(current[0])
        nxt = []
        for w in current:
            k = min(rng.randint(0 if w else 1, 4), 1 << width, 10 - len(words) - len(nxt))
            tails = rng.sample(range(1 << width), max(k, 0))
            nxt.extend(w + format(t, f"0{width}b") for t in tails)
        words.update(nxt)
        current = nxt
        if not current:
            break
    return tuple(u), frozenset(words)


def n_labellings(u: tuple[int, ...], words: frozenset[str]):
    """Every labelling whose labelled nodes are closed toward the root: each node
    takes its parent's subject plus 0, plus 1, or no label (at most 3^n of them)."""
    order = sorted(words, key=len)  # parents before children
    labels: dict[str, str] = {}

    def parent_subject(w: str) -> str | None:
        shorter = [x for x in u if x < len(w)]
        return labels.get(w[:shorter[-1]]) if shorter else ""

    def rec(i: int):
        if i == len(order):
            yield list(labels.items())
            return
        yield from rec(i + 1)
        base = parent_subject(order[i])
        if base is not None:
            for bit in "01":
                labels[order[i]] = base + bit
                yield from rec(i + 1)
                del labels[order[i]]

    return rec(0)


def n_is_full_labelling(u: tuple[int, ...], words: frozenset[str], pairs) -> bool:
    """The five labelling conditions plus fullness, checked on strings."""
    level = {x: i for i, x in enumerate(u)}
    subjects = {s for _, s in pairs}
    table = dict(pairs)

    def every(j: int) -> list[str]:
        return [format(v, f"0{j}b") for v in range(1 << j)]

    if not all(s in subjects for j in range(1, len(u) + 1) for s in every(j)):
        return False  # not full
    return (
        all(w in words and len(w) in level for w, _ in pairs)  # (1)
        and all(len(s) == level[len(w)] + 1 for w, s in pairs)  # (2)
        and all(x in subjects for s in subjects for j in range(1, len(s) + 1)
                for x in every(j))  # (3)
        and len(table) == len(pairs)  # (4)
        and all(level[len(w)] == 0 or table.get(w[:u[level[len(w)] - 1]]) == s[:-1]
                for w, s in pairs)  # (5)
    )


def test_labelability_deciders_match_reference():
    rng = random.Random(4242)
    verdicts = []
    for _ in range(200):
        u, words = n_random_tree(rng)
        want = any(n_is_full_labelling(u, words, pairs) for pairs in n_labellings(u, words))
        tree = UTree(u, [B(w) for w in words])
        ok, witness = is_fully_labelable_bruteforce(tree)
        assert ok == want, (u, sorted(words))
        assert splice_reduce(tree).ok == want, (u, sorted(words))
        if ok:
            pairs = [(str(nd), str(s)) for nd, s in witness.pairs]
            assert n_is_full_labelling(u, words, pairs)
        verdicts.append(want)
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
