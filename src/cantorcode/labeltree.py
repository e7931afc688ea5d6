"""Level-structured trees, labellings, and splice reduction to the full binary tree.

A tree over level lengths u_0 < u_1 < ... < u_{k-1} is a downward-closed set of
binary words whose lengths come from those levels (plus the root, the empty
word).  A labelling tags nodes with subject words: a node at level i may carry
a subject of length i+1, each node carries at most one subject, a carried
subject forces the full complement of shorter subjects to be carried somewhere,
and a node's subject must extend its parent's subject bit by bit.  A labelling
is full when every subject up to the tree height appears.

Two independent deciders are provided: an exhaustive search over labellings,
and a search over splice sequences (merging sibling nodes) targeting a copy of
the full binary tree.  Their agreement is an executable theorem and is swept
in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, NamedTuple

from .bits import BitString, Dyadic, EMPTY, dyadic_sum
from .errors import InputError, InternalError, PreconditionError

__all__ = [
    "UTree",
    "Labelling",
    "LabelVerdict",
    "SpliceStep",
    "ReduceResult",
    "MeasureCondition",
    "validate_labelling",
    "is_full_labelling",
    "is_fully_labelable_bruteforce",
    "splice",
    "splice_reduce",
    "labelling_from_reduction",
    "measure_condition_check",
    "is_isomorphic_to_full_binary",
    "parse_tree_text",
    "render_tree_text",
    "load_tree",
    "save_tree",
    "parse_labelling_text",
    "render_labelling_text",
    "random_utree",
]

BRUTE_FORCE_HEIGHT_CAP = 4


class UTree:
    """A downward-closed set of words at fixed level lengths, rooted at the empty word.

    Level i's nodes are indexed 0..n_i-1 in lex order, which for words of one
    length is integer order, so the children of a node are a contiguous index
    range of the next level: `spans[i + 1][j]` for node j of level i, and
    `spans[0][0]` for the root.
    """

    def __init__(self, u: Iterable[int], nodes: Iterable[BitString]):
        u = tuple(u)
        if not u:
            raise PreconditionError("level lengths must be nonempty")
        if any(x < 1 for x in u) or any(a >= b for a, b in zip(u, u[1:])):
            raise PreconditionError(f"level lengths must be strictly increasing positives: {u}")
        nodeset = frozenset(nodes) | {EMPTY}
        valid_lengths = {0, *u}
        by_length: dict[int, list[BitString]] = {x: [] for x in valid_lengths}
        for nd in nodeset:
            if len(nd) not in valid_lengths:
                raise PreconditionError(f"node {nd} has length {len(nd)}, not a level length")
            by_length[len(nd)].append(nd)
        self.u = u
        self.nodes = nodeset
        self.levels: tuple[tuple[BitString, ...], ...] = tuple(
            tuple(sorted(by_length[x], key=lambda nd: nd.value)) for x in u
        )
        self._level_of = {x: i for i, x in enumerate(u)}
        spans = [(range(len(self.levels[0])),)]
        for i in range(len(u) - 1):
            width = u[i + 1] - u[i]
            index = {nd.value: j for j, nd in enumerate(self.levels[i])}
            starts = [0] * (len(index) + 1)
            for child in self.levels[i + 1]:
                j = index.get(child.value >> width)
                if j is None:
                    raise PreconditionError(f"node {child} has no parent at length {u[i]}")
                starts[j + 1] += 1
            for j in range(len(index)):
                starts[j + 1] += starts[j]
            spans.append(tuple(range(a, b) for a, b in zip(starts, starts[1:])))
        self.spans: tuple[tuple[range, ...], ...] = tuple(spans)
        self._children: dict[BitString, tuple[BitString, ...]] = dict.fromkeys(self.levels[-1], ())
        for parents, below, ranges in zip(((EMPTY,),) + self.levels, self.levels, spans):
            for nd, r in zip(parents, ranges):
                self._children[nd] = below[r.start:r.stop]

    @property
    def height(self) -> int:
        return len(self.u)

    def level_of(self, node: BitString) -> int:
        """0-based level index; the root is level -1."""
        if node == EMPTY:
            return -1
        return self._level_of[len(node)]

    def children(self, node: BitString) -> tuple[BitString, ...]:
        return self._children[node]

    def parent(self, node: BitString) -> BitString:
        i = self.level_of(node)
        if i < 0:
            raise PreconditionError("the root has no parent")
        return EMPTY if i == 0 else node.prefix(self.u[i - 1])

    def level_count(self, i: int) -> int:
        return len(self.levels[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, UTree) and self.u == other.u and self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash((self.u, self.nodes))

    def __repr__(self) -> str:
        counts = ",".join(str(self.level_count(i)) for i in range(self.height))
        return f"UTree(u={self.u}, level_counts=({counts}))"


class Labelling:
    """A partial node -> subject map, stored as pairs so duplicates stay observable."""

    def __init__(self, pairs: Iterable[tuple[BitString, BitString]] = ()):
        self.pairs: tuple[tuple[BitString, BitString], ...] = tuple(sorted(pairs))

    def as_dict(self) -> dict[BitString, BitString]:
        out: dict[BitString, BitString] = {}
        for node, subject in self.pairs:
            if node in out:
                raise PreconditionError(f"node {node} carries two labels")
            out[node] = subject
        return out

    def subjects(self) -> set[BitString]:
        return {subject for _, subject in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Labelling) and self.pairs == other.pairs

    def __repr__(self) -> str:
        return f"Labelling({len(self.pairs)} pairs)"


@dataclass(frozen=True)
class LabelVerdict:
    ok: bool
    condition: int | None = None
    witness: BitString | None = None
    advisories: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_labelling(tree: UTree, lab: Labelling) -> LabelVerdict:
    """Check the five labelling conditions; report the first violated one.

    Duplicate subjects on incomparable nodes are allowed and surfaced as an
    advisory, since only the per-node uniqueness condition forbids anything.
    """
    nodes = [nd for nd, _ in lab.pairs]
    for nd in nodes:
        if nd not in tree.nodes:
            raise PreconditionError(f"labelled node {nd} is not in the tree")
    # (1) only level nodes carry labels (the root never does)
    for nd, _ in lab.pairs:
        if len(nd) not in tree._level_of:
            return LabelVerdict(False, 1, nd)
    # (2) a level-i node carries a subject of length i+1
    for nd, subject in lab.pairs:
        if len(subject) != tree.level_of(nd) + 1:
            return LabelVerdict(False, 2, nd)
    # (3) a subject of length j forces all subjects of length <= j to appear
    present = {subject for _, subject in lab.pairs}
    if present:
        deepest = max(len(s) for s in present)
        for j in range(1, deepest + 1):
            for v in range(1 << j):
                if BitString.from_int(v, j) not in present:
                    return LabelVerdict(False, 3, BitString.from_int(v, j))
    # (4) at most one label per node
    seen: set[BitString] = set()
    for nd, _ in lab.pairs:
        if nd in seen:
            return LabelVerdict(False, 4, nd)
        seen.add(nd)
    # (5) the subject of a node extends the subject of its parent
    table = dict(lab.pairs)
    for nd, subject in lab.pairs:
        i = tree.level_of(nd)
        if i > 0:
            parent = tree.parent(nd)
            if table.get(parent) != subject.prefix(i):
                return LabelVerdict(False, 5, nd)
    advisories = []
    by_subject: dict[BitString, int] = {}
    for _, subject in lab.pairs:
        by_subject[subject] = by_subject.get(subject, 0) + 1
    for subject in sorted(s for s, c in by_subject.items() if c > 1):
        advisories.append(f"duplicate subject {subject}")
    return LabelVerdict(True, advisories=tuple(advisories))


def is_full_labelling(tree: UTree, lab: Labelling) -> bool:
    """Valid and covering: every subject up to the tree height appears."""
    if not validate_labelling(tree, lab):
        return False
    present = lab.subjects()
    return all(
        BitString.from_int(v, j) in present
        for j in range(1, tree.height + 1)
        for v in range(1 << j)
    )


# -- decider 1: exhaustive labelling search ------------------------------------


def is_fully_labelable_bruteforce(tree: UTree) -> tuple[bool, Labelling | None]:
    """Exhaustive search for a full labelling, returning a witness when one exists.

    The search walks subject levels top-down.  Nodes carrying a common subject
    form a group; their pooled children must split into two nonempty groups
    carrying the subject's two extensions, and so on to the last level.  Group
    feasibility depends only on the group, so it is memoized; the bipartition
    enumeration itself is exhaustive.  A group is a bitmask over its level's
    node indices, and a split of the pooled children is a submask.
    """
    k = tree.height
    if k > BRUTE_FORCE_HEIGHT_CAP:
        raise PreconditionError("instance too large for oracle")

    # desc[i + 1][j][d]: descendants of node j of level i at level i + d (the root is i = -1)
    desc: list[list[tuple[int, ...]]] = [[(1,)] * tree.level_count(k - 1)]
    for ranges in reversed(tree.spans):
        below, zeros = desc[0], (0,) * len(desc)
        desc.insert(0, [(1,) + tuple(map(sum, zip(zeros, *below[r.start:r.stop])))
                        for r in ranges])
    top = _realize(tree.spans, desc, {}, 1, -1)
    if top is None:
        return False, None

    pairs: list[tuple[BitString, BitString]] = []
    stack = [(top, EMPTY, -1)]
    while stack:
        plan, subject, level = stack.pop()
        if plan[0] == "leaf":
            continue
        _, side_a, pa, side_b, pb = plan
        nodes = tree.levels[level + 1]
        for side, side_plan, bit in ((side_a, pa, 0), (side_b, pb, 1)):
            below = subject.append(bit)
            pairs.extend((nodes[j], below) for j in _bits(side))
            stack.append((side_plan, below, level + 1))
    return True, Labelling(pairs)


def _realize(spans, desc, memo: dict, group: int, level: int):
    """Plan for one subject on `group` plus all deeper subjects below it.

    A module-level function rather than a closure: a recursive closure holds
    itself through its cell, which would leave every call's memo to the
    cyclic collector.
    """
    k = len(spans)
    if level == k - 1:
        return ("leaf",)
    key = (level, group)
    if key in memo:
        return memo[key]
    plan = None
    members = _bits(group)
    rows = desc[level + 1]
    # cheap necessary condition: enough descendants for the subject tree below
    if all(sum(rows[j][d] for j in members) >= 1 << d for d in range(1, k - level)):
        children = 0
        for j in members:
            r = spans[level + 1][j]
            children |= (1 << r.stop) - (1 << r.start)
        head = children & -children
        rest = children ^ head
        sub = 0
        while sub != rest:  # every split with both sides nonempty, in numeric order
            pa = _realize(spans, desc, memo, head | sub, level + 1)
            if pa is not None:
                pb = _realize(spans, desc, memo, rest ^ sub, level + 1)
                if pb is not None:
                    plan = ("split", head | sub, pa, rest ^ sub, pb)
                    break
            sub = (sub - rest) & rest
    memo[key] = plan
    return plan


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of `mask`, ascending."""
    return [j for j in range(mask.bit_length()) if mask >> j & 1]


# -- splice operation (concrete, re-addressing) --------------------------------


@dataclass(frozen=True)
class SpliceStep:
    """One merge of two sibling nodes; the survivor keeps the smaller identity."""

    level: int
    left: BitString
    right: BitString
    survivor: BitString


def splice(
    tree: UTree,
    lab: Labelling | None,
    n1: BitString,
    n2: BitString,
) -> tuple[UTree, Labelling]:
    """Merge two sibling nodes into the lexicographically smaller one.

    The merged node's upper subtree is the disjoint union of both subtrees:
    the pooled children are re-addressed order-preservingly onto extensions of
    the survivor (descendants keep their relative suffixes).  Labels transfer
    with the move; two labelled siblings may only merge when their subjects
    coincide.
    """
    if n1 == n2 or n1 not in tree.nodes or n2 not in tree.nodes:
        raise PreconditionError("splice needs two distinct tree nodes")
    if len(n1) != len(n2) or tree.level_of(n1) < 0:
        raise PreconditionError(f"{n1} and {n2} are not siblings")
    level = tree.level_of(n1)
    if tree.parent(n1) != tree.parent(n2):
        raise PreconditionError(f"{n1} and {n2} are not siblings")
    survivor, absorbed = (n1, n2) if n1 < n2 else (n2, n1)

    label_map = lab.as_dict() if lab is not None else {}
    s1, s2 = label_map.get(n1), label_map.get(n2)
    if s1 is not None and s2 is not None and s1 != s2:
        raise PreconditionError(f"label conflict: {n1} carries {s1}, {n2} carries {s2}")
    merged_subject = s1 if s1 is not None else s2

    moved: dict[BitString, BitString] = {absorbed: survivor}
    if level + 1 < tree.height:
        pooled = sorted(tree.children(n1) + tree.children(n2))
        width = tree.u[level + 1] - tree.u[level]
        if len(pooled) > (1 << width):
            raise PreconditionError(
                f"address capacity exceeded below {survivor}: {len(pooled)} children, "
                f"{1 << width} slots"
            )
        stack = [(child, survivor + BitString.from_int(rank, width))
                 for rank, child in enumerate(pooled)]
        while stack:  # descendants keep their suffixes below the new address
            old, new = stack.pop()
            moved[old] = new
            i = tree.level_of(old)
            if i + 1 < tree.height:
                stack.extend((child, new + child.slice(tree.u[i], tree.u[i + 1]))
                             for child in tree.children(old))

    new_nodes = {moved.get(nd, nd) for nd in tree.nodes if nd != absorbed}
    new_pairs = []
    for nd, subject in label_map.items():
        if nd in (n1, n2):
            continue
        new_pairs.append((moved.get(nd, nd), subject))
    if merged_subject is not None:
        new_pairs.append((survivor, merged_subject))
    return UTree(tree.u, new_nodes), Labelling(new_pairs)


# -- decider 2: search over splice sequences ------------------------------------


@dataclass(frozen=True)
class ReduceResult:
    ok: bool
    steps: tuple[SpliceStep, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


class _Cluster(NamedTuple):
    """A node of the working tree during reduction.

    Tuples order by (shape, ident), the order the search sorts sibling groups
    in; `ident` is the node's index within its level, so no comparison gets
    past it.  `desc[d]` counts the node's descendants d + 1 levels below it.
    """

    shape: tuple
    ident: int
    children: tuple["_Cluster", ...]
    desc: tuple[int, ...]


def _clusters(tree: UTree) -> list[_Cluster]:
    """The level-0 clusters of `tree`, built bottom-up over the level indices."""
    below = [_Cluster((), j, (), ()) for j in range(tree.level_count(tree.height - 1))]
    zeros: tuple[int, ...] = ()
    for ranges in reversed(tree.spans[1:]):
        level = []
        for j, r in enumerate(ranges):
            kids = tuple(sorted(below[r.start:r.stop]))
            desc = (len(kids),) + tuple(map(sum, zip(zeros, *(c.desc for c in kids))))
            level.append(_Cluster(tuple(c.shape for c in kids), j, kids, desc))
        below = level
        zeros += (0,)
    return below


def _merges(side: list[_Cluster], level: int) -> list[tuple[int, int, int]]:
    """Fold a whole side into its smallest identity, as (level, survivor, absorbed)."""
    idents = sorted(c.ident for c in side)
    return [(level, idents[0], j) for j in idents[1:]]


def _bipartition_patterns(counts: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Ways to send a_i of each shape class to one side, both sides nonempty.

    Complementary patterns describe the same unordered split, so only the
    lexicographically smaller of each pair is produced.
    """
    total = sum(counts)
    for pattern in product(*(range(c + 1) for c in counts)):
        size = sum(pattern)
        if size == 0 or size == total:
            continue
        comp = tuple(n - a for n, a in zip(counts, pattern))
        if pattern <= comp:
            yield pattern


def splice_reduce(tree: UTree) -> ReduceResult:
    """Search for a splice sequence turning the tree into a full binary copy.

    Any splice sequence can be reordered root-down without changing the result,
    so the search picks, level by level, an unordered split of each sibling
    group into the two eventual survivors and recurses on their pooled
    children.  Failures are memoized by the group's shape multiset.  The
    search runs on level indices; steps become words once it has succeeded.
    """
    k = tree.height
    for i in range(k):
        if tree.level_count(i) < (1 << (i + 1)):
            return ReduceResult(False)

    merges = _reduce_group(_clusters(tree), 0, k, set(), {})
    if merges is None:
        return ReduceResult(False)
    words = tree.levels
    return ReduceResult(True, tuple(
        SpliceStep(lv, words[lv][a], words[lv][b], words[lv][a]) for lv, a, b in merges
    ))


def _reduce_group(
    group: list[_Cluster], level: int, k: int, fail: set, win: dict
) -> list[tuple[int, int, int]] | None:
    """Reduce sibling clusters to exactly two survivors, full binary above each.

    `fail` holds the (level, shapes) keys known to fail and `win` the split
    that succeeded for each known success.  A module-level function rather
    than a closure, so a call leaves no reference cycle behind.
    """
    if len(group) < 2:
        return None
    group = sorted(group)
    if level == k - 1:
        return _merges(group[1:], level)
    shapes = tuple(c.shape for c in group)
    key = (level, shapes)
    if key in fail:
        return None
    for d in range(k - 1 - level):
        if sum(c.desc[d] for c in group) < 1 << (d + 2):
            fail.add(key)
            return None
    # distinct shape classes with multiplicities
    classes: list[tuple[tuple, int]] = []
    for s in shapes:
        if classes and classes[-1][0] == s:
            classes[-1] = (s, classes[-1][1] + 1)
        else:
            classes.append((s, 1))
    known = win.get(key)
    patterns = (known,) if known is not None else _bipartition_patterns(
        tuple(c for _, c in classes))
    for pattern in patterns:
        side_a: list[_Cluster] = []
        side_b: list[_Cluster] = []
        pos = 0
        for (_, n), a in zip(classes, pattern):
            side_a.extend(group[pos:pos + a])
            side_b.extend(group[pos + a:pos + n])
            pos += n
        deeper_a = _reduce_group([c for s in side_a for c in s.children], level + 1, k, fail, win)
        if deeper_a is None:
            continue
        deeper_b = _reduce_group([c for s in side_b for c in s.children], level + 1, k, fail, win)
        if deeper_b is None:
            continue
        win[key] = pattern
        return _merges(side_a, level) + _merges(side_b, level) + deeper_a + deeper_b
    if known is not None:  # pragma: no cover - shape memo must be sound
        raise InternalError("memoized split failed to replay")
    fail.add(key)
    return None


def is_isomorphic_to_full_binary(tree: UTree) -> bool:
    """Partial-order isomorphism with the full binary tree of the same height:
    every node above the last level has exactly two children."""
    return all(len(r) == 2 for ranges in tree.spans for r in ranges)


# -- converse direction: labels from a reduction --------------------------------


def labelling_from_reduction(tree: UTree, steps: Iterable[SpliceStep]) -> Labelling:
    """Replay a reduction, label the resulting binary copy, and split back.

    Each surviving node of the reduced tree is a cluster of original nodes;
    labelling the binary copy and letting every cluster member inherit its
    cluster's subject yields a full labelling of the original tree.
    """
    k = tree.height
    members: list[dict[BitString, set[BitString]]] = [
        {nd: {nd} for nd in tree.levels[i]} for i in range(k)
    ]
    parent: list[dict[BitString, BitString]] = [
        {nd: tree.parent(nd) for nd in tree.levels[i]} for i in range(k)
    ]
    for step in steps:
        lv = step.level
        if not 0 <= lv < k:
            raise PreconditionError(f"invalid steps: no level {lv}")
        lvl = members[lv]
        if step.left not in lvl or step.right not in lvl or step.left == step.right:
            raise PreconditionError(f"invalid steps: {step.left}/{step.right} not mergeable")
        if parent[lv][step.left] != parent[lv][step.right]:
            raise PreconditionError(f"invalid steps: {step.left} and {step.right} not siblings")
        if step.survivor != min(step.left, step.right):
            raise PreconditionError("invalid steps: survivor must be the smaller identity")
        absorbed = max(step.left, step.right)
        lvl[step.survivor] = lvl[step.survivor] | lvl[absorbed]
        del lvl[absorbed]
        del parent[lv][absorbed]
        if lv + 1 < k:
            for child, par in list(parent[lv + 1].items()):
                if par == absorbed:
                    parent[lv + 1][child] = step.survivor

    # the reduced tree must be an exact binary copy
    children: list[dict[BitString, list[BitString]]] = []
    for i in range(k):
        if len(members[i]) != (1 << (i + 1)):
            raise PreconditionError(
                f"invalid steps: level {i} reduced to {len(members[i])} nodes, "
                f"expected {1 << (i + 1)}"
            )
    for i in range(k - 1):
        buckets: dict[BitString, list[BitString]] = {nd: [] for nd in members[i]}
        for child, par in parent[i + 1].items():
            buckets[par].append(child)
        if any(len(v) != 2 for v in buckets.values()):
            raise PreconditionError("invalid steps: reduced tree is not binary")
        children.append({nd: sorted(v) for nd, v in buckets.items()})

    pairs: list[tuple[BitString, BitString]] = []
    roots = sorted(members[0])
    stack = [(roots[0], 0, BitString("0")), (roots[1], 0, BitString("1"))]
    while stack:  # each cluster member inherits its cluster's subject
        cluster, level, subject = stack.pop()
        pairs.extend((original, subject) for original in members[level][cluster])
        if level + 1 < k:
            lo, hi = children[level][cluster]
            stack += [(lo, level + 1, subject.append(0)), (hi, level + 1, subject.append(1))]
    return Labelling(pairs)


# -- sufficient measure condition ------------------------------------------------


@dataclass(frozen=True)
class MeasureCondition:
    series_sum: Dyadic
    measure: Dyadic
    satisfied: bool


def measure_condition_check(tree: UTree) -> MeasureCondition:
    """Deepest-level measure against the level series sum of 2^(i - u_i)."""
    k = tree.height
    series = dyadic_sum(Dyadic.pow2(i - tree.u[i]) for i in range(k))
    meas = Dyadic(tree.level_count(k - 1), tree.u[k - 1])
    return MeasureCondition(series, meas, series < meas)


# -- text formats -----------------------------------------------------------------


def parse_tree_text(text: str) -> UTree:
    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or not lines[0].startswith("u:"):
        raise InputError("line 1 must be 'u: u0 u1 ...'")
    try:
        u = tuple(int(x) for x in lines[0][2:].split())
    except ValueError:
        raise InputError("line 1 must be 'u: u0 u1 ...'") from None
    nodes = []
    for k, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if line == "-":
            nodes.append(EMPTY)
            continue
        if any(c not in "01" for c in line):
            raise InputError(f"bad node at line {k}: {line!r}")
        nodes.append(BitString(line))
    try:
        return UTree(u, nodes)
    except PreconditionError as e:
        raise InputError(str(e)) from None


def render_tree_text(tree: UTree) -> str:
    out = ["u: " + " ".join(str(x) for x in tree.u), "-"]
    for level in tree.levels:
        out.extend(str(nd) for nd in level)
    return "\n".join(out) + "\n"


def load_tree(path) -> UTree:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_tree_text(fh.read())


def save_tree(tree: UTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_tree_text(tree))


def parse_labelling_text(text: str) -> Labelling:
    pairs = []
    for k, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if "->" not in line:
            raise InputError(f"bad labelling line {k}: {line!r}")
        left, right = (part.strip() for part in line.split("->", 1))
        node = EMPTY if left == "-" else BitString(left)
        pairs.append((node, BitString(right)))
    return Labelling(pairs)


def render_labelling_text(lab: Labelling) -> str:
    out = [f"{nd or '-'} -> {subject}" for nd, subject in lab.pairs]
    return "\n".join(out) + "\n"


# -- seeded instance generation ----------------------------------------------------


def random_utree(rng: random.Random, max_height: int = 3, max_per_level: int = 10) -> UTree:
    """One seeded tree from the bounded population, mixing sparse and bushy builds."""
    height = rng.randint(1, max_height)
    u = []
    length = rng.randint(1, 3)
    for _ in range(height):
        u.append(length)
        length += rng.randint(1, 3)
    bushy = rng.random() < 0.5
    weights = [1, 4, 3, 2] if bushy else [3, 5, 2, 1]  # weight of 0,1,2,3 children
    nodes: list[BitString] = []
    current = [EMPTY]
    prev_len = 0
    for i in range(height):
        width = u[i] - prev_len
        cap = 1 << width
        nxt: list[BitString] = []
        budget = max_per_level if i else min(max_per_level, cap)
        for nd in current:
            if budget <= 0:
                break
            kmax = min(cap, budget, 3)
            k = rng.choices(range(kmax + 1), weights=weights[: kmax + 1])[0]
            if nd == EMPTY and k == 0:
                k = rng.randint(1, kmax)  # keep the first level nonempty
            for suffix in rng.sample(range(cap), k):
                nxt.append(nd + BitString.from_int(suffix, width))
            budget -= k
        nodes.extend(nxt)
        current = nxt
        prev_len = u[i]
        if not current:
            break
    return UTree(u, nodes)
