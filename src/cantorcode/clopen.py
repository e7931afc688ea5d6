"""Finite clopen subsets of Cantor space at a fixed depth.

A class of depth d is a set of length-d words, stored as a canonical counted
binary trie so that near-full classes at depth 24+ stay cheap: a trie node is
either True (everything below present), False (nothing below), or a
(left, right, count) triple that is never uniformly full or empty.  The count
invariant: count is the number of members below the node, taken at the
node's height, so member totals and densities cost O(1) per node.  All
measures and densities come out as exact dyadics.

Also provides the shrinking-approximation wrapper, the text file format, the
budgeted pruning construction, and the extension/density property verifiers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

from .bits import BitString, Dyadic
from .errors import InputError, InternalError, PreconditionError

if TYPE_CHECKING:  # pragma: no cover
    from .schedules import Schedule

__all__ = [
    "ClopenClass",
    "ApproxSequence",
    "ActRecord",
    "PruneResult",
    "PropertyVerdict",
    "prune",
    "verify_extension_property",
    "verify_density_property",
    "parse_class_text",
    "write_class_text",
    "load_class",
    "save_class",
    "random_class",
]

# -- trie primitives ---------------------------------------------------------
# node := True (full subtree) | False (empty subtree) | (left, right, count)
#
# A node's height is the number of bits below it; the root of a depth-d class
# has height d.  `count` is the number of members below an interior node at
# its own height, and 0 < count < 2^height: an interior node is never
# uniformly full or empty.  Every walk that builds a node passes its height to
# `_make`, which sums the children's counts, so a node's count is O(1) to read.

_FULL = True
_EMPTY = False

# Most members a class may list, in memory or as text.
MEMBER_CAP = 1 << 22


def _count(node, height: int) -> int:
    if node is _FULL:
        return 1 << height
    if node is _EMPTY:
        return 0
    return node[2]


def _make(left, right, height: int):
    """Canonical node of the given height over two children one level lower, with the
    children's counts read inline (this is the trie's hottest call)."""
    if left is _FULL:
        if right is _FULL:
            return _FULL
        nl = 1 << (height - 1)
    elif left is _EMPTY:
        if right is _EMPTY:
            return _EMPTY
        nl = 0
    else:
        nl = left[2]
    if right is _FULL:
        return (left, right, nl + (1 << (height - 1)))
    if right is _EMPTY:
        return (left, right, nl)
    return (left, right, nl + right[2])


def _split(node):
    """Children of a node, a full or empty node standing for two copies of itself."""
    if node is _FULL or node is _EMPTY:
        return node, node
    return node[0], node[1]


def _at(node, value: int, length: int):
    """Subtree rooted at the given prefix."""
    for i in range(length):
        if node is _FULL or node is _EMPTY:
            return node
        node = node[(value >> (length - 1 - i)) & 1]
    return node


def _put(node, value: int, length: int, height: int, leaf):
    """Node with the cylinder below the given prefix made `leaf` (full or empty), by a
    loop (siblings stacked going down, rejoined going up): no recursion limit applies."""
    root, siblings = node, []
    for shift in range(length - 1, -1, -1):
        if node is leaf:
            return root
        if node is _FULL or node is _EMPTY:
            siblings.append(node)  # both children of a constant node equal it
        elif (value >> shift) & 1:
            siblings.append(node[0])
            node = node[1]
        else:
            siblings.append(node[1])
            node = node[0]
    # rejoin with the running count n of sub, adding each sibling's count on the way up
    sub, n = leaf, (1 << (height - length)) if leaf is _FULL else 0
    for h in range(height - length + 1, height + 1):
        sibling = siblings.pop()
        if sibling is sub:  # equal constant children make that constant (a built sub is new)
            n <<= 1
        else:
            n += (1 << (h - 1)) if sibling is _FULL else sibling[2] if sibling else 0
            sub = (sibling, sub, n) if value & 1 else (sub, sibling, n)
        value >>= 1
    return sub


def _union(a, b, height: int):
    if a is _FULL or b is _FULL:
        return _FULL
    if a is _EMPTY:
        return b
    if b is _EMPTY:
        return a
    return _make(_union(a[0], b[0], height - 1), _union(a[1], b[1], height - 1), height)


def _intersect(a, b, height: int):
    if a is _EMPTY or b is _EMPTY:
        return _EMPTY
    if a is _FULL:
        return b
    if b is _FULL:
        return a
    return _make(_intersect(a[0], b[0], height - 1), _intersect(a[1], b[1], height - 1), height)


def _minus(a, b, height: int):
    if a is _EMPTY or b is _FULL:
        return _EMPTY
    if b is _EMPTY:
        return a
    aa = _split(a)
    return _make(_minus(aa[0], b[0], height - 1), _minus(aa[1], b[1], height - 1), height)


def _subset(a, b) -> bool:
    if a is _EMPTY or b is _FULL:
        return True
    if b is _EMPTY:
        return False
    if a is _FULL:
        return False  # b is a proper tuple here, so it misses something
    return _subset(a[0], b[0]) and _subset(a[1], b[1])


def _iter_prefix_values(node, length: int, acc: int = 0) -> Iterator[int]:
    """All extendible prefixes of the given length, in lexicographic order."""
    stack = [(node, length, acc)]
    while stack:
        node, rest, acc = stack.pop()
        if node is _EMPTY:
            continue
        if rest == 0:
            yield acc
        elif node is _FULL:
            base = acc << rest
            yield from range(base, base + (1 << rest))
        else:
            stack.append((node[1], rest - 1, (acc << 1) | 1))
            stack.append((node[0], rest - 1, acc << 1))


def _mixed_levels(node, lengths) -> Iterator[list[tuple[int, tuple]]]:
    """For each of the non-decreasing lengths, the prefixes of that length whose subtree
    is neither full nor empty, as lexicographically ordered (value, node) pairs.

    A full or empty subtree stays so below, so each list holds the mixed descendants
    of the one before: the whole scan is one walk down to the last length, skipping
    full and empty regions wholesale.
    """
    frontier = [] if node is _FULL or node is _EMPTY else [(0, node)]
    walked = 0
    for length in lengths:
        for _ in range(length - walked):
            below = []
            for value, sub in frontier:
                left, right = sub[0], sub[1]
                if left is not _FULL and left is not _EMPTY:
                    below.append((value << 1, left))
                if right is not _FULL and right is not _EMPTY:
                    below.append((value << 1 | 1, right))
            frontier = below
        walked = length
        yield frontier


def _ext_count(node, depth: int) -> int:
    """Number of extendible prefixes of the given relative depth."""
    if node is _EMPTY:
        return 0
    if node is _FULL:
        return 1 << depth
    if depth == 0:
        return 1
    return _ext_count(node[0], depth - 1) + _ext_count(node[1], depth - 1)


def _take_leftmost(node, height: int, quota: int):
    """Trie keeping only the `quota` lexicographically least members, by a loop down the
    one path where the quota splits a node: each node rebuilt on it holds the quota left
    there, beside an empty right child or the whole left one."""
    if quota <= 0:
        return _EMPTY
    path = []
    while node is not _EMPTY and quota < ((1 << height) if node is _FULL else node[2]):
        height -= 1
        left, right = (node, node) if node is _FULL else (node[0], node[1])
        nl = (1 << height) if left is _FULL else left[2] if left else 0
        if quota <= nl:
            path.append((None, quota))
            node = left
        else:
            path.append((left, quota))
            node, quota = right, quota - nl
    for left, kept in reversed(path):
        node = (node, _EMPTY, kept) if left is None else (left, node, kept)
    return node


# -- the public class --------------------------------------------------------


class ClopenClass:
    """Depth-d approximation of an effectively closed set: a set of length-d words."""

    __slots__ = ("depth", "_root", "_n")

    def __init__(self, depth: int, root=_EMPTY):
        # depth 0 (the class {empty word}) is degenerate but needed as the
        # restriction of a class to length-0 strings.
        if depth < 0:
            raise PreconditionError(f"class depth must be non-negative, got {depth}")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "_root", root)
        object.__setattr__(self, "_n", _count(root, depth))

    def __setattr__(self, name, val):  # pragma: no cover - defensive
        raise AttributeError("ClopenClass is immutable")

    @classmethod
    def full(cls, depth: int) -> "ClopenClass":
        return cls(depth, _FULL)

    @classmethod
    def empty(cls, depth: int) -> "ClopenClass":
        return cls(depth, _EMPTY)

    @classmethod
    def from_members(cls, depth: int, members) -> "ClopenClass":
        root = _EMPTY
        for m in members:
            if len(m) != depth:
                raise PreconditionError(f"member {m} has length {len(m)}, expected {depth}")
            root = _put(root, m.as_int, depth, depth, _FULL)
        return cls(depth, root)

    @classmethod
    def from_cylinders(cls, depth: int, prefixes) -> "ClopenClass":
        root = _EMPTY
        for p in prefixes:
            if len(p) > depth:
                raise PreconditionError(f"cylinder {p} deeper than class depth {depth}")
            root = _put(root, p.as_int, len(p), depth, _FULL)
        return cls(depth, root)

    # -- queries -------------------------------------------------------------

    @property
    def member_count(self) -> int:
        return self._n

    def measure(self) -> Dyadic:
        return Dyadic(self._n, self.depth)

    def is_empty(self) -> bool:
        return self._root is _EMPTY

    def __contains__(self, s: BitString) -> bool:
        if len(s) != self.depth:
            return False
        return _at(self._root, s.as_int, self.depth) is _FULL

    def _check_len(self, s: BitString) -> None:
        if len(s) > self.depth:
            raise PreconditionError("string deeper than class approximation")

    def is_extendible(self, s: BitString) -> bool:
        """True iff some member has s as a prefix."""
        self._check_len(s)
        return _at(self._root, s.as_int, len(s)) is not _EMPTY

    def density(self, s: BitString) -> Dyadic:
        """Relative measure of the class inside the cylinder of s, in [0, 1]."""
        self._check_len(s)
        sub = _at(self._root, s.as_int, len(s))
        return Dyadic(_count(sub, self.depth - len(s)), self.depth - len(s))

    def extension_count(self, s: BitString, length: int) -> int:
        """Number of extendible length-`length` extensions of s."""
        self._check_len(s)
        if not len(s) <= length <= self.depth:
            raise PreconditionError(f"extension length {length} out of range")
        sub = _at(self._root, s.as_int, len(s))
        return _ext_count(sub, length - len(s))

    def extension_rank(self, s: BitString, w: BitString) -> int:
        """Number of extendible len(w)-bit extensions of s that sort before w: one walk
        down w's path below s, adding the left sibling's extendible count at each 1-bit."""
        self._check_len(w)
        if not s.is_prefix_of(w):
            raise PreconditionError(f"{w} does not extend {s}")
        node = _at(self._root, s.as_int, len(s))
        value, rank = w.as_int, 0
        for rest in range(len(w) - len(s) - 1, -1, -1):
            left, right = _split(node)
            if (value >> rest) & 1:
                rank += _ext_count(left, rest)
                node = right
            else:
                node = left
        return rank

    def extendible_strings(self, length: int) -> Iterator[BitString]:
        """All extendible words of the given length, lexicographically."""
        if not 0 <= length <= self.depth:
            raise PreconditionError("string deeper than class approximation")
        for v in _iter_prefix_values(self._root, length):
            yield BitString.from_int(v, length)

    def extendible_extensions(self, s: BitString, length: int) -> Iterator[BitString]:
        """Extendible length-`length` extensions of s, lexicographically, lazily."""
        self._check_len(s)
        if not len(s) <= length <= self.depth:
            raise PreconditionError(f"extension length {length} out of range")
        sub = _at(self._root, s.as_int, len(s))
        for v in _iter_prefix_values(sub, length - len(s), s.as_int):
            yield BitString.from_int(v, length)

    def leftmost(self, length: int) -> BitString:
        """Lexicographically least extendible word of the given length."""
        if self.is_empty():
            raise PreconditionError("empty class has no extendible strings")
        return next(self.extendible_strings(length))

    def mixed_densities(self, lengths) -> Iterator[list[tuple[int, Dyadic]]]:
        """For each of the non-decreasing lengths, (prefix value, density) of each prefix
        of that length whose cylinder the class neither fills nor misses, lexicographically.

        Every other extendible prefix of a length has density 1.
        """
        lengths = list(lengths)
        if [0, *lengths, self.depth] != sorted([0, *lengths, self.depth]):
            raise PreconditionError(f"lengths {lengths} must not fall or pass depth {self.depth}")
        for length, mixed in zip(lengths, _mixed_levels(self._root, lengths)):
            height = self.depth - length
            yield [(value, Dyadic(sub[2], height)) for value, sub in mixed]

    def members(self) -> list[BitString]:
        return [BitString.from_int(v, self.depth) for v in self._member_values()]

    def _member_values(self) -> Iterator[int]:
        """Member values in lexicographic order, refused above MEMBER_CAP members."""
        if self._n > MEMBER_CAP:
            raise PreconditionError(f"refusing to list a class of more than {MEMBER_CAP} members")
        return _iter_prefix_values(self._root, self.depth)

    # -- algebra -------------------------------------------------------------

    def minus_cylinder(self, s: BitString) -> "ClopenClass":
        self._check_len(s)
        return ClopenClass(self.depth, _put(self._root, s.as_int, len(s), self.depth, _EMPTY))

    def part_below(self, s: BitString) -> "ClopenClass":
        """The class restricted to extensions of s (same depth)."""
        self._check_len(s)
        value, length = s.as_int, len(s)
        sub = _at(self._root, value, length)
        if sub is _EMPTY:
            return ClopenClass.empty(self.depth)
        n = _count(sub, self.depth - length)  # every node above sub holds just its members
        for _ in range(length):
            sub = (_EMPTY, sub, n) if value & 1 else (sub, _EMPTY, n)
            value >>= 1
        return ClopenClass(self.depth, sub)

    def meet_measure(self, u: "ClopenClass") -> Dyadic:
        """Measure of the part of the class below some member of the shallower class u,
        by one stack walk over both tries that only counts: below a full node of u the
        whole subtree counts, and a full node of this class meets u's node in all of its
        members, each one a cylinder of 2^(depth - u.depth) words."""
        if u.depth > self.depth:
            raise PreconditionError("level set deeper than the class")
        shift, total = self.depth - u.depth, 0
        stack = [(self._root, u._root, self.depth)]
        while stack:
            a, b, height = stack.pop()
            if a is _EMPTY or b is _EMPTY:
                continue
            if b is _FULL:
                total += _count(a, height)
            elif a is _FULL:
                total += b[2] << shift
            else:
                stack.append((a[0], b[0], height - 1))
                stack.append((a[1], b[1], height - 1))
        return Dyadic(total, self.depth)

    def union(self, other: "ClopenClass") -> "ClopenClass":
        self._same_depth(other)
        return ClopenClass(self.depth, _union(self._root, other._root, self.depth))

    def intersect(self, other: "ClopenClass") -> "ClopenClass":
        self._same_depth(other)
        return ClopenClass(self.depth, _intersect(self._root, other._root, self.depth))

    def minus(self, other: "ClopenClass") -> "ClopenClass":
        self._same_depth(other)
        return ClopenClass(self.depth, _minus(self._root, other._root, self.depth))

    def is_subset_of(self, other: "ClopenClass") -> bool:
        self._same_depth(other)
        return _subset(self._root, other._root)

    def keep_leftmost(self, quota: int) -> "ClopenClass":
        """The `quota` lexicographically least members (all of them if fewer)."""
        return ClopenClass(self.depth, _take_leftmost(self._root, self.depth, quota))

    def _same_depth(self, other: "ClopenClass") -> None:
        if self.depth != other.depth:
            raise PreconditionError(f"depth mismatch: {self.depth} vs {other.depth}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClopenClass)
            and self.depth == other.depth
            and self._root == other._root
        )

    def __hash__(self) -> int:
        return hash((self.depth, self._root))

    def __repr__(self) -> str:
        return f"ClopenClass(depth={self.depth}, members={self._n})"


@dataclass(frozen=True)
class ApproxSequence:
    """Monotone shrinking stages of equal depth: stages[s+1] is a subset of stages[s]."""

    stages: tuple[ClopenClass, ...]

    def __post_init__(self):
        if not self.stages:
            raise PreconditionError("approximation needs at least one stage")
        depth = self.stages[0].depth
        for i, st in enumerate(self.stages):
            if st.depth != depth:
                raise PreconditionError(f"stage {i} has depth {st.depth}, expected {depth}")
        for i in range(len(self.stages) - 1):
            if not self.stages[i + 1].is_subset_of(self.stages[i]):
                raise PreconditionError(f"stage {i + 1} is not a subset of stage {i}")

    @property
    def depth(self) -> int:
        return self.stages[0].depth

    @property
    def final(self) -> ClopenClass:
        return self.stages[-1]

    def at(self, s: int) -> ClopenClass:
        """Stage s, clamped to the last provided stage."""
        return self.stages[min(s, len(self.stages) - 1)]


# -- text format --------------------------------------------------------------


def parse_class_text(text: str) -> ClopenClass:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("depth "):
        raise InputError("line 1 must be 'depth <d>'")
    try:
        depth = int(lines[0][len("depth "):])
    except ValueError:
        raise InputError("line 1 must be 'depth <d>'") from None
    if depth < 0:
        raise InputError(f"class depth must be non-negative, got {depth}")
    root = _EMPTY
    seen: set[int] = set()
    for k, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        if len(line) != depth or any(c not in "01" for c in line):
            raise InputError(f"wrong-length member at line {k}")
        v = int(line, 2)
        if v in seen:
            raise InputError(f"duplicate member at line {k}")
        seen.add(v)
        root = _put(root, v, depth, depth, _FULL)
    return ClopenClass(depth, root)


def write_class_text(c: ClopenClass, fh) -> None:
    """Write c as a 'depth <d>' line and one member per line; refuse, before writing
    any byte, a class of more than MEMBER_CAP members."""
    values = c._member_values()
    fh.write(f"depth {c.depth}\n")
    width = c.depth
    for v in values:
        fh.write(format(v, f"0{width}b") + "\n" if width else "\n")


def load_class(path) -> ClopenClass:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_class_text(fh.read())


def save_class(c: ClopenClass, path) -> None:
    c._member_values()  # refuse a capped class before the file is created
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_class_text(c, fh)


def random_class(depth: int, seed: int, min_measure: Dyadic, removals: int = 24) -> ClopenClass:
    """Seeded class: start full, carve out random cylinders while staying above min_measure."""
    if depth < 1 or removals < 0:
        raise PreconditionError(f"random_class needs depth >= 1 and removals >= 0, "
                                f"got depth {depth}, removals {removals}")
    rng = random.Random(seed)
    c = ClopenClass.full(depth)
    for _ in range(removals):
        length = rng.randint(1, depth)
        prefix = BitString.from_int(rng.getrandbits(length), length)
        candidate = c.minus_cylinder(prefix)
        if candidate.measure() > min_measure:
            c = candidate
    return c


# -- pruning construction ------------------------------------------------------


@dataclass(frozen=True)
class ActRecord:
    """One removal: at `stage`, the level-`level` string `sigma` lost its whole remainder."""

    stage: int
    level: int
    sigma: BitString
    removed: Dyadic


@dataclass(frozen=True)
class PruneResult:
    pstar: ClopenClass
    q: ClopenClass
    trace: tuple[ActRecord, ...]


def prune(P: ClopenClass, sched: "Schedule", levels: int) -> PruneResult:
    """Carve low-density cylinders out of P until every surviving block boundary is thick.

    Each act removes the remainder below the least pair (n, sigma), block
    boundaries n in increasing order and level-n strings sigma in lexicographic
    order, whose current density is at most 2^(m_n - l_n); acts repeat until
    nothing qualifies.  The removals Q have measure at most the series sum, so
    the result is nonempty whenever that sum is below measure(P).

    The pairs are read in one forward pass over P's mixed prefixes, level by
    level: while level n is scanned every act is at a boundary k <= n, so each
    level-n count is its count in P or 0.  An act at (n, sigma) lowers only the
    densities of sigma's prefixes, so only its ancestors at boundaries k < n can
    newly qualify; they are checked in increasing k and the first thin one is
    acted on next.  The acts are therefore exactly those of a rescan from level
    0 after each act, in the same order.
    """
    sched.check_depth(levels, P.depth)
    budget = sched.budget(levels)
    if not budget < P.measure():
        raise PreconditionError(
            f"measure budget exhausted: partial sum {budget} >= measure {P.measure()}"
        )
    depth = P.depth
    lengths = [sched.L(n) for n in range(levels)]
    # density count / 2^h <= 2^(m - l) at height h, as a bound on the count;
    # the budget check makes every bound smaller than 2^h, so no full node is thin
    limits = []
    for n, length in enumerate(lengths):
        e = depth - length + sched.m(n) - sched.l(n)
        limits.append(1 << e if e >= 0 else 0)

    current = P
    q = ClopenClass.empty(depth)
    trace: list[ActRecord] = []

    def thin(k: int, value: int) -> bool:
        return 0 < _count(_at(current._root, value, lengths[k]), depth - lengths[k]) <= limits[k]

    for n, mixed in enumerate(_mixed_levels(P._root, lengths)):
        for value, sub in mixed:
            if sub[2] > limits[n] or not thin(n, value):
                continue
            hit = (n, value)
            while hit is not None:
                k, v = hit
                sigma = BitString.from_int(v, lengths[k])
                piece = current.part_below(sigma)
                q = q.union(piece)
                current = current.minus_cylinder(sigma)
                trace.append(ActRecord(len(trace) + 1, k, sigma, piece.measure()))
                ancestors = ((j, v >> (lengths[k] - lengths[j])) for j in range(k))
                hit = next((a for a in ancestors if thin(*a)), None)
    if q.measure() > budget:
        raise InternalError(f"removed measure {q.measure()} exceeds budget {budget}")
    if current.is_empty():
        raise InternalError("pruning emptied the class despite a valid budget")
    return PruneResult(current, q, tuple(trace))


# -- property verifiers --------------------------------------------------------


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a property scan; on failure carries the least counterexample."""

    ok: bool
    level: int | None = None
    sigma: BitString | None = None
    observed: object = None
    required: object = None

    def __bool__(self) -> bool:
        return self.ok


def verify_extension_property(C: ClopenClass, sched: "Schedule", levels: int) -> PropertyVerdict:
    """Every extendible string at L_i must have at least 2^(m_i) extendible
    extensions of length L_{i+1}, for each i < levels."""
    sched.check_depth(levels, C.depth)
    lengths = [sched.L(i) for i in range(levels)]
    for i, mixed in enumerate(_mixed_levels(C._root, lengths)):
        li, need = lengths[i], 1 << sched.m(i)
        # Inside a full region every string has 2^(l_i) >= 2^(m_i) extensions,
        # so only mixed prefixes can fail.
        for value, sub in mixed:
            got = _ext_count(sub, sched.l(i))
            if got < need:
                return PropertyVerdict(False, i, BitString.from_int(value, li), got, need)
    return PropertyVerdict(True)


def verify_density_property(C: ClopenClass, sched: "Schedule", levels: int) -> PropertyVerdict:
    """Every extendible string at L_i must have density at least 2^(m_i - l_i)."""
    sched.check_depth(levels, C.depth)
    lengths = [sched.L(i) for i in range(levels)]
    for i, densities in enumerate(C.mixed_densities(lengths)):
        li, thr = lengths[i], Dyadic.pow2(sched.m(i) - sched.l(i))
        for value, dens in densities:
            if not dens >= thr:
                return PropertyVerdict(False, i, BitString.from_int(value, li), dens, thr)
    return PropertyVerdict(True)
