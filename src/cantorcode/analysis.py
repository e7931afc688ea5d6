"""Negative-direction machinery: left sets, truncated cover chains, density floors.

Given a class P, the left set at length i collects the leftmost extendible
string of that length together with everything lexicographically left of it,
so P meets it in at most one cylinder.  Feeding those sets through a budgeted
truncation chain traps the leftmost path of P: wherever the path falls out of
the chain, its prefix is a certified low-density witness, with every measure
comparison exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .bits import BitString, Dyadic, ONE
from .clopen import ClopenClass
from .errors import InternalError, PreconditionError

__all__ = [
    "left_sets",
    "truncate_class",
    "VtLevel",
    "VtResult",
    "vt_construction",
    "left_sets_for_levels",
    "DensityRow",
    "density_threshold_experiment",
    "random_vt_instance",
]


def truncate_class(c: ClopenClass, threshold: Dyadic) -> ClopenClass:
    """Largest lexicographic initial segment of c with measure at most threshold:
    its floor(threshold * 2^depth) least members, all of them if it has fewer."""
    return c.keep_leftmost((threshold.num << c.depth) >> threshold.exp)


def left_sets(P: ClopenClass, i: int) -> ClopenClass:
    """The leftmost extendible string of length i and everything to its left.

    Returned as a depth-i class.  P meets it only inside the leftmost cylinder,
    so the intersection measure is at most 2^-i; that bound is re-checked
    exactly here rather than assumed.
    """
    u = ClopenClass.full(i).keep_leftmost(P.leftmost(i).as_int + 1)
    meet = P.meet_measure(u)
    if meet > Dyadic.pow2(-i) and i > 0:
        raise InternalError(f"left set at length {i} meets the class with measure {meet}")
    return u


@dataclass(frozen=True)
class VtLevel:
    t: int
    length: int
    cover: ClopenClass
    decay_bound: Dyadic  # (1 - 2^-(g(t-1)+1)) * measure of the previous cover, t >= 1


@dataclass(frozen=True)
class VtResult:
    levels: tuple[VtLevel, ...]
    witness_t: int | None
    witness: BitString | None
    witness_density: Dyadic | None
    witness_threshold: Dyadic | None


def vt_construction(
    P: ClopenClass,
    U: Sequence[ClopenClass],
    g: Callable[[int], int],
    n: Sequence[int],
    t_max: int,
) -> VtResult:
    """Build the nested truncated covers and trap the leftmost path of P.

    U[t] must be a depth-n[t] class for t <= t_max, with measure(P meet U[t])
    at most 2^-n[t]; the level lengths must satisfy n[t+1] > n[t] + g(t).  The
    cover at level t+1 keeps, inside each cylinder of the previous cover, the
    lexicographically least part of U[t+1] of relative measure at most
    1 - 2^-(g(t)+1).  If the leftmost path of P falls out of the chain before
    t_max, the prefix where it last belonged is returned with its
    exactly-verified density bound 2^-g(t).
    """
    if t_max + 1 > len(n) or t_max + 1 > len(U):
        raise PreconditionError("need level lengths and level sets through t_max")
    for t in range(t_max):
        if g(t) < 0:
            raise PreconditionError(f"overhead g({t}) must be non-negative")
        if not n[t + 1] > n[t] + g(t):
            raise PreconditionError(f"level lengths too close: n[{t + 1}] <= n[{t}] + g({t})")
    if P.is_empty():
        raise PreconditionError("empty class")
    if n[t_max] > P.depth:
        raise PreconditionError("string deeper than class approximation")
    for t in range(t_max + 1):
        if U[t].depth != n[t]:
            raise PreconditionError(f"level set {t} has depth {U[t].depth}, expected {n[t]}")
        if P.meet_measure(U[t]) > Dyadic.pow2(-n[t]):
            raise PreconditionError(f"level set {t} meets the class too heavily")

    x = P.leftmost(P.depth)
    for t in range(t_max + 1):
        if x.prefix(n[t]) not in U[t]:
            raise PreconditionError("leftmost path is not inside the level sets")

    cover = ClopenClass.full(n[0])
    levels = [VtLevel(0, n[0], cover, ONE)]
    for t in range(t_max):
        budget_rel = ONE - Dyadic.pow2(-g(t) - 1)  # kept fraction of each cylinder
        threshold = budget_rel.shifted(-n[t])
        nxt = ClopenClass.empty(n[t + 1])
        for sigma in cover.extendible_strings(n[t]):
            # below a sigma that U[t+1] misses, the kept part is empty
            if U[t + 1].is_extendible(sigma):
                nxt = nxt.union(truncate_class(U[t + 1].part_below(sigma), threshold))
        bound = budget_rel * cover.measure()
        if nxt.measure() > bound:
            raise InternalError(
                f"cover {t + 1} has measure {nxt.measure()}, above the decay bound {bound}"
            )
        levels.append(VtLevel(t + 1, n[t + 1], nxt, bound))
        cover = nxt

    exit_t = None
    for t in range(t_max + 1):
        if x.prefix(n[t]) in levels[t].cover:
            exit_t = t
        else:
            break
    if exit_t is None:
        raise InternalError("the leftmost path must belong to the full level-0 cover")
    if exit_t == t_max:
        return VtResult(tuple(levels), None, None, None, None)
    sigma = x.prefix(n[exit_t])
    dens = P.density(sigma)
    thr = Dyadic.pow2(-g(exit_t))
    if dens > thr:
        raise InternalError(
            f"witness {sigma} has density {dens}, above the certified bound {thr}"
        )
    return VtResult(tuple(levels), exit_t, sigma, dens, thr)


def left_sets_for_levels(P: ClopenClass, n: Sequence[int]) -> list[ClopenClass]:
    """The left-set family at the given lengths, ready for the chain construction."""
    return [left_sets(P, length) for length in n]


@dataclass(frozen=True)
class DensityRow:
    level: int
    length: int
    min_density: Dyadic
    threshold: Dyadic
    ok: bool
    argmin: BitString


def density_threshold_experiment(
    P: ClopenClass, g: Callable[[int], int], lengths: Sequence[int]
) -> list[DensityRow]:
    """Exact minimum density over extendible strings at each level, against 2^-g(i)."""
    for t in range(len(lengths) - 1):
        if not lengths[t + 1] > lengths[t] + g(t):
            raise PreconditionError(f"level lengths too close at {t}")
    if lengths and lengths[-1] > P.depth:
        raise PreconditionError("string deeper than class approximation")
    if P.is_empty():
        raise PreconditionError("empty class")
    rows = []
    for i, (length, densities) in enumerate(zip(lengths, P.mixed_densities(lengths))):
        # full regions have density 1, so only mixed prefixes can set the minimum
        best, arg = ONE, P.leftmost(length)
        for value, d in densities:
            if d < best:
                best, arg = d, BitString.from_int(value, length)
        thr = Dyadic.pow2(-g(i))
        rows.append(DensityRow(i, length, best, thr, best >= thr, arg))
    return rows


def random_vt_instance(
    seed: int, t_max: int = 3
) -> tuple[ClopenClass, list[ClopenClass], list[int], list[int]]:
    """Seeded instance whose leftmost path provably falls out of the chain.

    The path is laid out with all-zero blocks (kept by every truncation) up to
    a planted level, then an all-ones block (always dropped), so the exit level
    is exact.  The other members are drawn at or to the right of the path.
    Returns (class, level sets, overheads g, level lengths n).
    """
    rng = random.Random(seed)
    g = [rng.randint(0, 2) for _ in range(t_max)]
    n = [rng.randint(2, 4)]
    for t in range(t_max):
        n.append(n[t] + g[t] + rng.randint(1, 2))
    depth = n[-1]
    planted = rng.randrange(t_max)
    path_bits = [0] * depth
    for p in range(n[planted], n[planted + 1]):
        path_bits[p] = 1
    x = BitString(path_bits)
    members = {x}
    for _ in range(rng.randint(4, 40)):
        v = rng.randrange(x.as_int, 1 << depth)
        members.add(BitString.from_int(v, depth))
    P = ClopenClass.from_members(depth, members)
    return P, left_sets_for_levels(P, n), g, n
