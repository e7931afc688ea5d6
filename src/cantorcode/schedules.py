"""Coding schedules: block lengths, exact convergence accounting, redundancy reports.

A schedule pairs source-block lengths (m_i) with code-block lengths (l_i >= m_i).
Block boundaries M(n) = sum of m_i and L(n) = sum of l_i drive everything else:
the coding budget is the exact dyadic sum of 2^(m_i - l_i), and the oracle-use
for a source bit is the code boundary of its block.

All ceil(2*log2(i+2)) values are computed by bit length, never by float log.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

from .bits import ZERO, Dyadic
from .errors import InputError, PreconditionError

__all__ = [
    "Schedule",
    "preset",
    "parse_schedule_spec",
    "convergence_margin",
    "oracle_use_bound",
    "RedundancyReport",
    "redundancy_report",
    "ceil_2log2",
]

PRESETS = ("kucera", "gacs", "gacs-squared", "gacs-sqrt")


def ceil_2log2(n: int) -> int:
    """ceil(2 * log2(n)) for n >= 1, via integer bit length."""
    if n < 1:
        raise PreconditionError(f"log of non-positive value {n}")
    return (n * n - 1).bit_length()


def _ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


class Schedule:
    """Immutable pair of block-length maps with cached boundary prefix sums."""

    def __init__(self, name: str, m: Callable[[int], int], l: Callable[[int], int],
                 length: int | None = None):
        self.name = name
        self._m = m
        self._l = l
        self.length = length  # None means unbounded (presets)
        self._msums = [0]
        self._lsums = [0]
        self._budgets = [ZERO]

    def _check_index(self, i: int) -> None:
        if i < 0:
            raise PreconditionError(f"negative block index {i}")
        if self.length is not None and i >= self.length:
            raise PreconditionError(
                f"block index {i} beyond explicit schedule of length {self.length}"
            )

    def m(self, i: int) -> int:
        self._check_index(i)
        return self._m(i)

    def l(self, i: int) -> int:
        self._check_index(i)
        return self._l(i)

    def g(self, i: int) -> int:
        """Per-block overhead l_i - m_i."""
        return self.l(i) - self.m(i)

    def M(self, n: int) -> int:
        """Source bits coded after n blocks."""
        return _prefix_sum(self._msums, self.m, n)

    def L(self, n: int) -> int:
        """Code bits consumed after n blocks."""
        return _prefix_sum(self._lsums, self.l, n)

    def budget(self, n: int) -> Dyadic:
        """Coding budget of the first n blocks: the exact sum of 2^(m_i - l_i) over i < n."""
        return _prefix_sum(self._budgets, lambda i: Dyadic.pow2(self.m(i) - self.l(i)), n)

    def block_index(self, bits: int, code: bool = False) -> int:
        """Least n with M(n) >= bits (L(n) >= bits if `code`), bisecting the cached sums."""
        sums, boundary = (self._lsums, self.L) if code else (self._msums, self.M)
        while sums[-1] < bits:
            boundary(len(sums))
        return bisect_left(sums, bits)

    def check_depth(self, n: int, depth: int) -> None:
        """Raise unless the first n blocks fit in depth bits, L(n) <= depth.  Every l_i is
        at least 1, so the sums grow only to the first boundary past depth, or to a
        finite schedule's length, however large n is."""
        if self.length is None:
            fits = n < self.block_index(depth + 1, code=True)
        else:
            fits = self.L(n) <= depth  # n beyond the length raises after `length` terms
        if not fits:
            raise PreconditionError(f"class depth {depth} shallower than L({n})")

    def blocks_for_source(self, bits: int) -> int:
        """n with M(n) == bits, or an error when bits is not a block boundary."""
        n = self.block_index(bits)
        if self.M(n) != bits:
            raise PreconditionError(f"source length must equal M(n): {bits} is not a boundary")
        return n

    def __repr__(self) -> str:
        return f"Schedule({self.name!r})"


def _prefix_sum(sums: list, term: Callable[[int], object], n: int):
    """sums[n], extending the cached prefix sums with term(k) as far as needed."""
    if n < 0:
        raise PreconditionError(f"negative block count {n}")
    while len(sums) <= n:
        k = len(sums) - 1
        sums.append(sums[-1] + term(k))
    return sums[n]


def preset(name: str, m: list[int] | None = None, l: list[int] | None = None) -> Schedule:
    """Build one of the named schedules, or a custom one from explicit lists.

    kucera codes one source bit per block; gacs grows blocks linearly.  Both
    pay the same ceil(2*log2(i+2)) overhead per block, which keeps the budget
    series summable.  gacs-squared / gacs-sqrt are comparison presets only.
    """
    if name == "kucera":
        return Schedule("kucera", lambda i: 1, lambda i: 1 + ceil_2log2(i + 2))
    if name == "gacs":
        return Schedule("gacs", lambda i: i + 1, lambda i: (i + 1) + ceil_2log2(i + 2))
    if name == "gacs-squared":
        return Schedule("gacs-squared", lambda i: (i + 1) ** 2,
                        lambda i: (i + 1) ** 2 + ceil_2log2(i + 2))
    if name == "gacs-sqrt":
        return Schedule("gacs-sqrt", lambda i: _ceil_sqrt(i + 1),
                        lambda i: _ceil_sqrt(i + 1) + ceil_2log2(i + 2))
    if name == "custom":
        if m is None or l is None or len(m) != len(l) or not m:
            raise InputError("custom schedule needs equal-length nonempty m and l lists")
        for i, (mi, li) in enumerate(zip(m, l)):
            if mi < 1:
                raise InputError(f"block length m[{i}] = {mi} must be positive")
            if li < mi:
                raise InputError(f"negative overhead at block {i}: l={li} < m={mi}")
        mm, ll = tuple(m), tuple(l)
        return Schedule("custom", lambda i: mm[i], lambda i: ll[i], length=len(mm))
    raise InputError(f"unknown schedule {name!r}; expected one of {PRESETS + ('custom',)}")


def parse_schedule_spec(spec: str) -> Schedule:
    """CLI form: a preset name, or 'custom:m=1,2;l=3,4'."""
    if spec in PRESETS:
        return preset(spec)
    if spec.startswith("custom:"):
        parts = dict(
            kv.split("=", 1) for kv in spec[len("custom:"):].split(";") if "=" in kv
        )
        try:
            m = [int(x) for x in parts["m"].split(",")]
            l = [int(x) for x in parts["l"].split(",")]
        except (KeyError, ValueError):
            raise InputError(f"bad custom schedule spec {spec!r}") from None
        return preset("custom", m, l)
    raise InputError(f"unknown schedule spec {spec!r}")


def convergence_margin(s: Schedule, k: int, budget: Dyadic) -> tuple[Dyadic, bool]:
    """Exact partial sum of 2^(m_i - l_i) over i < k, and whether it is under budget."""
    partial = s.budget(k)
    return partial, partial < budget


def oracle_use_bound(s: Schedule, n: int) -> int:
    """Code prefix length needed for source bit index n: L(t+1) where M(t) <= n < M(t+1)."""
    if n < 0:
        raise PreconditionError(f"negative bit index {n}")
    return s.L(s.block_index(n + 1))


@dataclass(frozen=True)
class RedundancyReport:
    """Per-bit oracle-use table with the two classical comparison curves."""

    schedule: str
    rows: tuple[tuple[int, int, int], ...]  # (n, use(n), use(n) - n)
    partial_sums: tuple[Dyadic, ...] = field(default=())

    def bound_nlogn(self, n: int) -> float:
        return n * math.log2(n + 2)

    def bound_sqrtnlogn(self, n: int) -> float:
        return math.sqrt(n) * math.log2(n) if n > 1 else 0.0

    def to_csv(self) -> str:
        lines = ["n,use,redundancy,bound_nlogn,bound_sqrtnlogn"]
        for n, use, red in self.rows:
            lines.append(
                f"{n},{use},{red},{self.bound_nlogn(n):.3f},{self.bound_sqrtnlogn(n):.3f}"
            )
        return "\n".join(lines) + "\n"


def redundancy_report(s: Schedule, n_max: int) -> RedundancyReport:
    """use(n) for n = 1..n_max source bits, where use(n) covers bit index n-1.

    use(n) is non-decreasing; redundancy use(n) - n accumulates the per-block
    overheads.  Partial budget sums are attached for the blocks the table spans.
    """
    rows = []
    for n in range(1, n_max + 1):
        use = oracle_use_bound(s, n - 1)
        rows.append((n, use, use - n))
    sums = tuple(s.budget(k) for k in range(1, s.block_index(n_max) + 1))
    return RedundancyReport(s.name, tuple(rows), sums)
