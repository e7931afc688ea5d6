"""Exact primitives: finite binary words and dyadic rationals.

Everything downstream (measures, densities, code words, tree nodes) is built
from these two value types.  No floating point is used anywhere a verdict is
produced; dyadic arithmetic is exact by construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import PreconditionError

__all__ = ["BitString", "EMPTY", "Dyadic", "dyadic_sum", "ZERO", "ONE"]


class BitString:
    """Immutable finite word over {0,1}, ordered lexicographically.

    Stored as (value, length) with the first bit in the most significant
    position, so equal-length comparison is integer comparison and the
    integer value doubles as the word's rank within its length class.
    """

    __slots__ = ("value", "length")

    def __init__(self, bits: str | Iterable[int] = ""):
        value = 0
        length = 0
        for b in bits:
            bit = int(b)
            if bit not in (0, 1):
                raise ValueError(f"not a bit: {b!r}")
            value = (value << 1) | bit
            length += 1
        _set_value(self, value)
        _set_length(self, length)

    def __setattr__(self, name, val):  # pragma: no cover - defensive
        raise AttributeError("BitString is immutable")

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        if value < 0 or length < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        s = cls.__new__(cls)
        _set_value(s, value)
        _set_length(s, length)
        return s

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.value >> (self.length - 1 - i)) & 1

    def __iter__(self) -> Iterator[int]:
        for i in range(self.length):
            yield self[i]

    @property
    def as_int(self) -> int:
        """Rank of the word among all words of its length, in lexicographic order."""
        return self.value

    # -- structure ----------------------------------------------------------

    def prefix(self, n: int) -> "BitString":
        if not 0 <= n <= self.length:
            raise ValueError(f"prefix length {n} out of range for |s|={self.length}")
        return BitString.from_int(self.value >> (self.length - n), n)

    def slice(self, start: int, stop: int) -> "BitString":
        if not 0 <= start <= stop <= self.length:
            raise ValueError(f"bad slice [{start}:{stop}] for |s|={self.length}")
        width = stop - start
        return BitString.from_int((self.value >> (self.length - stop)) & ((1 << width) - 1), width)

    def is_prefix_of(self, other: "BitString") -> bool:
        return self.length <= other.length and (other.value >> (other.length - self.length)) == self.value

    def __add__(self, other: "BitString") -> "BitString":
        return BitString.from_int((self.value << other.length) | other.value, self.length + other.length)

    def append(self, bit: int) -> "BitString":
        if bit not in (0, 1):
            raise ValueError(f"not a bit: {bit!r}")
        return BitString.from_int((self.value << 1) | bit, self.length + 1)

    # -- ordering and identity ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.length == other.length
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.value, self.length))

    def _lex_key(self, other: "BitString") -> int:
        """Dictionary order as -1, 0 or 1: the common prefix decides, a proper prefix first."""
        k = min(self.length, other.length)
        a = self.value >> (self.length - k)
        b = other.value >> (other.length - k)
        if a != b:
            return -1 if a < b else 1
        if self.length == other.length:
            return 0
        return -1 if self.length < other.length else 1

    def __lt__(self, other: "BitString") -> bool:
        return self._lex_key(other) < 0

    def __le__(self, other: "BitString") -> bool:
        return self._lex_key(other) <= 0

    def __gt__(self, other: "BitString") -> bool:
        return self._lex_key(other) > 0

    def __ge__(self, other: "BitString") -> bool:
        return self._lex_key(other) >= 0

    def __str__(self) -> str:
        return "".join("01"[b] for b in self)

    def __repr__(self) -> str:
        return f"BitString('{self}')"


# the slots' own setters: they bypass the raising __setattr__ at less cost than object's
_set_value, _set_length = BitString.value.__set__, BitString.length.__set__

EMPTY = BitString()


class Dyadic:
    """Non-negative rational with a power-of-two denominator, kept in lowest terms.

    value = num / 2**exp with exp minimal (num odd, or exp == 0).  Closed under
    addition, non-negative subtraction, multiplication, and shifting by powers
    of two; all operations exact.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if num < 0 or exp < 0:
            raise ValueError(f"dyadic parts must be non-negative, got {num}/2^{exp}")
        if num == 0:
            exp = 0
        elif exp and not num & 1:  # one shift; odd numerators and integers skip it
            zeros = min((num & -num).bit_length() - 1, exp)
            num >>= zeros
            exp -= zeros
        _set_num(self, num)
        _set_exp(self, exp)

    def __setattr__(self, name, val):  # pragma: no cover - defensive
        raise AttributeError("Dyadic is immutable")

    @classmethod
    def pow2(cls, k: int) -> "Dyadic":
        """2**k for any integer k, including negative."""
        if k >= 0:
            return cls(1 << k, 0)
        return cls(1, -k)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Dyadic":
        if isinstance(x, Dyadic):
            return x
        if isinstance(x, int):
            return Dyadic(x, 0)
        raise TypeError(f"cannot treat {x!r} as a dyadic rational")

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp), e

    def __add__(self, other) -> "Dyadic":
        other = self._coerce(other)
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other) -> "Dyadic":
        other = self._coerce(other)
        a, b, e = self._aligned(other)
        if a < b:
            raise PreconditionError(f"dyadic subtraction would go negative: {self} - {other}")
        return Dyadic(a - b, e)

    def __mul__(self, other) -> "Dyadic":
        other = self._coerce(other)
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def shifted(self, k: int) -> "Dyadic":
        """self * 2**k, exact for any integer k."""
        if k >= 0:
            return Dyadic(self.num << k, self.exp)
        return Dyadic(self.num, self.exp - k)

    # -- comparison ----------------------------------------------------------

    def _cmp(self, other) -> int:
        other = self._coerce(other)
        a, b, _ = self._aligned(other)
        return (a > b) - (a < b)

    def __eq__(self, other) -> bool:
        try:
            return self._cmp(other) == 0
        except TypeError:
            return NotImplemented

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __str__(self) -> str:
        return f"{self.num}/2^{self.exp}"

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    def __float__(self) -> float:
        # Convenience for display only; never used in a verdict.
        return self.num / (1 << self.exp)


_set_num, _set_exp = Dyadic.num.__set__, Dyadic.exp.__set__

ZERO = Dyadic(0)
ONE = Dyadic(1)


def dyadic_sum(terms: Iterable[Dyadic]) -> Dyadic:
    """Exact sum of non-negative dyadics; the empty sum is 0."""
    total = ZERO
    for t in terms:
        total = total + t
    return total
