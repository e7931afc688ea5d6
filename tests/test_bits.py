"""Word ordering and exact dyadic arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cantorcode.bits import BitString, Dyadic, EMPTY, ONE, ZERO, dyadic_sum
from cantorcode.errors import PreconditionError

B = BitString


def bitstrings(max_len: int = 10):
    return st.integers(0, max_len).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda v: B.from_int(v, n))
    )


def dyadics():
    return st.builds(Dyadic, st.integers(0, 1 << 20), st.integers(0, 20))


class TestBitString:
    def test_construction_and_roundtrip(self):
        s = B("0110")
        assert len(s) == 4
        assert str(s) == "0110"
        assert list(s) == [0, 1, 1, 0]
        assert B.from_int(s.as_int, 4) == s
        assert str(EMPTY) == ""

    def test_prefix_and_slice(self):
        s = B("10110")
        assert s.prefix(3) == B("101")
        assert s.slice(1, 4) == B("011")
        assert s.prefix(0) == EMPTY
        assert B("101").is_prefix_of(s)
        assert not B("11").is_prefix_of(s)

    def test_concat_append(self):
        assert B("10") + B("01") == B("1001")
        assert B("1").append(0) == B("10")

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "0", -1),   # a proper prefix precedes its extension
            ("010", "011", -1),
            ("1", "1", 0),
            ("1", "01", 1),
            ("00", "0", 1),
        ],
    )
    def test_lex_compare(self, a, b, expected):
        assert B(a)._lex_key(B(b)) == expected

    def test_operators_match_lex_compare(self):
        assert B("010") < B("011") < B("1")
        assert B("0") <= B("00")
        assert B("1") >= B("0111")

    @given(bitstrings(), bitstrings(), bitstrings())
    def test_transitive(self, a, b, c):
        if a._lex_key(b) <= 0 and b._lex_key(c) <= 0:
            assert a._lex_key(c) <= 0

    @given(bitstrings(), bitstrings())
    def test_antisymmetric(self, a, b):
        if a._lex_key(b) == 0:
            assert a == b
        else:
            assert a._lex_key(b) == -b._lex_key(a)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            B("012")
        with pytest.raises(ValueError):
            B.from_int(4, 2)


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(4, 3)  # 4/8 == 1/2
        assert (d.num, d.exp) == (1, 1)
        assert Dyadic(0, 7) == ZERO
        assert Dyadic(0, 7).exp == 0
        assert Dyadic(8, 0).num == 8  # integers keep exponent 0

    def test_pow2(self):
        assert Dyadic.pow2(-3) == Dyadic(1, 3)
        assert Dyadic.pow2(2) == Dyadic(4)
        assert Dyadic.pow2(0) == ONE

    @pytest.mark.parametrize(
        "terms,expected",
        [
            ([Dyadic(1, 2), Dyadic(1, 3), Dyadic(1, 3)], Dyadic(1, 1)),
            ([], ZERO),
            ([Dyadic(1, 1), Dyadic(1, 1)], ONE),
        ],
    )
    def test_dyadic_sum(self, terms, expected):
        assert dyadic_sum(terms) == expected

    def test_ordering_and_arithmetic(self):
        assert Dyadic(3, 3) < Dyadic(1, 1) < ONE < Dyadic(3, 1)
        assert Dyadic(3, 3) + Dyadic(1, 3) == Dyadic(1, 1)
        assert Dyadic(5, 2) - ONE == Dyadic(1, 2)
        assert Dyadic(3, 2) * Dyadic(1, 1) == Dyadic(3, 3)
        assert Dyadic(3, 5).shifted(5) == Dyadic(3)
        assert str(Dyadic(3, 2)) == "3/2^2"

    def test_subtraction_below_zero_rejected(self):
        with pytest.raises(PreconditionError):
            ZERO - ONE

    @given(st.integers(0, 1 << 40), st.integers(0, 60), st.integers(0, 60))
    def test_scaled_parts_reduce_to_the_same_form(self, num, exp, k):
        d, scaled = Dyadic(num, exp), Dyadic(num << k, exp + k)
        assert (scaled.num, scaled.exp) == (d.num, d.exp)
        assert d.exp == 0 or d.num % 2 == 1  # lowest terms
        assert Fraction(d.num, 1 << d.exp) == Fraction(num, 1 << exp)

    @given(dyadics(), dyadics())
    def test_add_sub_exact(self, x, y):
        assert (x + y) - y == x

    @given(dyadics(), dyadics(), dyadics())
    def test_mul_distributes(self, x, y, z):
        assert x * (y + z) == x * y + x * z
