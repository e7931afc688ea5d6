"""Word tables, the coding map and its inverse, and oracle-use accounting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorcode.bits import BitString, Dyadic, EMPTY
from cantorcode.clopen import ApproxSequence, ClopenClass, prune, random_class
from cantorcode.coder import (
    decode,
    encode,
    end_to_end,
    settle_words,
)
from cantorcode.errors import InternalError, PreconditionError
from cantorcode.schedules import oracle_use_bound, preset

B = BitString


def cls(depth: int, *members: str) -> ClopenClass:
    return ClopenClass.from_members(depth, [B(m) for m in members])


ONE_BLOCK = preset("custom", [1], [2])


class TestSettleWords:
    def test_full_class_takes_least_extensions(self):
        table = settle_words(ClopenClass.full(2), ONE_BLOCK, EMPTY)
        assert table.slots == (B("00"), B("01"))

    def test_skips_dead_extension(self):
        table = settle_words(cls(2, "01", "10", "11"), ONE_BLOCK, EMPTY)
        assert table.slots == (B("01"), B("10"))

    def test_forced_assignment(self):
        table = settle_words(cls(2, "01", "10"), ONE_BLOCK, EMPTY)
        assert table.slots == (B("01"), B("10"))

    def test_too_few_extensions(self):
        with pytest.raises(PreconditionError, match="extension property violated"):
            settle_words(cls(2, "01"), ONE_BLOCK, EMPTY)

    def test_shrinking_stages_clear_and_refill(self):
        final = cls(2, "01", "10", "11")
        stages = ApproxSequence(
            (ClopenClass.full(2), ClopenClass.full(2), ClopenClass.full(2), final)
        )
        table = settle_words(final, ONE_BLOCK, EMPTY, stages=stages)
        # 00 and 01 go in first, 00 dies at the shrunken stage, 10 refills slot 0
        assert table.slots == (B("10"), B("01"))
        ops = [(e.op, e.slot, str(e.word)) for e in table.history]
        assert ops == [
            ("assign", 0, "00"),
            ("assign", 1, "01"),
            ("clear", 0, "00"),
            ("assign", 0, "10"),
        ]

    def test_fixed_table_is_a_view(self):
        """A fixed-class table has its 2^m slots and equals the tuple of their words."""
        P = cls(3, "000", "001", "011", "100", "110")
        table = settle_words(P, preset("custom", [2], [3]), EMPTY)
        assert len(table.slots) == 4
        assert table.slots == (B("000"), B("001"), B("011"), B("100"))
        assert table.slots == settle_words(P, preset("custom", [2], [3]), EMPTY).slots
        assert table.slots != [B("000"), B("001"), B("011"), B("100")]
        with pytest.raises(IndexError):
            table.slots[4]

    def test_history_recorded_for_static_run(self):
        # a fixed class has no stages, so there is no history to record
        table = settle_words(ClopenClass.full(2), ONE_BLOCK, EMPTY)
        assert table.history == ()

    @pytest.mark.parametrize("yielded,message", [
        (("000", "001", "010", "011"), "settled word 010 is not extendible in the final class"),
        (("000", "001", "001", "011"), "settled words at .* are not pairwise distinct"),
    ])
    def test_closing_checks_catch_a_bad_table(self, monkeypatch, yielded, message):
        """Each slot word is checked against P when it is read, not trusted from the
        select walk that found it: a dead or repeated slot word is an internal error."""
        monkeypatch.setattr(ClopenClass, "extension_select",
                            lambda self, s, length, j: B(yielded[j]))
        table = settle_words(cls(3, "000", "001", "011", "100"), preset("custom", [2], [3]), EMPTY)
        assert [table.slots[j] for j in (0, 1)] == [B("000"), B("001")]
        with pytest.raises(InternalError, match=message):
            table.slots[2]


class TestSettleCost:
    def test_one_root_walk_per_table(self, monkeypatch):
        """A fixed-class table checks the word it hands out without is_extendible: the
        only is_extendible call left per table is the sigma precondition."""
        sched = preset("gacs")
        levels = 12
        P = prune(random_class(sched.L(levels) + 2, 7, Dyadic(1, 1)), sched, levels).pstar
        x = B.from_int(random.Random(12).getrandbits(sched.M(levels)), sched.M(levels))
        calls = 0
        is_extendible = ClopenClass.is_extendible

        def counted(self, s):
            nonlocal calls
            calls += 1
            return is_extendible(self, s)

        monkeypatch.setattr(ClopenClass, "is_extendible", counted)
        path = encode(x, P, sched)
        monkeypatch.undo()
        assert decode(path.code, P, sched, levels).source == x
        assert len(path.slots) == levels
        assert calls == levels

    def test_encode_builds_no_table(self, monkeypatch):
        """Encoding selects each block's word from the trie: at 16 gacs levels, whose last
        table has 2^16 slots, no extension list is ever built."""
        sched = preset("gacs")
        levels = 16
        P = prune(random_class(sched.L(levels) + 2, 7, Dyadic(1, 1)), sched, levels).pstar
        x = B.from_int(random.Random(16).getrandbits(sched.M(levels)), sched.M(levels))

        def refuse(self, s, length):
            raise AssertionError("encode built an extension list")

        monkeypatch.setattr(ClopenClass, "extendible_extensions", refuse)
        path = encode(x, P, sched)
        assert len(path.slots) == levels
        assert decode(path.code, P, sched, levels).source == x


class TestEncode:
    def test_zero_block(self):
        path = encode(B("0"), ClopenClass.full(2), ONE_BLOCK)
        assert path.code == B("00")
        assert path.slots == (0,)

    def test_slot_one(self):
        path = encode(B("1"), cls(2, "01", "10", "11"), ONE_BLOCK)
        assert path.code == B("10")
        assert path.slots == (1,)

    def test_empty_source(self):
        path = encode(EMPTY, ClopenClass.full(2), ONE_BLOCK)
        assert path.code == EMPTY
        assert path.slots == ()

    def test_non_boundary_length_rejected(self):
        # gacs boundaries are 1, 3, 6, ...; a 2-bit source falls between them
        with pytest.raises(PreconditionError, match="source length must equal M"):
            encode(B("10"), ClopenClass.full(8), preset("gacs"))

    def test_extension_violation_propagates(self):
        with pytest.raises(PreconditionError, match="extension property violated"):
            encode(B("11"), cls(2, "01", "10"), preset("custom", [2], [2]))

    def test_injective_on_sources(self):
        sched = preset("kucera")
        p = ClopenClass.full(8)
        codes = {str(encode(B.from_int(v, 2), p, sched).code) for v in range(4)}
        assert len(codes) == 4


class TestDecode:
    def test_inverse_of_encode_example(self):
        result = decode(B("00"), ClopenClass.full(2), ONE_BLOCK, 1)
        assert result.source == B("0")
        assert result.use == (2,)

    def test_oracle_outside_code_tree(self):
        p = cls(2, "01", "10", "11")
        with pytest.raises(PreconditionError, match="oracle outside code tree"):
            decode(B("00"), p, ONE_BLOCK, 1)  # not extendible
        with pytest.raises(PreconditionError, match="oracle outside code tree"):
            decode(B("11"), p, ONE_BLOCK, 1)  # extendible but never a slot word

    def test_decode_with_staged_table_semantics(self):
        # decoding consults the settled fixpoint, whatever order slots were filled in
        final = cls(2, "01", "10", "11")
        path = encode(B("0"), final, ONE_BLOCK)
        assert path.code == B("01")
        assert decode(B("01"), final, ONE_BLOCK, 1).source == B("0")

    def test_roundtrip_random_classes(self):
        sched = preset("kucera")
        n = 3  # M(3) = 3 source bits, L(3) = 13
        for seed in range(25):
            p = random_class(13, seed, Dyadic(1, 1))
            for v in range(8):
                x = B.from_int(v, 3)
                y = encode(x, p, sched).code
                back = decode(y, p, sched, n)
                assert back.source == x

    def test_consistency_on_shared_prefixes(self):
        sched = preset("kucera")
        p = ClopenClass.full(13)
        y1 = encode(B("010"), p, sched).code
        y2 = encode(B("011"), p, sched).code
        assert y1.prefix(sched.L(2)) == y2.prefix(sched.L(2))
        d1 = decode(y1, p, sched, 2)
        d2 = decode(y2, p, sched, 2)
        assert d1.source == d2.source == B("01")

    def test_use_profile_is_exact(self):
        sched = preset("gacs")
        n = 3  # M(3) = 6, L(3) = 16
        p = ClopenClass.full(16)
        x = B("110100")
        y = encode(x, p, sched).code
        result = decode(y, p, sched, n)
        assert result.source == x
        for k, used in enumerate(result.use):
            assert used == oracle_use_bound(sched, k)

    def test_short_oracle_rejected(self):
        with pytest.raises(PreconditionError, match="oracle too short"):
            decode(B("0"), ClopenClass.full(2), ONE_BLOCK, 1)

    def test_shallow_class_rejected(self):
        with pytest.raises(PreconditionError, match="class depth 1 shallower than L"):
            decode(B("00"), ClopenClass.full(1), ONE_BLOCK, 1)

    def test_extension_property_violated_at_boundary(self):
        # "1" is extendible at L(1) = 2 but has one extension at L(2) = 4, not 2^m = 2
        sched = preset("custom", [1, 1], [2, 2])
        p = cls(4, "0000", "0001", "1000")
        assert decode(B("0000"), p, sched, 1).source == B("0")
        with pytest.raises(PreconditionError, match="extension property violated at 10"):
            decode(B("1000"), p, sched, 2)


class TestRank:
    """Decoding ranks the oracle's block among the extendible extensions; on a fixed
    class that rank is the slot the settled table gives the word."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rank_is_slot_index(self, data):
        depth = data.draw(st.integers(1, 7), label="depth")
        l = data.draw(st.integers(1, depth), label="l")
        m = data.draw(st.integers(1, l), label="m")
        words = st.integers(0, (1 << depth) - 1).map(lambda v: B.from_int(v, depth))
        p = ClopenClass.from_members(depth, data.draw(st.sets(words, min_size=1, max_size=40), label="members"))
        sched = preset("custom", [m], [l])
        if p.extension_count(EMPTY, l) < 1 << m:
            with pytest.raises(PreconditionError, match="extension property violated"):
                settle_words(p, sched, EMPTY)
            with pytest.raises(PreconditionError, match="extension property violated"):
                decode(B.from_int(0, l), p, sched, 1)
            return
        slots = settle_words(p, sched, EMPTY).slots
        for j, w in enumerate(slots):
            assert p.extension_rank(EMPTY, w) == j
            assert decode(w, p, sched, 1).slots == (j,)
        for w in p.extendible_extensions(EMPTY, l):
            if w not in slots:
                assert p.extension_rank(EMPTY, w) >= 1 << m
                with pytest.raises(PreconditionError, match="oracle outside code tree"):
                    decode(w, p, sched, 1)


class TestEndToEnd:
    def test_kucera_roundtrip(self):
        sched = preset("kucera")
        result = end_to_end(B("101"), ClopenClass.full(13), sched)
        back = decode(result.path.code, result.pruned.pstar, sched, 3)
        assert back.source == B("101")
        for k, used in enumerate(result.use):
            assert used == oracle_use_bound(sched, k)

    def test_budget_violation_before_any_coding(self):
        sched = preset("custom", [1, 1], [1, 2])  # series sum 1/2 + 1/2 = 1
        with pytest.raises(PreconditionError, match="measure budget exhausted"):
            end_to_end(B("11"), ClopenClass.full(8), sched)

    def test_gacs_ten_bits(self):
        sched = preset("gacs")  # M(4) = 10, L(4) = 25
        rng = random.Random(11)
        x = B.from_int(rng.getrandbits(10), 10)
        result = end_to_end(x, ClopenClass.full(25), sched)
        back = decode(result.path.code, result.pruned.pstar, sched, 4)
        assert back.source == x
        assert result.use == tuple(oracle_use_bound(sched, k) for k in range(10))

    def test_depth_too_shallow(self):
        with pytest.raises(PreconditionError, match="shallower"):
            end_to_end(B("101"), ClopenClass.full(8), preset("kucera"))

    @pytest.mark.parametrize("name,blocks", [("gacs-squared", 3), ("gacs-sqrt", 4)])
    def test_comparison_presets_also_code(self, name, blocks):
        sched = preset(name)
        rng = random.Random(5)
        x = B.from_int(rng.getrandbits(sched.M(blocks)), sched.M(blocks))
        result = end_to_end(x, ClopenClass.full(sched.L(blocks)), sched)
        back = decode(result.path.code, result.pruned.pstar, sched, blocks)
        assert back.source == x
