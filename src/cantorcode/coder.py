"""Block coding through a clopen class: word tables, encoding, instrumented decoding.

For a node sigma at block boundary L(i), a word table assigns to each slot
j < 2^(m_i) a distinct extendible extension of sigma of length L(i+1).  Against
a fixed class it holds the 2^(m_i) lexicographically least ones in slot order,
so the table is a query on the class's trie that selects and checks slot j's
word when it is read.  Under a shrinking approximation, a stage process fills
the least open slot with the least fresh extendible candidate and clears slots
whose word dies, and the table it settles is stored word by word.

Encoding maps source block number j to slot j's word; decoding inverts this by
ranking the oracle's block among the extendible extensions of sigma (slot j
holds the j-th least), and records exactly how much oracle it consulted per bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count

from .bits import BitString, EMPTY, Dyadic
from .clopen import ApproxSequence, ClopenClass, PruneResult, prune
from .errors import InternalError, PreconditionError
from .schedules import Schedule

__all__ = [
    "TableEvent",
    "WordTable",
    "CodePath",
    "DecodeResult",
    "EndToEndResult",
    "settle_words",
    "encode",
    "decode",
    "end_to_end",
]


@dataclass(frozen=True)
class TableEvent:
    stage: int
    slot: int
    op: str  # "assign" | "clear"
    word: BitString


@dataclass(frozen=True, eq=False)
class _SelectedSlots(Sequence):
    """A fixed class's table as a read-only view: slot j is the j-th least extendible
    extension of sigma, selected by one walk when read and checked against P there."""

    P: ClopenClass
    sigma: BitString
    width: int  # L(i+1)
    size: int  # 2^(m_i)

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, j: int) -> BitString:
        if not 0 <= j < self.size:
            raise IndexError(f"slot {j} out of range")
        word = self.P.extension_select(self.sigma, self.width, j)
        if self.P.first_inextendible((word,)) is not None:
            raise InternalError(f"settled word {word} is not extendible in the final class")
        if self.P.extension_rank(self.sigma, word) != j:  # rank tells the slots' words apart
            raise InternalError(f"settled words at {self.sigma} are not pairwise distinct")
        return word

    def __eq__(self, other) -> bool:
        return isinstance(other, (tuple, _SelectedSlots)) and tuple(self) == tuple(other)


@dataclass(frozen=True)
class WordTable:
    sigma: BitString
    level: int
    slots: Sequence[BitString]  # a tuple when staged, a view selecting each read slot when fixed
    history: tuple[TableEvent, ...]  # empty for a fixed class


def settle_words(
    P: ClopenClass,
    sched: Schedule,
    sigma: BitString,
    stages: ApproxSequence | None = None,
) -> WordTable:
    """The word table at sigma; raises when sigma has fewer than 2^(m_i) extendible
    extensions at the next boundary.

    Without `stages` the table builds no word: slot j is selected from P's trie
    when it is read, then checked to be extendible and of rank j.  With `stages`,
    step s = 1, 2, ... makes one event against `stages.at(s)`: it clears the
    least slot whose word has lost all extensions, or fills the least open slot
    with the least fresh extendible extension; a step with no such slot moves on
    to the next stage, and ends the run at the final stage, which must equal P.
    Only a staged run records a history; its settled words are checked at once.
    """
    level = sched.block_index(len(sigma), code=True)
    if sched.L(level) != len(sigma):
        raise PreconditionError(f"string length {len(sigma)} is not a block boundary L(i)")
    width = sched.L(level + 1)
    if width > P.depth:
        raise PreconditionError(f"class depth {P.depth} shallower than L({level + 1}) = {width}")
    if not P.is_extendible(sigma):
        raise PreconditionError(f"node {sigma} is not extendible in the class")
    if stages is not None and stages.final != P:
        raise PreconditionError("approximation stages must end at the coding class")

    nslots = 1 << sched.m(level)
    if stages is None:
        if P.extension_count(sigma, width) < nslots:
            raise PreconditionError(f"extension property violated at {sigma or 'the root'}")
        return WordTable(sigma, level, _SelectedSlots(P, sigma, width, nslots), ())
    words: list[BitString | None] = [None] * nslots
    history: list[TableEvent] = []
    for step in count(1):
        cls = stages.at(step)
        slot = next((t for t, w in enumerate(words)
                     if w is None or not cls.is_extendible(w)), None)
        if slot is None:
            if cls == P:  # else drain the stages left, so the fixpoint is against P
                break
        elif (w := words[slot]) is not None:
            words[slot] = None
            history.append(TableEvent(step, slot, "clear", w))
        else:
            taken = set(words)
            fresh = next((c for c in cls.extendible_extensions(sigma, width)
                          if c not in taken), None)
            if fresh is None:
                break  # no unused extension left; the open-slot check reports it
            words[slot] = fresh
            history.append(TableEvent(step, slot, "assign", fresh))
    if any(w is None for w in words):
        raise PreconditionError(f"extension property violated at {sigma or 'the root'}")
    slots = tuple(words)  # type: ignore[arg-type]
    if (dead := P.first_inextendible(slots)) is not None:
        raise InternalError(f"settled word {dead} is not extendible in the final class")
    if len({w.value for w in slots}) != len(slots):  # every slot word has length L(i+1)
        raise InternalError(f"settled words at {sigma} are not pairwise distinct")
    return WordTable(sigma, level, slots, tuple(history))


@dataclass(frozen=True)
class CodePath:
    """A source prefix, its code word, and the slot chosen at each block."""

    source: BitString
    code: BitString
    slots: tuple[int, ...]


def encode(X: BitString, P: ClopenClass, sched: Schedule) -> CodePath:
    """Build the code word for X block by block; X must end on a block boundary."""
    n = sched.blocks_for_source(len(X))
    sched.check_depth(n, P.depth)
    y = EMPTY
    slots: list[int] = []
    for i in range(n):
        t = X.slice(sched.M(i), sched.M(i + 1)).as_int
        y = settle_words(P, sched, y).slots[t]
        slots.append(t)
    return CodePath(X, y, tuple(slots))


class _Oracle:
    """Read-tracking wrapper around the code word; remembers the longest prefix touched."""

    def __init__(self, y: BitString):
        self._y = y
        self.high = 0

    def prefix(self, k: int) -> BitString:
        if k > len(self._y):
            raise PreconditionError(f"oracle exhausted: needs {k} bits, has {len(self._y)}")
        if k > self.high:
            self.high = k
        return self._y.prefix(k)


@dataclass(frozen=True)
class DecodeResult:
    source: BitString
    use: tuple[int, ...]  # per decoded bit: length of oracle prefix consulted
    slots: tuple[int, ...]


def decode(Y: BitString, P: ClopenClass, sched: Schedule, n: int) -> DecodeResult:
    """Invert the coding map on the first n blocks of Y, by rank on P's trie.

    The oracle is consulted through a tracker, so the returned per-bit use is
    measured, not assumed; only the prefix of length L(n) is ever touched.
    """
    sched.check_depth(n, P.depth)
    if len(Y) < sched.L(n):
        raise PreconditionError(f"oracle too short: {len(Y)} < L({n}) = {sched.L(n)}")
    oracle = _Oracle(Y)
    x = EMPTY
    uses: list[int] = []
    slots: list[int] = []
    for i in range(n):
        sigma = oracle.prefix(sched.L(i))
        width, nslots = sched.L(i + 1), 1 << sched.m(i)
        if P.extension_count(sigma, width) < nslots:
            raise PreconditionError(f"extension property violated at {sigma or 'the root'}")
        target = oracle.prefix(width)
        j = P.extension_rank(sigma, target)
        if j >= nslots or not P.is_extendible(target):
            raise PreconditionError("oracle outside code tree")
        x = x + BitString.from_int(j, sched.m(i))
        slots.append(j)
        uses.extend([oracle.high] * sched.m(i))
    if oracle.high > sched.L(n):
        raise InternalError(f"decoder touched {oracle.high} oracle bits, beyond L({n})")
    return DecodeResult(x, tuple(uses), tuple(slots))


@dataclass(frozen=True)
class EndToEndResult:
    pruned: PruneResult
    path: CodePath
    use: tuple[int, ...]  # measured per-bit use from the verification decode
    margin: Dyadic


def end_to_end(X: BitString, P: ClopenClass, sched: Schedule) -> EndToEndResult:
    """Prune P for the needed levels, encode X against the result, verify by decoding."""
    n = sched.blocks_for_source(len(X))
    pruned = prune(P, sched, n)  # checks the class depth and the coding budget
    path = encode(X, pruned.pstar, sched)
    back = decode(path.code, pruned.pstar, sched, n)
    if back.source != X:
        raise InternalError("decode of the fresh code word did not recover the source")
    return EndToEndResult(pruned, path, back.use, sched.budget(n))
