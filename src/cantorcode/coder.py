"""Block coding through a clopen class: word tables, encoding, instrumented decoding.

For a node sigma at block boundary L(i), a word table assigns to each slot
j < 2^(m_i) a distinct extendible extension of sigma of length L(i+1).  Tables
are settled by a stage process that fills the least open slot with the least
fresh extendible candidate and clears slots whose word dies under a shrinking
approximation; against a fixed class the fixpoint is simply the 2^(m_i)
lexicographically least extendible extensions in slot order.

Encoding maps source block number j to slot j's word; decoding inverts this by
ranking the oracle's block among the extendible extensions of sigma (slot j
holds the j-th least), and records exactly how much oracle it consulted per bit.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class WordTable:
    sigma: BitString
    level: int
    slots: tuple[BitString, ...]
    history: tuple[TableEvent, ...]  # empty for a fixed class


def settle_words(
    P: ClopenClass,
    sched: Schedule,
    sigma: BitString,
    stages: ApproxSequence | None = None,
) -> WordTable:
    """Run the slot-filling stage process to its fixpoint and check the table.

    With `stages` supplied, step s = 1, 2, ... makes one event against
    `stages.at(s)`: it clears the least slot whose word has lost all extensions,
    or fills the least open slot with the least fresh extendible extension; a
    step with no such slot moves on to the next stage, and ends the run at the
    final stage, which must equal P.  Only a staged run records a history.
    Raises when the fixpoint leaves a slot open, which happens exactly when
    sigma has fewer than 2^(m_i) extendible extensions at the next boundary.
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
    words: list[BitString | None] = [None] * nslots
    history: list[TableEvent] = []
    if stages is None:
        # Against a fixed class nothing is ever cleared, so the fixpoint is the
        # first 2^(m_i) extendible extensions in slot order.
        for slot, cand in zip(range(nslots), P.extendible_extensions(sigma, width)):
            words[slot] = cand
    else:
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
    for w in slots:
        if not P.is_extendible(w):
            raise InternalError(f"settled word {w} is not extendible in the final class")
    if len(set(slots)) != len(slots):
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
