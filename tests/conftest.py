"""Shared test inputs."""

from __future__ import annotations

import random

import pytest

from cantorcode.bits import BitString, EMPTY
from cantorcode.labeltree import UTree


def seeded_bushy_tree(seed: int, height: int = 4) -> UTree:
    """Every node gets 1-3 children (2 on average) at 2-bit level widths."""
    rng = random.Random(seed)
    nodes: list[BitString] = []
    current = [EMPTY]
    for _ in range(height):
        nxt = []
        for nd in current:
            k = rng.choice((1, 2, 2, 3))
            nxt.extend(nd + BitString.from_int(s, 2) for s in sorted(rng.sample(range(4), k)))
        nodes.extend(nxt)
        current = nxt
    return UTree(tuple(2 * (i + 1) for i in range(height)), nodes)


@pytest.fixture()
def seeded_tree():
    """`seeded_bushy_tree`; seed 9 gives a labelable height-4 tree of 63 nodes,
    level counts (3, 8, 17, 34)."""
    return seeded_bushy_tree
