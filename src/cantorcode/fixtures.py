"""Canonical height-3 trees used as fixtures: known labelable and non-labelable shapes.

Each tree is specified as a nested child structure (a node is the tuple of its
children; a leaf is the empty tuple) and embedded at level lengths (3, 5, 7),
which leaves address room for up to 8 root branches and 4 branches elsewhere.
The `labelable_` / `nonlabelable_` name prefixes state the expected verdict of
both deciders; the test suite enforces them.
"""

from __future__ import annotations

from .bits import BitString, EMPTY
from .labeltree import UTree

__all__ = ["FIXTURE_U", "fixture_trees", "build_tree"]

FIXTURE_U = (3, 5, 7)

_LEAF = ()
_CHAIN = ((_LEAF,),)          # one child carrying one leaf
_PAIR = (_LEAF, _LEAF)        # a node with two leaves
_FAN4 = ((_LEAF,),) * 4       # four children carrying one leaf each

_SHAPES: dict[str, tuple] = {
    # height-3 trees admitting a full labelling
    "labelable_full_binary": ((_PAIR, _PAIR), (_PAIR, _PAIR)),
    "labelable_mixed_arity": (((_LEAF,), (_LEAF,), _PAIR), (_PAIR, _PAIR)),
    "labelable_eight_chains": (_CHAIN,) * 8,
    "labelable_three_branch_root": ((_PAIR, _PAIR), (_PAIR,), (_PAIR,)),
    "labelable_fan_and_pairs": (_FAN4, (_PAIR, _PAIR)),
    "labelable_fan_and_mixed": (_FAN4, ((_LEAF,), (_LEAF,), _PAIR)),
    "labelable_four_chains_and_fan": (_CHAIN, _CHAIN, _CHAIN, _CHAIN, _FAN4),
    "labelable_chains_pair_fan": (_CHAIN, _CHAIN, (_PAIR,), _FAN4),
    # height-3 trees admitting none
    "nonlabelable_narrow_one": (((_LEAF,), (_LEAF, _LEAF, _LEAF)), (_PAIR, _PAIR)),
    "nonlabelable_narrow_two": (((_LEAF,), _PAIR), ((_LEAF, _LEAF, _LEAF), _PAIR)),
    "nonlabelable_fan_short": (((_LEAF,), (_LEAF,), (_LEAF,), _PAIR), ((_LEAF,), _PAIR)),
    "nonlabelable_three_branch": (((_LEAF,), _PAIR, _PAIR), ((_LEAF,), _PAIR)),
}


def build_tree(shape: tuple, u: tuple[int, ...] = FIXTURE_U) -> UTree:
    """Embed a nested child structure at the given level lengths, addresses in order."""
    nodes: list[BitString] = []
    stack = [(EMPTY, shape, 0)]
    while stack:  # preorder, so a malformed shape fails at its first bad node
        address, children, level = stack.pop()
        if level >= len(u):
            if children:
                raise ValueError("shape deeper than the level lengths")
            continue
        width = u[level] - (u[level - 1] if level else 0)
        if len(children) > (1 << width):
            raise ValueError(f"{len(children)} children do not fit in {width} bits")
        placed = [(address + BitString.from_int(j, width), sub, level + 1)
                  for j, sub in enumerate(children)]
        nodes.extend(child for child, _, _ in placed)
        stack.extend(reversed(placed))
    return UTree(u, nodes)


def fixture_trees() -> dict[str, UTree]:
    return {name: build_tree(shape) for name, shape in _SHAPES.items()}
