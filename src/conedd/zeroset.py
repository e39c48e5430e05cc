"""Bitmask zero sets.

A zero set records which coordinates of a vector vanish.  The engine keys
nearly everything on these sets: pair compatibility, adjacency witnesses and
the dimensional prefilters all reduce to mask algebra, so a zero set is a
single unbounded int used as a bit vector, bit k set iff coordinate k is
zero.  Working vertices, recovery and the oracle all use the bare int.
"""

from __future__ import annotations

from typing import Sequence


def zero_mask(vector: Sequence[int]) -> int:
    """Bitmask with bit k set iff vector[k] == 0."""
    bits = 0
    for k, x in enumerate(vector):
        if x == 0:
            bits |= 1 << k
    return bits


def group_mask(group: Sequence[int]) -> int:
    bits = 0
    for k in group:
        bits |= 1 << k
    return bits
