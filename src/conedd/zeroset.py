"""Bitmask zero sets and the per-group support predicate.

A zero set records which coordinates of a vector vanish.  The engine keys
nearly everything on these sets: pair compatibility, adjacency witnesses and
the dimensional prefilters all reduce to mask algebra, so the representation
is a single unbounded int used as a bit vector.  Working vertices carry the
bare int; `ZeroSet` pairs it with the dimension for output rays and recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ZeroSet:
    """Set of coordinate indices packed into a bitmask.

    bits: bit k is set iff index k belongs to the set.
    dim: ambient dimension; bits at positions >= dim are always clear.
    """

    bits: int
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 0:
            raise ValueError("dimension must be non-negative")
        if self.bits < 0 or self.bits >> self.dim:
            raise ValueError("bits outside dimension range")

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.dim and (self.bits >> index) & 1 == 1

    def indices(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.dim) if (self.bits >> k) & 1)


def zero_mask(vector: Sequence[int]) -> int:
    """Bitmask with bit k set iff vector[k] == 0."""
    bits = 0
    for k, x in enumerate(vector):
        if x == 0:
            bits |= 1 << k
    return bits


def zeroset_of(vector: Sequence[int]) -> ZeroSet:
    """Zero set of a vector: bit k set iff vector[k] == 0."""
    return ZeroSet(zero_mask(vector), len(vector))


def group_mask(group: Sequence[int]) -> int:
    bits = 0
    for k in group:
        bits |= 1 << k
    return bits


def group_needs(groups: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """(member mask, members that must be zero) for each group."""
    return [(group_mask(group), len(group) - 1) for group in groups]


def compatible(bits: int, needs: Sequence[tuple[int, int]]) -> bool:
    """True iff a vector with zero set `bits` has at most one non-zero
    coordinate in each group described by `needs` (see `group_needs`).

    A pair of rays is compatible when the intersection of their zero sets,
    the zero set of any positive combination, passes.
    """
    for mask, need in needs:
        if (bits & mask).bit_count() < need:
            return False
    return True
