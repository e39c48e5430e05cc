"""Tests for bitmask zero-set bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conedd.dd_engine import Vertex, vertex_bytes
from conedd.zeroset import (
    ZeroSet,
    compatible,
    group_mask,
    group_needs,
    zero_mask,
    zeroset_of,
)


def bits_of(indices):
    return sum(1 << k for k in indices)


def test_zeroset_of_example():
    z = zeroset_of((0, 3, 0, 0, 1, 0, 2))
    assert z.indices() == (0, 2, 3, 5)
    assert z.bits == zero_mask((0, 3, 0, 0, 1, 0, 2)) == 0b101101
    assert 0 in z and 4 not in z


def test_zeroset_of_all_zero():
    z = zeroset_of((0, 0, 0))
    assert z == ZeroSet(0b111, 3)
    assert z.indices() == (0, 1, 2)


def test_bits_validation():
    with pytest.raises(ValueError):
        ZeroSet(bits=1 << 7, dim=7)
    with pytest.raises(ValueError):
        ZeroSet(bits=-1, dim=3)


def test_words_counts_64_bit_blocks():
    """The memory proxy charges a mask by 64-bit words of the dimension."""
    empty = Vertex(0, [])
    assert vertex_bytes(empty, 7) == 8
    assert vertex_bytes(empty, 64) == 8
    assert vertex_bytes(Vertex(bits_of([0, 64, 65]), []), 130) == 3 * 8


def test_group_mask():
    assert group_mask((4, 5, 6)) == 0b1110000
    assert group_mask(()) == 0


def test_group_satisfied_examples():
    needs = group_needs(((4, 5, 6),))
    assert needs == [(0b1110000, 2)]
    assert compatible(bits_of([4, 5, 6]), needs)
    assert compatible(bits_of([4, 5]), needs)
    assert not compatible(bits_of([4]), needs)
    assert not compatible(bits_of([0, 1, 2, 3]), needs)


def test_group_satisfied_multiple_groups():
    needs = group_needs(((0, 1, 2), (3, 4, 5)))
    assert compatible(bits_of([0, 1, 3, 4]), needs)
    assert not compatible(bits_of([0, 1, 3]), needs)
    assert compatible(0, group_needs(()))


coords = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40)


@given(coords)
def test_zeroset_matches_definition(v):
    z = zeroset_of(tuple(v))
    assert z.bits == zero_mask(v)
    for i, x in enumerate(v):
        assert (i in z) == (x == 0)


@given(coords, st.data())
def test_intersection_is_zero_set_of_positive_combination(v, data):
    """Z(au + bw) = Z(u) & Z(w) for positive a, b when u, w are nonnegative."""
    u = tuple(abs(x) for x in v)
    w = tuple(abs(x) for x in data.draw(st.lists(
        st.integers(min_value=-5, max_value=5), min_size=len(v), max_size=len(v))))
    a = data.draw(st.integers(min_value=1, max_value=9))
    b = data.draw(st.integers(min_value=1, max_value=9))
    combined = tuple(a * x + b * y for x, y in zip(u, w))
    assert zero_mask(combined) == zero_mask(u) & zero_mask(w)
