"""Tests for bitmask zero-set bookkeeping."""

from hypothesis import given
from hypothesis import strategies as st

from conedd.dd_engine import vertex_bytes, zero_mask


def bits_of(indices):
    return sum(1 << k for k in indices)


def test_zeroset_of_example():
    assert zero_mask((0, 3, 0, 0, 1, 0, 2)) == bits_of([0, 2, 3, 5]) == 0b101101


def test_zeroset_of_all_zero():
    assert zero_mask((0, 0, 0)) == 0b111
    assert zero_mask(()) == 0


def test_words_counts_64_bit_blocks():
    """The memory proxy charges a mask by 64-bit words of the dimension."""
    assert vertex_bytes([], 7) == 8
    assert vertex_bytes([], 64) == 8
    assert vertex_bytes([], 130) == 3 * 8


coords = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40)


@given(coords)
def test_zeroset_matches_definition(v):
    bits = zero_mask(v)
    assert bits >> len(v) == 0
    for i, x in enumerate(v):
        assert (bits >> i & 1 == 1) == (x == 0)


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
