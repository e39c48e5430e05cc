"""Tests for exact integer linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedd.exact_linalg import (
    dot,
    gcd_normalize,
    nullspace_generator,
    rank,
    unit_row,
    vector_gcd,
)

GIESEKING_ROWS = [
    (0, 0, 0, 0, 0, -1, 1),
    (0, 1, 0, -1, -1, 1, 0),
    (0, -1, 1, 0, 1, 0, -1),
    (0, -1, 1, 0, -1, 0, 1),
    (1, 0, -1, 0, 1, -1, 0),
]


def test_dot():
    assert dot((1, 2, 3), (4, 5, 6)) == 32
    assert dot((), ()) == 0
    with pytest.raises(ValueError):
        dot((1, 2), (1,))


def test_unit_row():
    assert unit_row(4, 2) == (0, 0, 1, 0)
    with pytest.raises(ValueError):
        unit_row(4, 4)


def test_vector_gcd():
    assert vector_gcd((6, -9, 12)) == 3
    assert vector_gcd((0, 0)) == 0
    assert vector_gcd((5,)) == 5


def test_gcd_normalize():
    assert gcd_normalize((2, 4, 6)) == (1, 2, 3)
    assert gcd_normalize((-2, -4)) == (1, 2)
    assert gcd_normalize((0, -3, 3)) == (0, -1, 1) or gcd_normalize((0, -3, 3)) == (0, 1, -1)
    with pytest.raises(ValueError):
        gcd_normalize((0, 0, 0))


def test_gcd_normalize_sign_convention():
    # A vector with mixed signs keeps its orientation; an all-nonpositive
    # vector is flipped to nonnegative.
    assert gcd_normalize((0, -2, 2)) == (0, -1, 1)
    assert gcd_normalize((0, -2, -2)) == (0, 1, 1)


def test_rank_examples():
    assert rank([]) == 0
    assert rank([[0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([list(r) for r in GIESEKING_ROWS]) == 5


def test_rank_needs_row_swap():
    assert rank([[0, 1], [1, 0]]) == 2


def test_nullspace_generator_line():
    gen = nullspace_generator([(1, -1, 0), (0, 1, -1)], 3)
    assert gen == (1, 1, 1)


def test_nullspace_generator_none_when_full_rank():
    assert nullspace_generator([(1, 0), (0, 1)], 2) is None


def test_nullspace_generator_none_when_nullity_two():
    assert nullspace_generator([(1, 0, 0, 0)], 4) is None


def test_nullspace_generator_scaling():
    # 2x = 3y has integer generator (3, 2).
    gen = nullspace_generator([(2, -3)], 2)
    assert gen in ((3, 2), (-3, -2))
    assert gen == gcd_normalize(gen)


def _rank_fraction(rows):
    """Reference rank over the rationals with naive Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=200)
@given(matrices)
def test_rank_matches_fraction_reference(rows):
    assert rank([list(r) for r in rows]) == _rank_fraction(rows)


@given(matrices)
def test_nullspace_generator_is_orthogonal(rows):
    ncols = len(rows[0])
    gen = nullspace_generator([tuple(r) for r in rows], ncols)
    if gen is not None:
        assert any(gen)
        assert gen == gcd_normalize(gen)
        for r in rows:
            assert dot(tuple(r), gen) == 0
        assert rank([list(r) for r in rows]) == ncols - 1


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=8))
def test_gcd_normalize_idempotent(v):
    if not any(v):
        return
    once = gcd_normalize(tuple(v))
    assert gcd_normalize(once) == once
    assert vector_gcd(once) == 1
