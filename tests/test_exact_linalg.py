"""Tests for exact integer linear algebra."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conedd.exact_linalg import (
    _reduce,
    dense_row,
    dot,
    nullspace_generator,
    rank,
    rref,
    sparse_row,
    vector_gcd,
)

GIESEKING_ROWS = [
    (0, 0, 0, 0, 0, -1, 1),
    (0, 1, 0, -1, -1, 1, 0),
    (0, -1, 1, 0, 1, 0, -1),
    (0, -1, 1, 0, -1, 0, 1),
    (1, 0, -1, 0, 1, -1, 0),
]


def sparse(rows):
    """Dense rows in the `{column: value}` form `rank` and
    `nullspace_generator` take."""
    return [sparse_row(r) for r in rows]


def test_dot():
    assert dot({0: 1, 1: 2, 2: 3}, (4, 5, 6)) == 32
    assert dot({1: 2, 3: -1}, (7, 5, 9, 4)) == 6
    assert dot({}, ()) == 0


def test_vector_gcd():
    assert vector_gcd((6, -9, 12)) == 3
    assert vector_gcd((0, 0)) == 0
    assert vector_gcd((5,)) == 5


def test_rank_examples():
    assert rank([]) == 0
    assert rank([{}]) == 0
    assert rank(sparse([[1, 2], [2, 4]])) == 1
    assert rank([{0: 1}, {1: 1}]) == 2
    assert rank(sparse(GIESEKING_ROWS)) == 5


def test_rank_needs_row_swap():
    assert rank([{1: 1}, {0: 1}]) == 2


def test_nullspace_generator_line():
    gen = nullspace_generator(sparse([(1, -1, 0), (0, 1, -1)]), 3)
    assert gen == (1, 1, 1)


def test_nullspace_generator_none_when_full_rank():
    assert nullspace_generator([{0: 1}, {1: 1}], 2) is None


def test_nullspace_generator_none_when_nullity_two():
    assert nullspace_generator([{0: 1}], 4) is None


def test_nullity_one_then_zero_from_the_last_row():
    # The first two rows leave nullity 1 (generator (1, 1, 1)); the last row
    # alone makes it 0, so no elimination may stop at rank ncols - 1.
    rows = sparse([(1, -1, 0), (0, 1, -1)])
    assert nullspace_generator(rows, 3) == (1, 1, 1)
    assert nullspace_generator(rows + [{0: 1}], 3) is None


def test_reduce_reads_no_row_past_its_limit():
    """`_reduce` stops at `limit` pivots and leaves the rest of an iterator
    unread; at a limit of 0 it reads no row at all."""
    rows = iter([{0: 2}, {0: 3}, {0: 5}])
    assert _reduce(rows, 0) == {}
    assert list(rows) == [{0: 2}, {0: 3}, {0: 5}]
    rows = iter([{0: 1}, {1: 1}, {2: 1}])
    assert _reduce(rows, 2) == {0: {0: 1}, 1: {1: 1}}
    assert list(rows) == [{2: 1}]


def test_one_column_nullspace_only_substitutes():
    """With one column the reduction stops at 0 pivots, so the generator is
    (1,) unless a row, read only to substitute (1,) into, is not empty; the
    first such row ends the reading."""
    assert nullspace_generator([], 1) == (1,)
    assert nullspace_generator([{}], 1) == (1,)
    assert nullspace_generator([{0: 2}], 1) is None
    assert nullspace_generator([{}, {0: -1}], 1) is None
    rows = iter([{0: 2}, {0: 3}, {0: 5}])
    assert nullspace_generator(rows, 1) is None
    assert list(rows) == [{0: 3}, {0: 5}]


def test_sparse_row():
    assert sparse_row((0, 2, 0, -1)) == {1: 2, 3: -1}
    assert sparse_row((0, 0)) == {}
    assert sparse_row([3, 0]) == {0: 3}


def test_dense_row():
    assert dense_row({1: 2, 3: -1}, 5) == (0, 2, 0, -1, 0)
    assert dense_row({}, 2) == (0, 0)
    for row in GIESEKING_ROWS:
        assert dense_row(sparse_row(row), len(row)) == tuple(row)


def test_sparse_row_refuses_a_row_that_is_sparse_already():
    """Read as a dense row, {1: 2, 3: -1} would give {0: 1, 1: 3}: its keys
    taken for entries.  A dict is refused instead."""
    with pytest.raises(TypeError):
        sparse_row({1: 2, 3: -1})
    with pytest.raises(TypeError):
        sparse_row({})


def test_dense_rows_fail_loudly():
    """Only `{column: value}` rows are rows: a dense row is an error, not a
    wrong answer."""
    with pytest.raises(AttributeError):
        rank([(1, 0), (0, 1)])
    with pytest.raises(AttributeError):
        nullspace_generator([[1, -1, 0]], 3)
    with pytest.raises(AttributeError):
        dot((1, 2), (1, 2))


def test_nullspace_generator_scaling():
    # 2x = 3y has integer generator (3, 2).
    gen = nullspace_generator([{0: 2, 1: -3}], 2)
    assert gen in ((3, 2), (-3, -2))
    assert vector_gcd(gen) == 1 and [x for x in gen if x][-1] > 0


def _rref_fraction(rows, ncols):
    """Reference over the rationals: the reduced row echelon form by
    Gauss-Jordan elimination on Fractions, as (rows, pivot columns), each
    row scaled to 1 at its pivot."""
    m = [[Fraction(x) for x in r] for r in rows]
    piv_cols = []
    for c in range(ncols):
        r = len(piv_cols)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv_cols.append(c)
    return m[: len(piv_cols)], piv_cols


def _gauss_jordan(rows, ncols):
    """Reference over the rationals: (rank, nullspace basis) by Gauss-Jordan
    elimination on Fractions.  Basis vector f has a 1 at free column f."""
    m, piv_cols = _rref_fraction(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in piv_cols):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, c in enumerate(piv_cols):
            v[c] = -m[i][free]
        basis.append(v)
    return len(piv_cols), basis


def _primitive(v):
    """The integer multiple of a rational vector with gcd 1."""
    scale = 1
    for x in v:
        scale = scale * x.denominator // gcd(scale, x.denominator)
    ints = [int(x * scale) for x in v]
    g = vector_gcd(ints)
    return tuple(x // g for x in ints)


def _rank_fraction(rows):
    return _gauss_jordan(rows, len(rows[0]) if rows else 0)[0]


def _check_against_reference(rows, ncols):
    """rank and nullspace_generator agree with Gauss-Jordan.  A generator is
    the primitive multiple of the reference basis vector whose last non-zero
    entry is positive."""
    ref_rank, basis = _gauss_jordan(rows, ncols)
    assert rank(sparse(rows)) == ref_rank
    want = _primitive(basis[0]) if len(basis) == 1 else None
    assert nullspace_generator(sparse(rows), ncols) == want
    return len(basis)


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
    assert rank(sparse(rows)) == _rank_fraction(rows)


@settings(max_examples=200)
@given(matrices)
def test_rref_matches_fraction_reference(rows):
    """`rref` keys each row by its pivot column, the pivot columns of the
    Gauss-Jordan reference; a row divided by its pivot entry is that
    pivot's reference row, and its entries stay integers at gcd 1.  The
    input rows are left as they were."""
    ncols = len(rows[0])
    want, piv_cols = _rref_fraction(rows, ncols)
    given_rows = sparse(rows)
    copies = [dict(r) for r in given_rows]
    got = rref(given_rows)
    assert given_rows == copies
    assert sorted(got) == piv_cols
    for c, ref in zip(piv_cols, want):
        row = got[c]
        assert vector_gcd(row.values()) == 1
        assert [Fraction(row.get(j, 0), row[c]) for j in range(ncols)] == ref


def test_rref_examples():
    assert rref([]) == {}
    assert rref([{}]) == {}
    # Back-substitution clears column 1 from the row of pivot 0.
    assert rref(sparse([(1, 1, 1), (0, 2, -2)])) == {0: {0: 1, 2: 2}, 1: {1: 1, 2: -1}}
    assert rref(sparse([(0, 3, 6), (0, 1, 2)])) == {1: {1: 1, 2: 2}}
    assert sorted(rref(sparse(GIESEKING_ROWS))) == [0, 1, 2, 4, 5]


@given(matrices)
def test_nullspace_generator_is_orthogonal(rows):
    ncols = len(rows[0])
    gen = nullspace_generator(sparse(rows), ncols)
    if gen is not None:
        assert any(gen)
        assert vector_gcd(gen) == 1 and [x for x in gen if x][-1] > 0
        for r in rows:
            assert dot(sparse_row(r), gen) == 0
        assert rank(sparse(rows)) == ncols - 1


@st.composite
def sparse_pm1_matrices(draw):
    """Rows like matching equations: at most 4 non-zeros, each +-1.  Zero
    rows come from empty draws; a duplicate of a drawn row may be added."""
    ncols = draw(st.integers(min_value=1, max_value=9))
    row = st.dictionaries(
        st.integers(min_value=0, max_value=ncols - 1),
        st.sampled_from((-1, 1)),
        max_size=min(4, ncols),
    )
    entries = draw(st.lists(row, max_size=ncols + 2))
    rows = [tuple(e.get(j, 0) for j in range(ncols)) for e in entries]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    return rows, ncols


@settings(max_examples=300)
@given(sparse_pm1_matrices())
@example(([], 1))  # nullity 1 with no rows at all
@example(([(0, 0, 0), (1, -1, 0), (1, -1, 0), (0, 1, -1)], 3))  # zero and duplicate rows, nullity 1
@example(([(1, -1, 0, 0), (0, 0, 1, 1)], 4))  # nullity 2
@example(([(1, -1, 0), (0, 1, -1), (1, 0, 1)], 3))  # last row turns nullity 1 into 0
def test_reduction_matches_gauss_jordan_sparse(case):
    rows, ncols = case
    _check_against_reference(rows, ncols)


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda ncols: st.tuples(
            st.lists(
                st.lists(st.integers(min_value=-9, max_value=9), min_size=ncols, max_size=ncols).map(tuple),
                max_size=6,
            ),
            st.just(ncols),
        )
    )
)
@example(([(2, -3), (4, -6)], 2))  # duplicate up to scale, nullity 1
@example(([(3, 5), (6, 9)], 2))  # nullity 0
def test_reduction_matches_gauss_jordan_dense(case):
    rows, ncols = case
    _check_against_reference(rows, ncols)


@settings(max_examples=200)
@given(
    st.integers(min_value=2, max_value=6).flatmap(
        lambda ncols: st.tuples(
            st.lists(st.integers(min_value=-3, max_value=3), min_size=ncols, max_size=ncols).filter(any),
            st.lists(
                st.lists(st.integers(min_value=-3, max_value=3), min_size=ncols, max_size=ncols),
                max_size=ncols + 1,
            ),
            st.lists(st.integers(min_value=-3, max_value=3), min_size=ncols, max_size=ncols),
        )
    )
)
def test_last_row_breaks_nullity_one(case):
    """Rows orthogonal to v have nullity >= 1; when it is exactly 1, one more
    row not orthogonal to v must make the generator None, wherever it sits.
    Placed after the row that gives the last pivot needed, it is never
    reduced, only substituted into the generator."""
    v, raw, last = case
    vv = sum(x * x for x in v)
    rows = [tuple(vv * a - dot(sparse_row(r), v) * b for a, b in zip(r, v)) for r in raw]
    if _check_against_reference(rows, len(v)) == 1 and dot(sparse_row(last), v) != 0:
        for at in range(len(rows) + 1):
            assert nullspace_generator(sparse(rows[:at] + [last] + rows[at:]), len(v)) is None
