"""Exact integer linear algebra: dot products, gcds, rank, nullspaces.

Everything runs on unbounded Python ints.  Rank, nullspace and the reduced
row echelon form share one sparse row reduction (`_reduce`), and one row
update (`_eliminate`).  Rows are `{column: value}` dicts, the only row form
they and `dot` accept (`sparse_row` converts a dense row, and `dense_row`
converts back), so an update touches only the entries the two rows hold: a
matching-equation row has at most 4 non-zeros, while a dense elimination
would update every entry of every lower row at every pivot.  Each update is an integer combination of two
rows followed by division by the gcd of the entries, so the entries stay
integral and small.  Nullspaces are then read off by integer
back-substitution.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Optional, Sequence

IntVector = tuple[int, ...]
Row = dict[int, int]  # {column: non-zero value}


def dot(row: Row, v: Sequence[int]) -> int:
    """The product of a `{column: value}` row and a dense vector."""
    return sum(x * v[j] for j, x in row.items())


def vector_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            break
    return g


def sparse_row(row: Sequence[int]) -> Row:
    """The `{column: value}` form of a dense row, zeros left out.

    A dict is refused with `TypeError`: it is a row already, and reading its
    keys as the entries of a dense row would give a wrong row silently."""
    if isinstance(row, dict):
        raise TypeError("sparse_row takes a dense row, not a {column: value} dict")
    return {j: x for j, x in enumerate(row) if x}


def dense_row(row: Row, dim: int) -> IntVector:
    """The dense form, over range(dim), of a `{column: value}` row."""
    out = [0] * dim
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def _eliminate(row: Row, top: Row, col: int) -> Row:
    """`row` with column `col` eliminated by the pivot row `top`: a*row -
    b*top with a, b the pivot entry and the row's entry over their gcd,
    divided by the gcd of its entries.  Only the entries the two rows hold
    are touched, and neither is modified."""
    a, b = top[col], row[col]
    g = gcd(a, b)
    a //= g
    b //= g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, y in top.items():
        x = out.get(j, 0) - b * y
        if x:
            out[j] = x
        else:
            del out[j]
    g = vector_gcd(out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def _reduce(rows: Iterable[Row], limit: Optional[int] = None) -> dict[int, Row]:
    """Exact row reduction; returns the pivot rows keyed by their lowest column.

    Each row is reduced by the pivot of its lowest column (`_eliminate`)
    until that column has no pivot; then, divided by the gcd of its
    entries, it becomes the pivot of that column.  The input rows are not
    modified.  With `limit` given the reduction stops at that many pivots,
    leaving the rest of an iterator unread.
    """
    pivots: dict[int, Row] = {}
    for row in rows:
        while row:
            col = min(row)
            top = pivots.get(col)
            if top is None:
                g = vector_gcd(row.values())
                if g != 1:
                    row = {j: x // g for j, x in row.items()}
                pivots[col] = row
                if len(pivots) == limit:
                    return pivots
                break
            row = _eliminate(row, top, col)
    return pivots


def rref(rows: Iterable[Row]) -> dict[int, Row]:
    """Reduced row echelon form over the rationals, kept integral: the pivot
    rows keyed by their pivot column, and no pivot column is held by any
    other row.

    `_reduce` gives the echelon form, whose rows hold only columns from
    their pivot on.  Going down from the highest pivot, each pivot column is
    then eliminated from the rows of lower pivots; the pivot row used holds
    no other pivot column by then, so none comes back.  The input rows are
    not modified.
    """
    pivots = _reduce(rows)
    cols = sorted(pivots)
    for i in range(len(cols) - 1, 0, -1):
        col = cols[i]
        top = pivots[col]
        for lower in cols[:i]:
            if col in pivots[lower]:
                pivots[lower] = _eliminate(pivots[lower], top, col)
    return pivots


def rank(rows: Iterable[Row]) -> int:
    """Exact rank over the rationals of an integer matrix given as
    `{column: value}` rows."""
    return len(_reduce(rows))


def nullspace_generator(rows: Iterable[Row], ncols: int) -> Optional[IntVector]:
    """Integer generator of a one-dimensional nullspace, or None if nullity != 1.

    `rows` are `{column: value}` rows with columns in range(ncols).  The
    result has gcd 1, and its last non-zero entry, at the one column without
    a pivot, is positive.

    The reduction stops at the (ncols - 1)-th pivot.  The generator of those
    pivots is then the answer iff every row not yet reduced vanishes on it,
    so those rows are only substituted into it.
    """
    rows = iter(rows)
    pivots = _reduce(rows, ncols - 1)
    if ncols - len(pivots) != 1:
        return None
    free_col = next(c for c in range(ncols) if c not in pivots)
    x = [0] * ncols
    x[free_col] = 1
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        val = dot(row, x)  # x[col] is still 0
        p = row[col]
        r = gcd(val, p)
        scale = abs(p) // r if val else 1
        if scale != 1:
            x = [scale * t for t in x]
            val *= scale
        x[col] = -val // p
    g = vector_gcd(x)
    gen = tuple(t // g for t in x)
    if any(dot(row, gen) for row in rows):
        return None
    return gen
