"""Exact integer linear algebra: dot products, gcd normalization, rank, nullspaces.

Everything runs on unbounded Python ints.  Rank and nullspace use
fraction-free (Bareiss) elimination: each update divides exactly by the
previous pivot, so intermediate entries stay integral and of modest size.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence

IntVector = tuple[int, ...]


def dot(m: Sequence[int], v: Sequence[int]) -> int:
    if len(m) != len(v):
        raise ValueError(f"length mismatch: {len(m)} vs {len(v)}")
    return sum(a * b for a, b in zip(m, v))


def unit_row(dim: int, index: int) -> IntVector:
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    return tuple(1 if j == index else 0 for j in range(dim))


def vector_gcd(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            break
    return g


def gcd_normalize(v: Sequence[int]) -> IntVector:
    """Divide by the gcd of the entries; negate if every entry is <= 0."""
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("cannot normalize the zero vector")
    w = tuple(x // g for x in v)
    if all(x <= 0 for x in w):
        w = tuple(-x for x in w)
    return w


def _echelonize(m: list[list[int]], ncols: int) -> list[int]:
    """In-place fraction-free elimination; returns the pivot column list."""
    nrows = len(m)
    prev = 1
    piv_cols: list[int] = []
    piv_row = 0
    for col in range(ncols):
        if piv_row == nrows:
            break
        found = -1
        for i in range(piv_row, nrows):
            if m[i][col] != 0:
                found = i
                break
        if found < 0:
            continue
        if found != piv_row:
            m[piv_row], m[found] = m[found], m[piv_row]
        p = m[piv_row][col]
        top = m[piv_row]
        for i in range(piv_row + 1, nrows):
            row = m[i]
            f = row[col]
            # Uniform update keeps every later division by `prev` exact.
            for j in range(col + 1, ncols):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = p
        piv_cols.append(col)
        piv_row += 1
    return piv_cols


def _copy_checked(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    m = []
    for r in rows:
        if len(r) != ncols:
            raise ValueError(f"row length {len(r)} != {ncols}")
        m.append(list(r))
    return m


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals of an integer matrix."""
    if not rows:
        return 0
    ncols = len(rows[0])
    m = _copy_checked(rows, ncols)
    return len(_echelonize(m, ncols))


def nullspace_generator(rows: Sequence[Sequence[int]], ncols: int) -> Optional[IntVector]:
    """Integer generator of a one-dimensional nullspace, or None if nullity != 1.

    The result has gcd 1; its sign follows gcd_normalize (all-non-positive
    vectors are negated, mixed signs are returned as computed).
    """
    m = _copy_checked(rows, ncols)
    piv_cols = _echelonize(m, ncols)
    if ncols - len(piv_cols) != 1:
        return None
    piv_set = set(piv_cols)
    free_col = next(c for c in range(ncols) if c not in piv_set)
    x = [0] * ncols
    x[free_col] = 1
    for i in reversed(range(len(piv_cols))):
        col = piv_cols[i]
        row = m[i]
        val = sum(row[j] * x[j] for j in range(col + 1, ncols))
        p = row[col]
        r = gcd(val, p)
        scale = abs(p) // r if val else 1
        if scale != 1:
            x = [scale * t for t in x]
            val *= scale
        x[col] = -val // p
    return gcd_normalize(x)

