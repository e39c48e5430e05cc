"""Cone enumeration problems: equations, constraint groups, admissibility, file I/O.

A problem is the cone {v >= 0, M v = 0} together with disjoint index groups;
a vector is admissible when it lies in the cone and has at most one non-zero
coordinate per group.  Rays are integer vectors taken at gcd 1.

Each equation, a row of M, is held as its non-zeros: a `Row`,
`{column: value}`, with the columns ascending as the producers build them
(nothing relies on that order).  A matching equation has at most 4
non-zeros in 7n columns.  This one form goes from `parse_cone` and the
triangulation front end through the engine to recovery; only `write_cone`
writes dense lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Sequence

from .errors import ParseError
from .exact_linalg import IntVector, Row, dense_row, dot, sparse_row

ConstraintGroup = tuple[int, ...]


@dataclass(frozen=True)
class EnumerationProblem:
    dim: int
    equations: tuple[Row, ...]
    groups: tuple[ConstraintGroup, ...]

    def __post_init__(self) -> None:
        """Each rule is tested on every equation, group or index at once;
        only when one fails are they tested one at a time, in order, to
        name the first that breaks a rule."""
        dim, equations, groups = self.dim, self.equations, self.groups
        if dim < 0:
            raise ValueError("dimension must be non-negative")
        if _row_fault(equations, dim):
            for i, row in enumerate(equations):
                fault = _row_fault((row,), dim)
                if fault:
                    raise ValueError(f"equation {i} {fault}")
        if _group_fault(groups) or _index_fault(list(chain.from_iterable(groups)), dim, set()):
            seen: set[int] = set()
            for group in groups:
                fault = _group_fault((group,))
                if fault:
                    raise ValueError(fault)
                for k in group:
                    fault = _index_fault((k,), dim, seen)
                    if fault:
                        raise ValueError(fault)
                    seen.add(k)


def _row_fault(rows: Sequence[Row], dim: int) -> str | None:
    """The rule some row of `rows` breaks, the first in rule order, or None."""
    if not all(map(isinstance, rows, repeat(dict))):
        return "is not a {column: value} dict"
    columns = set().union(*rows)
    if columns and (min(columns) < 0 or max(columns) >= dim):
        return f"has a column outside range({dim})"
    if not all(chain.from_iterable(map(dict.values, rows))):
        return "holds a zero value"
    return None


def _group_fault(groups: Sequence[ConstraintGroup]) -> str | None:
    """The rule some group breaks, the first in rule order, or None."""
    if not all(groups):
        return "empty constraint group"
    if list(map(list, groups)) != list(map(sorted, map(set, groups))):
        return "group indices must be strictly increasing"
    return None


def _index_fault(indices: Sequence[int], dim: int, seen: set[int]) -> str | None:
    """The rule some group index breaks, the first in rule order, or None;
    `seen` holds the indices of the groups before them."""
    outside = [k for k in indices if not 0 <= k < dim]
    if outside:
        return f"group index {outside[0]} out of range"
    if len(set(indices)) != len(indices) or not seen.isdisjoint(indices):
        return "groups must be pairwise disjoint"
    return None


def _int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}") from None


def content_lines(text: str) -> list[str]:
    """The non-empty lines of `text`, each stripped, with `#` comments cut off."""
    out = []
    for line in text.splitlines():
        s = line.split("#", 1)[0].strip()
        if s:
            out.append(s)
    return out


def parse_cone(text: str) -> EnumerationProblem:
    """Parse the cone text format.

    Line 1 is `d g`, then g rows of d integers, then `groups k`, then k lines
    of space-separated indices.  `#` starts a comment.
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty cone file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("first line must be 'd g'")
    d, g = _int(head[0]), _int(head[1])
    if d < 0 or g < 0:
        raise ParseError("d and g must be non-negative")
    if len(lines) < 2 + g:
        raise ParseError("truncated cone file")
    equations = []
    for i in range(g):
        row = [_int(t) for t in lines[1 + i].split()]
        if len(row) != d:
            raise ParseError(f"equation {i} has {len(row)} entries, expected {d}")
        equations.append(sparse_row(row))
    group_head = lines[1 + g].split()
    if len(group_head) != 2 or group_head[0] != "groups":
        raise ParseError("expected 'groups k' line after the equations")
    k = _int(group_head[1])
    if len(lines) != 2 + g + k:
        raise ParseError(f"expected {k} group lines, found {len(lines) - 2 - g}")
    groups = tuple(
        tuple(_int(t) for t in lines[2 + g + i].split()) for i in range(k)
    )
    try:
        return EnumerationProblem(d, tuple(equations), groups)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_cone(problem: EnumerationProblem) -> str:
    """The cone text format of the problem, each equation as a dense line."""
    out = [f"{problem.dim} {len(problem.equations)}"]
    out.extend(" ".join(map(str, dense_row(row, problem.dim))) for row in problem.equations)
    out.append(f"groups {len(problem.groups)}")
    out.extend(" ".join(map(str, group)) for group in problem.groups)
    return "\n".join(out) + "\n"


def admissible(problem: EnumerationProblem, v: Sequence[int]) -> bool:
    """True iff v >= 0, every equation vanishes on v, and every group has at
    most one non-zero coordinate."""
    if len(v) != problem.dim:
        raise ValueError(f"vector length {len(v)} != dimension {problem.dim}")
    if any(x < 0 for x in v):
        return False
    if any(dot(row, v) != 0 for row in problem.equations):
        return False
    for group in problem.groups:
        if sum(1 for k in group if v[k] != 0) > 1:
            return False
    return True


class _IntText(dict):
    """`str(x)` of an int, read from the dict for the small ones."""

    def __missing__(self, x: int) -> str:
        return str(x)


_INT_TEXT = _IntText((x, str(x)) for x in range(64))


def write_rays(rays: Iterable[Sequence[int]]) -> str:
    """Serialize rays: header `# rays R`, then sorted rows of integers."""
    rows = sorted(tuple(r) for r in rays)
    text = _INT_TEXT.__getitem__
    out = [f"# rays {len(rows)}"]
    out.extend(" ".join(map(text, r)) for r in rows)
    out.append("")  # the last newline, with no second copy of the text
    return "\n".join(out)


def parse_rays(text: str) -> list[IntVector]:
    header: int | None = None
    rows: list[IntVector] = []
    for line in text.splitlines():
        s = line.strip()
        if not s:
            continue
        if s.startswith("#"):
            parts = s[1:].split()
            if header is None and len(parts) == 2 and parts[0] == "rays":
                header = _int(parts[1])
            continue
        rows.append(tuple(_int(t) for t in s.split()))
    if header is None:
        raise ParseError("missing '# rays N' header")
    if header != len(rows):
        raise ParseError(f"header says {header} rays, found {len(rows)}")
    lengths = {len(r) for r in rows}
    if len(lengths) > 1:
        raise ParseError("rays have inconsistent lengths")
    return rows
