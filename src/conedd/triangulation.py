"""Tetrahedral triangulations: parsing, skeleton counts, matching equations.

A triangulation is n tetrahedra with faces glued in pairs.  Face j of a
tetrahedron is the face opposite vertex j; a gluing is a target tetrahedron
plus a permutation giving the images of vertices 0..3.  The matching-equation
builder lays out 7 coordinates per tetrahedron (4 triangle types, then the
quadrilateral types separating {0,1}|{2,3}, {0,2}|{1,3}, {0,3}|{1,2}) and
emits one equation per internal face and edge of that face.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .cone_problem import EnumerationProblem, content_lines
from .errors import ParseError
from .exact_linalg import Row

Perm = tuple[int, int, int, int]
Gluing = Optional[tuple[int, Perm]]

_IDENTITY: Perm = (0, 1, 2, 3)


def _invert(p: Perm) -> Perm:
    inv = [0, 0, 0, 0]
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


@dataclass(frozen=True)
class Triangulation:
    n: int
    gluings: tuple[tuple[Gluing, Gluing, Gluing, Gluing], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("tetrahedron count must be non-negative")
        if len(self.gluings) != self.n:
            raise ValueError("need one gluing row per tetrahedron")
        for i, row in enumerate(self.gluings):
            if len(row) != 4:
                raise ValueError("need one gluing entry per face")
            for j, gluing in enumerate(row):
                if gluing is None:
                    continue
                target, perm = gluing
                if not 0 <= target < self.n:
                    raise ValueError(f"tetrahedron {i} face {j}: target {target} out of range")
                if sorted(perm) != [0, 1, 2, 3]:
                    raise ValueError(f"tetrahedron {i} face {j}: not a permutation")
                if target == i and perm == _IDENTITY:
                    raise ValueError(f"tetrahedron {i} face {j}: face glued to itself identically")
                partner = self.gluings[target][perm[j]]
                if partner != (i, _invert(perm)):
                    raise ValueError(
                        f"tetrahedron {i} face {j}: gluing is not matched by its inverse"
                    )

    def boundary_faces(self) -> int:
        return sum(1 for row in self.gluings for gluing in row if gluing is None)


@dataclass(frozen=True)
class Skeleton:
    faces: int
    edges: int
    vertices: int


class _DSU:
    def __init__(self, items) -> None:
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def classes(self) -> int:
        return sum(1 for x in self.parent if self.find(x) == x)


def parse_triangulation(text: str) -> Triangulation:
    """Parse the triangulation text format.

    Line 1 is n; then n lines of 4 tokens, one per face, each `-` for a
    boundary face or `t:wxyz` for a gluing to tetrahedron t mapping vertices
    0123 to wxyz.  `#` starts a comment.
    """
    lines = content_lines(text)
    if not lines:
        raise ParseError("empty triangulation file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ParseError(f"first line must be the tetrahedron count, got {lines[0]!r}") from None
    if n < 0:
        raise ParseError("tetrahedron count must be non-negative")
    if len(lines) != 1 + n:
        raise ParseError(f"expected {n} gluing lines, found {len(lines) - 1}")
    rows = []
    for i in range(n):
        tokens = lines[1 + i].split()
        if len(tokens) != 4:
            raise ParseError(f"tetrahedron {i}: expected 4 face tokens, got {len(tokens)}")
        row = []
        for j, token in enumerate(tokens):
            if token == "-":
                row.append(None)
                continue
            head, sep, tail = token.partition(":")
            if not sep or len(tail) != 4 or any(c not in "0123" for c in tail):
                raise ParseError(f"tetrahedron {i} face {j}: bad token {token!r}")
            try:
                target = int(head)
            except ValueError:
                raise ParseError(f"tetrahedron {i} face {j}: bad token {token!r}") from None
            row.append((target, tuple(int(c) for c in tail)))
        rows.append(tuple(row))
    try:
        return Triangulation(n, tuple(rows))
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def write_triangulation(t: Triangulation) -> str:
    lines = [str(t.n)]
    for row in t.gluings:
        tokens = []
        for gluing in row:
            if gluing is None:
                tokens.append("-")
            else:
                target, perm = gluing
                tokens.append(f"{target}:{''.join(map(str, perm))}")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def compute_skeleton(t: Triangulation) -> Skeleton:
    """Face/edge/vertex class counts under the gluing identifications."""
    faces = _DSU([(i, j) for i in range(t.n) for j in range(4)])
    edges = _DSU([(i, e) for i in range(t.n) for e in combinations(range(4), 2)])
    vertices = _DSU([(i, v) for i in range(t.n) for v in range(4)])
    for i in range(t.n):
        for j in range(4):
            gluing = t.gluings[i][j]
            if gluing is None:
                continue
            target, perm = gluing
            faces.union((i, j), (target, perm[j]))
            for v in range(4):
                if v == j:
                    continue
                vertices.union((i, v), (target, perm[v]))
            for a, b in combinations([v for v in range(4) if v != j], 2):
                image = tuple(sorted((perm[a], perm[b])))
                edges.union((i, (a, b)), (target, image))
    return Skeleton(faces.classes(), edges.classes(), vertices.classes())


# _QUAD_OFFSET[a][b]: coordinate offset (4..6) of the quad type separating
# {a, b} from the other two vertices; the diagonal is never read.
_QUAD_OFFSET = ((0, 4, 5, 6), (4, 0, 6, 5), (5, 6, 0, 4), (6, 5, 4, 0))

# _CORNERS[j]: the vertex c of face j opposite each edge of the face, for
# its edges in sorted pair order.
_CORNERS = tuple(tuple(v for v in (3, 2, 1, 0) if v != j) for j in range(4))


def standard_matching_equations(t: Triangulation, dedup: bool = False) -> EnumerationProblem:
    """Matching equations in standard coordinates, d = 7n.

    One equation per internal face and edge of that face: on each side the
    triangle type cutting off the vertex opposite the edge plus the quad type
    separating that vertex from the edge; coefficients +1 on the side of the
    lower (tetrahedron, face) pair and -1 on the other, merged additively when
    both sides land in the same tetrahedron.  Rows are ordered by canonical
    face then by sorted edge pair, and each is a `Row` of its non-zeros with
    ascending columns.  Groups are the n quad triples.
    """
    d = 7 * t.n
    rows: list[Row] = []
    for i in range(t.n):
        for j in range(4):
            gluing = t.gluings[i][j]
            if gluing is None:
                continue
            target, perm = gluing
            pj = perm[j]
            if (i, j) > (target, pj):
                continue
            for c in _CORNERS[j]:
                pc = perm[c]
                here = (7 * i + c, 7 * i + _QUAD_OFFSET[c][j])
                there = (7 * target + pc, 7 * target + _QUAD_OFFSET[pc][pj])
                if target != i:  # then i < target, so the columns ascend
                    rows.append({here[0]: 1, here[1]: 1, there[0]: -1, there[1]: -1})
                    continue
                # A face glued to its own tetrahedron: merge the two sides.
                row = dict.fromkeys(here, 1)
                for col in there:
                    if col in row:
                        del row[col]  # +1 and -1 cancel
                    else:
                        row[col] = -1
                rows.append(dict(sorted(row.items())))
    if dedup:  # equal rows hold the same items in the same order
        rows = list({tuple(row.items()): row for row in rows}.values())
    groups = tuple((7 * i + 4, 7 * i + 5, 7 * i + 6) for i in range(t.n))
    return EnumerationProblem(d, tuple(rows), groups)


def _closed_loop_gluings(
    n: int, chain_a: Perm, chain_b: Perm, close_a: Perm, close_b: Perm
) -> Triangulation:
    """Loop of n tetrahedra: faces 0 and 3 of each glue forward to the next."""
    if n < 3:
        raise ValueError("loops need at least 3 tetrahedra")
    rows: list[list[Gluing]] = [[None] * 4 for _ in range(n)]

    def set_pair(i: int, j: int, target: int, perm: Perm) -> None:
        rows[i][j] = (target, perm)
        rows[target][perm[j]] = (i, _invert(perm))

    for i in range(n - 1):
        set_pair(i, 0, i + 1, chain_a)
        set_pair(i, 3, i + 1, chain_b)
    set_pair(n - 1, 0, 0, close_a)
    set_pair(n - 1, 3, 0, close_b)
    return Triangulation(n, tuple(tuple(row) for row in rows))


# Layering permutations for the twisted loop family; the closing pair applies
# the twist.  Found by exhaustive search over loop-shaped gluings (see
# scripts/gen_fixtures.py --search-loop) and validated by the closed-form filtered
# solution counts F(n-1) + 2 F(n-2) + 1 of this family at n = 4..9.
_CHAIN_A: Perm = (1, 0, 2, 3)
_CHAIN_B: Perm = (0, 1, 3, 2)
_TWIST_A: Perm = (2, 3, 1, 0)
_TWIST_B: Perm = (3, 2, 0, 1)


def twisted_layered_loop(n: int) -> Triangulation:
    """Closed n-tetrahedron twisted layered loop."""
    return _closed_loop_gluings(n, _CHAIN_A, _CHAIN_B, _TWIST_A, _TWIST_B)
