#!/usr/bin/env python3
"""Regenerate the committed fixture files, and optionally re-run the searches
that derived the hardcoded gluings.

Default mode rewrites fixtures/ deterministically from frozen data.  With
--search-loop or --search-two-tet, the derivation searches are re-run and
report every candidate, so the frozen choices can be audited:

* the twisted layered loop permutations are validated by the closed-form
  filtered solution counts F(n-1) + 2 F(n-2) + 1 at n = 5, 6, 7;
* the two-tetrahedron product-space fixture is validated by its skeleton
  (1 vertex, 3 edges), orientability, and an infinite first homology group
  (free rank 1), which pins the manifold down among two-tetrahedron
  triangulations.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conedd.dd_engine import run
from conedd.exact_linalg import rank, sparse_row
from conedd.triangulation import (
    Triangulation,
    _closed_loop_gluings,
    _invert,
    compute_skeleton,
    standard_matching_equations,
    twisted_layered_loop,
    write_triangulation,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GIESEKING_CONE = """\
# Gieseking manifold, standard coordinates: 5 matching equations in dimension 7,
# one quadrilateral group.
7 5
0 0 0 0 0 -1 1
0 1 0 -1 -1 1 0
0 -1 1 0 1 0 -1
0 -1 1 0 -1 0 1
1 0 -1 0 1 -1 0
groups 1
4 5 6
"""

ONETET_TRI = """\
# One tetrahedron, both face pairs glued: a small closed fixture.
1
0:1023 0:1023 0:0132 0:0132
"""

S2XS1_TRI = """\
# Two-tetrahedron product space S2 x S1: in each tetrahedron the two rear
# faces are glued to each other with a twist, and the front faces of one
# tetrahedron are glued to the front faces of the other.
# Skeleton: 1 vertex, 3 edges; orientable; first homology of free rank 1.
2
0:1230 0:3012 1:0123 1:0123
1:1230 1:3012 0:0123 0:0123
"""


def fib(k: int) -> int:
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def expected_loop_count(n: int) -> int:
    return fib(n - 1) + 2 * fib(n - 2) + 1


def perm_sign(p) -> int:
    s = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                s = -s
    return s


def orientable(t: Triangulation) -> bool:
    color = [0] * t.n
    color[0] = 1
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(4):
            gluing = t.gluings[i][j]
            if gluing is None:
                continue
            target, p = gluing
            want = -color[i] * perm_sign(p)
            if color[target] == 0:
                color[target] = want
                stack.append(target)
            elif color[target] != want:
                return False
    return True


class _SignedDSU:
    """Union-find tracking a relative orientation sign per element."""

    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.sign = {x: 1 for x in items}

    def find(self, x):
        if self.parent[x] == x:
            return x, 1
        root, s = self.find(self.parent[x])
        self.parent[x] = root
        self.sign[x] *= s
        return root, self.sign[x]

    def union(self, x, y, s):
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx != ry:
            self.parent[rx] = ry
            self.sign[rx] = s * sy * sx


def h1_free_rank(t: Triangulation) -> int:
    """Free rank of first homology: edge classes minus rank of the face
    boundary map (valid for one-vertex triangulations, where the vertex
    boundary map vanishes)."""
    edges = [(i, e) for i in range(t.n) for e in itertools.combinations(range(4), 2)]
    dsu = _SignedDSU(edges)
    for i in range(t.n):
        for j in range(4):
            gluing = t.gluings[i][j]
            if gluing is None:
                continue
            target, p = gluing
            for a, b in itertools.combinations([v for v in range(4) if v != j], 2):
                pa, pb = p[a], p[b]
                dsu.union((i, (a, b)), (target, (min(pa, pb), max(pa, pb))), 1 if pa < pb else -1)
    roots = sorted({dsu.find(e)[0] for e in edges})
    index = {r: k for k, r in enumerate(roots)}
    columns = []
    seen = set()
    for i in range(t.n):
        for j in range(4):
            gluing = t.gluings[i][j]
            if gluing is None or (i, j) in seen:
                continue
            target, p = gluing
            seen.add((i, j))
            seen.add((target, p[j]))
            v0, v1, v2 = [v for v in range(4) if v != j]
            col = [0] * len(roots)
            for (a, b), c in (((v1, v2), 1), ((v0, v2), -1), ((v0, v1), 1)):
                root, s = dsu.find((i, (a, b)))
                col[index[root]] += c * s
            columns.append(col)
    return len(roots) - rank(sparse_row(row) for row in zip(*columns))


def filtered_count(t: Triangulation) -> int:
    rays, _ = run(standard_matching_equations(t))
    return len(rays)


def search_loop() -> None:
    """Exhaust loop-shaped gluings; report families matching the counts."""
    perms = list(itertools.permutations(range(4)))
    chain_a = [p for p in perms if p[0] in (1, 2)]
    chain_b = [p for p in perms if p[3] in (1, 2)]
    hits = []
    for a in chain_a:
        for b in chain_b:
            if b[3] == a[0]:
                continue
            for c in chain_a:
                for d in chain_b:
                    if d[3] == c[0]:
                        continue
                    try:
                        t = _closed_loop_gluings(5, a, b, c, d)
                    except ValueError:
                        continue
                    if compute_skeleton(t).vertices != 1:
                        continue
                    if filtered_count(t) != expected_loop_count(5):
                        continue
                    if all(
                        filtered_count(_closed_loop_gluings(n, a, b, c, d))
                        == expected_loop_count(n)
                        for n in (6, 7)
                    ):
                        hits.append((a, b, c, d, orientable(t)))
    print(f"loop families matching counts at n=5,6,7: {len(hits)}")
    for a, b, c, d, orient in sorted(hits):
        print(f"  chain {a} {b}  close {c} {d}  orientable={orient}")


def search_two_tet() -> None:
    """Exhaust the rear-self-glued two-tetrahedron family; report matches."""
    perms = list(itertools.permutations(range(4)))
    pairs = list(itertools.combinations(range(4), 2))
    hits = []
    for a0, b0 in pairs:
        for p in perms:
            if p[a0] != b0:
                continue
            for a1, b1 in pairs:
                for q in perms:
                    if q[a1] != b1:
                        continue
                    front0 = [f for f in range(4) if f not in (a0, b0)]
                    front1 = [f for f in range(4) if f not in (a1, b1)]
                    for targets in (front1, front1[::-1]):
                        for r in perms:
                            if r[front0[0]] != targets[0]:
                                continue
                            for s in perms:
                                if s[front0[1]] != targets[1]:
                                    continue
                                rows0: list = [None] * 4
                                rows1: list = [None] * 4
                                rows0[a0] = (0, p)
                                rows0[b0] = (0, _invert(p))
                                rows1[a1] = (1, q)
                                rows1[b1] = (1, _invert(q))
                                rows0[front0[0]] = (1, r)
                                rows1[targets[0]] = (0, _invert(r))
                                rows0[front0[1]] = (1, s)
                                rows1[targets[1]] = (0, _invert(s))
                                try:
                                    t = Triangulation(2, (tuple(rows0), tuple(rows1)))
                                except ValueError:
                                    continue
                                sk = compute_skeleton(t)
                                if (
                                    sk.vertices == 1
                                    and sk.edges == 3
                                    and orientable(t)
                                    and h1_free_rank(t) >= 1
                                ):
                                    hits.append(t)
    print(f"two-tetrahedron candidates: {len(hits)}")
    for t in hits[:5]:
        print(write_triangulation(t).strip().replace("\n", " | "))


def write_fixtures(loop_sizes=(9, 12, 15, 18)) -> None:
    FIXTURES.mkdir(exist_ok=True)
    (FIXTURES / "gieseking.cone").write_text(GIESEKING_CONE)
    (FIXTURES / "onetet.tri").write_text(ONETET_TRI)
    (FIXTURES / "s2xs1.tri").write_text(S2XS1_TRI)
    for n in loop_sizes:
        path = FIXTURES / f"loop{n}.tri"
        header = (
            f"# Twisted layered loop, n={n}: filtered standard-coordinate count "
            f"{expected_loop_count(n)}.\n"
        )
        path.write_text(header + write_triangulation(twisted_layered_loop(n)))
    print(f"wrote fixtures to {FIXTURES}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--search-loop", action="store_true", help="re-run the loop gluing search")
    parser.add_argument(
        "--search-two-tet", action="store_true", help="re-run the two-tetrahedron search"
    )
    args = parser.parse_args()
    if args.search_loop:
        search_loop()
        return 0
    if args.search_two_tet:
        search_two_tet()
        return 0
    write_fixtures()
    return 0


if __name__ == "__main__":
    sys.exit(main())
