"""Seeded benchmark inputs: triangulation texts and the run settings for each workload.

The inputs are built here, without calling into `conedd`, so that a change
to the program cannot change what the benchmark feeds it.  A triangulation
is `n` rows of four gluings; gluing `(t, p)` on face `j` of tetrahedron `i`
sends vertex `v` of `i` to vertex `p[v]` of `t` (the text format of
`conedd.triangulation`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

Perm = tuple[int, int, int, int]
Gluing = Optional[tuple[int, Perm]]
Gluings = list[list[Gluing]]

IDENTITY: Perm = (0, 1, 2, 3)
REVERSAL: Perm = (3, 2, 1, 0)

# Twisted layered loop: faces 0 and 3 of tetrahedron i glue to i + 1 by the
# chain maps, and tetrahedron n - 1 closes onto 0 by the twist maps.
CHAIN_A: Perm = (1, 0, 2, 3)
CHAIN_B: Perm = (0, 1, 3, 2)
TWIST_A: Perm = (2, 3, 1, 0)
TWIST_B: Perm = (3, 2, 0, 1)

CENSUS_TETRAHEDRA = 8
CENSUS_BATCH = 160


def invert(p: Perm) -> Perm:
    inv = [0, 0, 0, 0]
    for i, image in enumerate(p):
        inv[image] = i
    return tuple(inv)


def compose(outer: Perm, inner: Perm) -> Perm:
    """The permutation v -> outer[inner[v]]."""
    return tuple(outer[inner[v]] for v in range(4))


def fib(k: int) -> int:
    """F(0) = F(1) = 1."""
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def loop_ray_count(n: int) -> int:
    """Admissible extreme rays of the n-tetrahedron twisted layered loop."""
    return fib(n - 1) + 2 * fib(n - 2) + 1


def _glue(rows: Gluings, i: int, j: int, target: int, perm: Perm) -> None:
    rows[i][j] = (target, perm)
    rows[target][perm[j]] = (i, invert(perm))


def loop_gluings(n: int) -> Gluings:
    if n < 3:
        raise ValueError("loops need at least 3 tetrahedra")
    rows: Gluings = [[None] * 4 for _ in range(n)]
    for i in range(n - 1):
        _glue(rows, i, 0, i + 1, CHAIN_A)
        _glue(rows, i, 3, i + 1, CHAIN_B)
    _glue(rows, n - 1, 0, 0, TWIST_A)
    _glue(rows, n - 1, 3, 0, TWIST_B)
    return rows


def relabel(rows: Gluings, tet_perm: list[int], vertex_perms: list[Perm]) -> Gluings:
    """Isomorphic copy: tetrahedron i becomes tet_perm[i], and its vertex v
    becomes vertex_perms[i][v]; each gluing map is conjugated to match."""
    n = len(rows)
    out: Gluings = [[None] * 4 for _ in range(n)]
    for i, row in enumerate(rows):
        tau_i = vertex_perms[i]
        for j, gluing in enumerate(row):
            if gluing is None:
                continue
            target, perm = gluing
            new_perm = compose(vertex_perms[target], compose(perm, invert(tau_i)))
            out[tet_perm[i]][tau_i[j]] = (tet_perm[target], new_perm)
    return out


def loop_relabelling(n: int, rng: random.Random) -> tuple[list[int], list[Perm]]:
    """A rotation of the tetrahedron labels and, per tetrahedron, the identity
    or the vertex reversal.  These relabellings leave the engine's work (the
    position ordering, every |V_i| and pair count) unchanged, so seeds vary
    the labels without varying the amount of work.  A general relabelling
    changes the ordering and with it the work on loop12 by up to 2x between
    seeds, which would swamp any change a later program makes."""
    shift = rng.randrange(n)
    tet_perm = [(i + shift) % n for i in range(n)]
    vertex_perms = [rng.choice((IDENTITY, REVERSAL)) for _ in range(n)]
    return tet_perm, vertex_perms


def loop_text(n: int, seed: int) -> str:
    """Seed 0 is the loop as built (the committed loop12 fixture for n = 12);
    any other seed is an isomorphic relabelling of it."""
    rows = loop_gluings(n)
    if seed != 0:
        rows = relabel(rows, *loop_relabelling(n, random.Random(f"loop{n}:{seed}")))
    return write_gluings(rows)


def _connected(rows: Gluings) -> bool:
    seen = {0}
    todo = [0]
    while todo:
        i = todo.pop()
        for gluing in rows[i]:
            if gluing is not None and gluing[0] not in seen:
                seen.add(gluing[0])
                todo.append(gluing[0])
    return len(seen) == len(rows)


def random_closed_gluings(n: int, rng: random.Random) -> Gluings:
    """A connected closed triangulation: a uniform random pairing of the 4n
    faces, each pair glued by a random map sending face to face; disconnected
    draws are rejected and drawn again."""
    while True:
        faces = [(i, j) for i in range(n) for j in range(4)]
        rng.shuffle(faces)
        rows: Gluings = [[None] * 4 for _ in range(n)]
        for (i, j), (t, k) in zip(faces[0::2], faces[1::2]):
            others = [v for v in range(4) if v != j]
            images = [v for v in range(4) if v != k]
            rng.shuffle(images)
            perm = [0, 0, 0, 0]
            perm[j] = k
            for v, image in zip(others, images):
                perm[v] = image
            _glue(rows, i, j, t, tuple(perm))
        if _connected(rows):
            return rows


def census_texts(seed: int, count: int = CENSUS_BATCH, n: int = CENSUS_TETRAHEDRA) -> list[str]:
    rng = random.Random(f"census{n}:{seed}")
    return [write_gluings(random_closed_gluings(n, rng)) for _ in range(count)]


def write_gluings(rows: Gluings) -> str:
    lines = [str(len(rows))]
    for row in rows:
        tokens = []
        for gluing in row:
            if gluing is None:
                tokens.append("-")
            else:
                target, perm = gluing
                tokens.append(f"{target}:{''.join(map(str, perm))}")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    texts: tuple[str, ...]
    filtering: bool
    # Admissible ray count every instance must give, when known in closed form.
    loop_rays: Optional[int]


def make_workload(name: str, seed: int) -> Workload:
    if name == "loop12":
        return Workload(name, (loop_text(12, seed),), True, loop_ray_count(12))
    if name == "census8":
        return Workload(name, tuple(census_texts(seed)), True, None)
    if name == "nofilter6":
        return Workload(name, (loop_text(6, seed),), False, loop_ray_count(6))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("loop12", "census8", "nofilter6")
