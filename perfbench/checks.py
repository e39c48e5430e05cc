"""Output checks, run outside the timed region.

Every ray must be admissible (for an unfiltered solve: non-negative and on
every equation, with the group condition skipped) and extreme by the oracle's
rank criterion.  Loop instances must give the closed-form count, and an
unfiltered solve's admissible rays must be exactly the filtered solve's.
Where no closed-form count is known, a second solve by another route must
give the same rays, so that a missing ray shows.  Every vertex link must be
among the rays: it is a vertex normal surface (below), and it is found
without solving, so a fault that both solves share, such as an empty output,
still shows.
"""

from __future__ import annotations

from typing import Optional, Sequence

from conedd import (
    EnumerationProblem,
    OrderingStrategy,
    RunConfig,
    Triangulation,
    admissible,
    run,
    standard_matching_equations,
)
from conedd.oracle import is_extreme

# Another ordering gives other intermediate cones, so the pair loop and its
# witness scans run on other data.  The rank test for adjacency would share
# even less with the default, but it is 100-300x slower on census8 instances;
# full coordinates would skip the final recovery, but double the check's time.
CROSS_CHECK = RunConfig(ordering=OrderingStrategy("lexpos"))


def vertex_links(triangulation: Triangulation) -> list[tuple[int, ...]]:
    """Standard coordinates of each vertex link: one triangle at every corner
    (tetrahedron, vertex) of the vertex's class.

    A link has no quadrilaterals, so it is admissible.  It is extreme: a
    normal surface with no quadrilaterals has its triangle counts constant
    on each vertex class (the matching equations across every face), so any
    two surfaces summing to a link are multiples of it."""
    n = triangulation.n
    parent = list(range(4 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, row in enumerate(triangulation.gluings):
        for j, gluing in enumerate(row):
            if gluing is not None:
                target, perm = gluing
                for v in range(4):
                    if v != j:
                        parent[find(4 * i + v)] = find(4 * target + perm[v])
    links: dict[int, list[int]] = {}
    for corner in range(4 * n):
        coords = links.setdefault(find(corner), [0] * (7 * n))
        coords[7 * (corner // 4) + corner % 4] = 1
    return [tuple(coords) for coords in links.values()]


def check_rays(
    triangulation: Triangulation,
    rays: Sequence[tuple[int, ...]],
    filtering: bool,
    loop_rays: Optional[int],
) -> list[str]:
    """Problems found with one instance's output; empty when it is correct."""
    errors = []
    problem = standard_matching_equations(triangulation)
    cone = problem if filtering else EnumerationProblem(problem.dim, problem.equations, ())
    for coords in rays:
        if not admissible(cone, coords):
            errors.append(f"ray {coords} is not admissible")
        elif not is_extreme(problem, coords):
            errors.append(f"ray {coords} is not extreme")
    kept = [coords for coords in rays if admissible(problem, coords)]
    if not filtering:
        reference, _ = run(problem, RunConfig(filtering=True))
        if kept != [r.coords for r in reference]:
            errors.append("admissible rays differ from the filtered solve")
    if loop_rays is not None and len(kept) != loop_rays:
        errors.append(f"{len(kept)} admissible rays, want {loop_rays}")
    found = set(rays)
    missing = [link for link in vertex_links(triangulation) if link not in found]
    if missing:
        errors.append(f"{len(missing)} vertex links missing from the rays")
    if loop_rays is None and filtering:
        reference, _ = run(problem, CROSS_CHECK)
        if list(rays) != [r.coords for r in reference]:
            errors.append("rays differ from the cross-check solve (lexpos ordering)")
    return errors
