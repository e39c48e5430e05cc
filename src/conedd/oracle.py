"""Brute-force extreme-ray enumeration for small instances.

Independent ground truth for the engine: scan coordinate subsets, solve for
one-dimensional nullspaces, keep non-negative generators, then discard
non-extreme rays by the rank criterion.  Exponential in the dimension, so
dimensions above `MAX_DIM` are refused: at d <= 14 at most 2^14 = 16,384
subsets are scanned.
"""

from __future__ import annotations

from itertools import combinations

from .cone_problem import EnumerationProblem, admissible
from .dd_engine import Ray
from .errors import LimitError
from .exact_linalg import nullspace_generator, rank

MAX_DIM = 14


def is_extreme(problem: EnumerationProblem, coords) -> bool:
    """Rank criterion: equations plus the facets through the ray span d-1 dims."""
    rows = list(problem.equations)
    rows.extend({j: 1} for j, x in enumerate(coords) if x == 0)
    return rank(rows) == problem.dim - 1


def brute_force_rays(problem: EnumerationProblem) -> list[Ray]:
    """All extreme rays of {v >= 0, M v = 0}, sorted lexicographically."""
    d = problem.dim
    if d > MAX_DIM:
        raise LimitError(f"dimension {d} exceeds the oracle limit {MAX_DIM}")
    base = list(problem.equations)
    # Smaller zero sets cannot pin down a one-dimensional nullspace.
    min_size = max(0, d - 2 - rank(base))
    candidates: set = set()
    for size in range(min_size, d + 1):
        for subset in combinations(range(d), size):
            rows = base + [{j: 1} for j in subset]
            gen = nullspace_generator(rows, d)
            if gen is None or any(x < 0 for x in gen):
                continue
            candidates.add(gen)
    out = []
    for coords in sorted(candidates):
        if is_extreme(problem, coords):
            out.append(Ray(coords))
    return out


def brute_force_filtered(problem: EnumerationProblem) -> list[Ray]:
    """Extreme rays that also satisfy the group constraints."""
    return [r for r in brute_force_rays(problem) if admissible(problem, r.coords)]
