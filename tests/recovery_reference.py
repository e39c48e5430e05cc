"""Reference coordinate recovery: one restricted elimination per ray.

This is how `conedd.dd_engine.recover` worked before it read the rays off
one reduced row echelon form per run.  It restricts every equation to the
columns outside the zero set (`restrict`, its own copy) and asks
`nullspace_generator` for the one generator of what is left, so it shares
no helper with the engine, and no code path with the kernel recovery
beyond the row reduction itself.
"""

from conedd.dd_engine import Ray, recover
from conedd.errors import InternalError
from conedd.exact_linalg import nullspace_generator


def restrict(rows, mask, dim):
    """The rows restricted to the columns outside `mask`, and those columns.

    A restricted row keeps the entries whose mask bit is clear, with its
    columns renumbered by their position among the free columns; rows left
    empty are dropped.
    """
    free_cols = [j for j in range(dim) if not mask >> j & 1]
    column = {j: i for i, j in enumerate(free_cols)}
    restricted = []
    for row in rows:
        r = {column[j]: x for j, x in row.items() if not mask >> j & 1}
        if r:
            restricted.append(r)
    return restricted, free_cols


def reference_recover(problem, mask):
    """Coordinates of the unique ray whose zero set is `mask`; raises
    `InternalError` when the solution space of the equations restricted to
    the other columns is not one line, or its generator is not positive on
    every one of them."""
    d = problem.dim
    if mask >> d:
        raise InternalError("zero set has bits outside the problem dimension")
    restricted, free_cols = restrict(problem.equations, mask, d)
    gen = nullspace_generator(restricted, len(free_cols))
    if gen is None:
        raise InternalError("recovery system does not have a one-dimensional solution space")
    if min(gen) <= 0:
        raise InternalError("recovered vector does not match its zero set")
    coords = [0] * d
    for col, value in zip(free_cols, gen):
        coords[col] = value
    return Ray(tuple(coords))


def outcome(fn, *args):
    """`fn(*args)`, or the `InternalError` class if it raised one."""
    try:
        return fn(*args)
    except InternalError:
        return InternalError


def check_against_reference(problem, masks, kernel=None):
    """`recover` with `kernel` (a whole-problem kernel when None) gives, for
    each mask, the same `Ray` as the reference, or both raise
    `InternalError`.  Returns the number of masks that gave a ray."""
    rays = 0
    for mask in masks:
        want = outcome(reference_recover, problem, mask)
        assert outcome(recover, problem, mask, kernel) == want, bin(mask)
        rays += want is not InternalError
    return rays
