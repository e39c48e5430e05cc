"""Exact extreme-ray enumeration for cones with per-group support constraints,
with a triangulation front end producing normal-surface matching equations."""

from .cone_problem import (
    EnumerationProblem,
    admissible,
    parse_cone,
    parse_rays,
    write_cone,
    write_rays,
)
from .dd_engine import Ray, RunConfig, RunStats, recover, run
from .oracle import brute_force_filtered, brute_force_rays
from .ordering import (
    OrderingStrategy,
    choose_dynamic,
    order_static,
    parse_strategy,
    strategy_label,
)
from .triangulation import (
    Skeleton,
    Triangulation,
    compute_skeleton,
    parse_triangulation,
    standard_matching_equations,
    twisted_layered_loop,
    write_triangulation,
)

__version__ = "0.1.0"

__all__ = [
    "EnumerationProblem",
    "OrderingStrategy",
    "Ray",
    "RunConfig",
    "RunStats",
    "Skeleton",
    "Triangulation",
    "__version__",
    "admissible",
    "brute_force_filtered",
    "brute_force_rays",
    "choose_dynamic",
    "compute_skeleton",
    "order_static",
    "parse_cone",
    "parse_rays",
    "parse_strategy",
    "parse_triangulation",
    "recover",
    "run",
    "standard_matching_equations",
    "strategy_label",
    "twisted_layered_loop",
    "write_cone",
    "write_rays",
    "write_triangulation",
]
