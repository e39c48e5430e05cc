"""Command-line surface: enumerate, equations, verify, oracle, bench.

Exit codes: 0 success, 1 input error, 2 internal error, 3 verification
failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from itertools import product
from pathlib import Path
from typing import Optional, Sequence

from .cone_problem import (
    EnumerationProblem,
    admissible,
    parse_cone,
    parse_rays,
    write_cone,
    write_rays,
)
from .dd_engine import RunConfig, RunStats, run
from .errors import InternalError, LimitError, ParseError
from .oracle import brute_force_filtered, brute_force_rays, is_extreme
from .ordering import OrderingStrategy, parse_strategy, strategy_label
from .triangulation import parse_triangulation, standard_matching_equations

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_VERIFY = 3

BENCH_COLUMNS = (
    "instance",
    "coords",
    "order",
    "adjacency",
    "rep",
    "filter",
    "prefilter",
    "time_ms",
    "peak_mem_bytes",
    "max_vi",
    "final_count",
    "sep_g",
    "status",
)

_MATRIX_KEYS = ("order", "adjacency", "rep", "filter", "prefilter")
_MATRIX_DEFAULTS = {
    "order": ["position"],
    "adjacency": ["comb"],
    "rep": ["inner"],
    "filter": ["on"],
    "prefilter": ["extended"],
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise ParseError(message)


def _read_text(path: str) -> str:
    return Path(path).read_text()


def _write_or_print(text: str, path: Optional[str]) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_problem(path: str, as_triangulation: bool, dedup: bool) -> EnumerationProblem:
    text = _read_text(path)
    if as_triangulation:
        return standard_matching_equations(parse_triangulation(text), dedup=dedup)
    return parse_cone(text)


def _coords_label(path: str, as_triangulation: bool) -> str:
    return "standard" if (as_triangulation or path.endswith(".tri")) else "cone"


def _bench_row(
    instance: str,
    coords: str,
    config: RunConfig,
    stats: Optional[RunStats],
    status: str,
) -> dict:
    row = {
        "instance": instance,
        "coords": coords,
        "order": strategy_label(config.ordering),
        "adjacency": config.adjacency,
        "rep": config.representation,
        "filter": "on" if config.filtering else "off",
        "prefilter": config.dim_prefilter,
        "time_ms": "",
        "peak_mem_bytes": "",
        "max_vi": "",
        "final_count": "",
        "sep_g": "",
        "status": status,
    }
    if stats is not None:
        row.update(
            time_ms=f"{stats.elapsed_s * 1000.0:.3f}",
            peak_mem_bytes=stats.peak_mem_bytes,
            max_vi=stats.max_vertex_count,
            final_count=stats.final_count,
            sep_g=stats.stages[-1].sep if stats.stages else 0,
        )
    return row


def _write_csv(rows: Sequence[dict], path: str) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=BENCH_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    Path(path).write_text(buffer.getvalue())


def cmd_enumerate(args: argparse.Namespace) -> int:
    problem = _load_problem(args.input, args.tri, args.dedup)
    config = RunConfig(
        ordering=parse_strategy(args.order),
        adjacency=args.adjacency,
        representation=args.rep,
        filtering=not args.no_filter,
        dim_prefilter=args.prefilter,
    )
    rays, stats = run(problem, config)
    _write_or_print(write_rays([r.coords for r in rays]), args.output)
    if args.stats:
        row = _bench_row(
            Path(args.input).name, _coords_label(args.input, args.tri), config, stats, "ok"
        )
        _write_csv([row], args.stats)
    return EXIT_OK


def cmd_equations(args: argparse.Namespace) -> int:
    problem = standard_matching_equations(
        parse_triangulation(_read_text(args.input)), dedup=args.dedup
    )
    _write_or_print(write_cone(problem), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    problem = parse_cone(_read_text(args.problem))
    rays = parse_rays(_read_text(args.rays))
    for index, coords in enumerate(rays):
        if len(coords) != problem.dim:
            raise ParseError(
                f"ray {index} has length {len(coords)}, expected {problem.dim}"
            )
        if not admissible(problem, coords):
            print(f"ray {index} is not admissible: {' '.join(map(str, coords))}")
            return EXIT_VERIFY
        if not is_extreme(problem, coords):
            print(f"ray {index} is not extreme: {' '.join(map(str, coords))}")
            return EXIT_VERIFY
    print(f"ok: {len(rays)} rays verified")
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    problem = parse_cone(_read_text(args.input))
    rays = brute_force_filtered(problem) if args.filtered else brute_force_rays(problem)
    _write_or_print(write_rays([r.coords for r in rays]), args.output)
    return EXIT_OK


def _parse_matrix(spec: str) -> list[RunConfig]:
    """Cross product of flag values, e.g. `order=input,position;rep=full,inner`."""
    if not spec.strip():
        return []
    values = dict(_MATRIX_DEFAULTS)
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in _MATRIX_KEYS:
            raise ParseError(f"bad matrix entry {part!r}; keys are {', '.join(_MATRIX_KEYS)}")
        entries = [v.strip() for v in raw.split(",") if v.strip()]
        if not entries:
            raise ParseError(f"matrix key {key!r} has no values")
        values[key] = entries
    configs = []
    for order, adjacency, rep, filtering, prefilter in product(*(values[k] for k in _MATRIX_KEYS)):
        if filtering not in ("on", "off"):
            raise ParseError(f"bad filter value {filtering!r}")
        try:
            configs.append(
                RunConfig(
                    ordering=parse_strategy(order),
                    adjacency=adjacency,
                    representation=rep,
                    filtering=filtering == "on",
                    dim_prefilter=prefilter,
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return configs


def cmd_bench(args: argparse.Namespace) -> int:
    inputs = [p for p in args.input.split(",") if p]
    configs = _parse_matrix(args.matrix)
    rows = []
    failures = 0
    total = 0
    for path in inputs:
        instance = Path(path).name
        as_triangulation = path.endswith(".tri")
        coords = _coords_label(path, as_triangulation)
        try:
            problem = _load_problem(path, as_triangulation, args.dedup)
            problem_error = None
        except (ParseError, OSError, ValueError) as exc:
            problem, problem_error = None, str(exc)
        for config in configs:
            total += 1
            if problem is None:
                rows.append(_bench_row(instance, coords, config, None, f"error: {problem_error}"))
                failures += 1
                continue
            try:
                _, stats = run(problem, config)
                rows.append(_bench_row(instance, coords, config, stats, "ok"))
            except Exception as exc:  # record per-run failures, keep going
                rows.append(_bench_row(instance, coords, config, None, f"error: {exc}"))
                failures += 1
    _write_csv(rows, args.out)
    if total and failures == total:
        return EXIT_INTERNAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conedd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    enum = sub.add_parser("enumerate", help="enumerate extreme rays of a cone")
    enum.add_argument("--input", required=True, help="cone file (or triangulation with --tri)")
    enum.add_argument("--tri", action="store_true", help="treat the input as a triangulation")
    enum.add_argument("--dedup", action="store_true", help="drop duplicate matching equations")
    enum.add_argument(
        "--order", default="position", help="input|position|lexpos|lexrand:<seed>|dynamic"
    )
    enum.add_argument("--adjacency", default="comb", choices=["comb", "alg"])
    enum.add_argument("--rep", default="inner", choices=["full", "inner"])
    enum.add_argument("--no-filter", action="store_true", help="ignore the group constraints")
    enum.add_argument("--prefilter", default="extended", choices=["off", "basic", "extended"])
    enum.add_argument("--stats", default=None, help="write a one-row stats CSV here")
    enum.add_argument("--output", default=None, help="ray output file (default stdout)")
    enum.set_defaults(func=cmd_enumerate)

    eq = sub.add_parser("equations", help="emit the cone file of a triangulation")
    eq.add_argument("--input", required=True, help="triangulation file")
    eq.add_argument("--dedup", action="store_true", help="drop duplicate matching equations")
    eq.add_argument("--output", default=None, help="cone output file (default stdout)")
    eq.set_defaults(func=cmd_equations)

    ver = sub.add_parser("verify", help="check that rays are admissible and extreme")
    ver.add_argument("--problem", required=True, help="cone file")
    ver.add_argument("--rays", required=True, help="ray file")
    ver.set_defaults(func=cmd_verify)

    orc = sub.add_parser("oracle", help="brute-force enumeration for small cones")
    orc.add_argument("--input", required=True, help="cone file")
    orc.add_argument("--filtered", action="store_true", help="apply the group constraints")
    orc.add_argument("--output", default=None, help="ray output file (default stdout)")
    orc.set_defaults(func=cmd_oracle)

    bench = sub.add_parser("bench", help="run a configuration matrix and write a CSV")
    bench.add_argument("--input", required=True, help="comma-separated cone/.tri files")
    bench.add_argument("--matrix", required=True, help="e.g. order=input,position;rep=full,inner")
    bench.add_argument("--dedup", action="store_true", help="drop duplicate matching equations")
    bench.add_argument("--out", required=True, help="CSV output path")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParseError, LimitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
