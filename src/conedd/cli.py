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
from .dd_engine import ADJACENCY_MODES, PREFILTER_MODES, REPRESENTATIONS, RunConfig, RunStats, run
from .errors import InternalError, LimitError, ParseError
from .oracle import brute_force_filtered, brute_force_rays, is_extreme
from .ordering import parse_strategy, strategy_label
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


def _labels(config: RunConfig) -> dict[str, str]:
    """The five run axes of `config` as the CLI spells them, keyed by their
    matrix keys and CSV columns; `_labels(RunConfig())` are the defaults."""
    return {
        "order": strategy_label(config.ordering),
        "adjacency": config.adjacency,
        "rep": config.representation,
        "filter": "on" if config.filtering else "off",
        "prefilter": config.dim_prefilter,
    }


def _config(order: str, adjacency: str, rep: str, filtering: str, prefilter: str) -> RunConfig:
    """The `RunConfig` the five axis values spell, in `_labels`'s terms; a
    bad value raises `ParseError`."""
    if filtering not in ("on", "off"):
        raise ParseError(f"bad filter value {filtering!r}")
    try:
        return RunConfig(parse_strategy(order), adjacency, rep, filtering == "on", prefilter)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_DEFAULTS = _labels(RunConfig())


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A003 - argparse API
        raise ParseError(message)


def _write_or_print(text: str, path: Optional[str]) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_problem(path: str, as_triangulation: bool = False, dedup: bool = False) -> EnumerationProblem:
    """The problem in the file at `path`: a cone file, or the matching
    equations of a triangulation file."""
    text = Path(path).read_text()
    if as_triangulation:
        return standard_matching_equations(parse_triangulation(text), dedup=dedup)
    return parse_cone(text)


def _coords_label(as_triangulation: bool) -> str:
    """The `coords` column: the parser the input was read with."""
    return "standard" if as_triangulation else "cone"


def _bench_row(
    instance: str,
    coords: str,
    config: RunConfig,
    stats: Optional[RunStats],
    status: str,
) -> dict:
    row = dict.fromkeys(BENCH_COLUMNS, "")
    row.update(instance=instance, coords=coords, status=status, **_labels(config))
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
    filtering = "off" if args.no_filter else "on"
    config = _config(args.order, args.adjacency, args.rep, filtering, args.prefilter)
    rays, stats = run(problem, config)
    _write_or_print(write_rays([r.coords for r in rays]), args.output)
    if args.stats:
        row = _bench_row(
            Path(args.input).name, _coords_label(args.tri), config, stats, "ok"
        )
        _write_csv([row], args.stats)
    return EXIT_OK


def cmd_equations(args: argparse.Namespace) -> int:
    problem = _load_problem(args.input, as_triangulation=True, dedup=args.dedup)
    _write_or_print(write_cone(problem), args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    problem = _load_problem(args.problem)
    rays = parse_rays(Path(args.rays).read_text())
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
    problem = _load_problem(args.input)
    rays = brute_force_filtered(problem) if args.filtered else brute_force_rays(problem)
    _write_or_print(write_rays([r.coords for r in rays]), args.output)
    return EXIT_OK


def _parse_matrix(spec: str) -> list[RunConfig]:
    """Cross product of flag values, e.g. `order=input,position;rep=full,inner`."""
    if not spec.strip():
        return []
    values = {key: [value] for key, value in _DEFAULTS.items()}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in _DEFAULTS:
            raise ParseError(f"bad matrix entry {part!r}; keys are {', '.join(_DEFAULTS)}")
        entries = [v.strip() for v in raw.split(",") if v.strip()]
        if not entries:
            raise ParseError(f"matrix key {key!r} has no values")
        values[key] = entries
    return [_config(*combo) for combo in product(*values.values())]


def cmd_bench(args: argparse.Namespace) -> int:
    inputs = [p for p in args.input.split(",") if p]
    configs = _parse_matrix(args.matrix)
    rows = []
    for path in inputs:
        instance = Path(path).name
        as_triangulation = path.endswith(".tri")
        coords = _coords_label(as_triangulation)
        try:
            problem = _load_problem(path, as_triangulation, args.dedup)
        except (ParseError, OSError, ValueError) as exc:
            error = f"error: {exc}"
            rows += [_bench_row(instance, coords, config, None, error) for config in configs]
            continue
        for config in configs:
            try:
                _, stats = run(problem, config)
                rows.append(_bench_row(instance, coords, config, stats, "ok"))
            except Exception as exc:  # record per-run failures, keep going
                rows.append(_bench_row(instance, coords, config, None, f"error: {exc}"))
    _write_csv(rows, args.out)
    if rows and all(row["status"] != "ok" for row in rows):
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
        "--order", default=_DEFAULTS["order"], help="input|position|lexpos|lexrand:<seed>|dynamic"
    )
    enum.add_argument("--adjacency", default=_DEFAULTS["adjacency"], choices=ADJACENCY_MODES)
    enum.add_argument("--rep", default=_DEFAULTS["rep"], choices=REPRESENTATIONS)
    enum.add_argument("--no-filter", action="store_true", help="ignore the group constraints")
    enum.add_argument("--prefilter", default=_DEFAULTS["prefilter"], choices=PREFILTER_MODES)
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
