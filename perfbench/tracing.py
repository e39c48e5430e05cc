"""Spans around the calls into each layer of `conedd`, taken from outside the program.

`run` looks up `step`, `recover`, `nullspace_generator`, `order_static` and
`choose_dynamic` in the `conedd.dd_engine` namespace each time it calls them,
so replacing those module globals with timing wrappers traces every stage,
every final recovery and its nullspace solve without touching the program.
Pair counts come from `run`'s public `pair_audit` hook.  The spans around
parsing, the matching equations, `run` itself and `write_rays` are opened by
the benchmark where it makes those calls.

Spans are kept in memory and written out when the run ends.  Each records a
name, start and end (seconds from `time.perf_counter`), the index of its
parent span, the instance it belongs to, and attributes.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from conedd import dd_engine

WRAPPED = ("step", "recover", "nullspace_generator", "order_static", "choose_dynamic")
SPAN_NAMES = {
    "recover": "recover",
    "nullspace_generator": "nullspace_generator",
    "order_static": "order",
    "choose_dynamic": "order",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    instance: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder for one traced pass; also the `pair_audit` hook."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = -1
        self.tested = 0
        self.adjacent = 0
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.instance, attrs))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index].end = end

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        index = self.open(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def pair_audit(self, processed_count: int, sep_before: int, zero_count: int, adjacent: bool) -> None:
        self.tested += 1
        if adjacent:
            self.adjacent += 1

    def _timed(self, fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def _timed_step(self, step: Callable) -> Callable:
        def wrapper(state, k, pair_audit=None):
            tested, adjacent = self.tested, self.adjacent
            index = self.open("stage", hyperplane=k, v_in=len(state.vertices))
            try:
                out = step(state, k, pair_audit=pair_audit)
            finally:
                self.close(index)
            self.spans[index].attrs.update(
                v_out=len(out.vertices),
                pairs=out.stats.pair_counts[-1],
                tested=self.tested - tested,
                adjacent=self.adjacent - adjacent,
            )
            return out

        return wrapper


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Swap the engine's module globals for traced wrappers; always restore them."""
    originals = {name: getattr(dd_engine, name) for name in WRAPPED}
    try:
        for name, fn in originals.items():
            if name == "step":
                setattr(dd_engine, name, tracer._timed_step(fn))
            else:
                setattr(dd_engine, name, tracer._timed(fn, SPAN_NAMES[name]))
        yield
    finally:
        for name, fn in originals.items():
            setattr(dd_engine, name, fn)


def engine_globals() -> dict[str, Callable]:
    return {name: getattr(dd_engine, name) for name in WRAPPED}


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def stage_identity_errors(spans: list[Span]) -> list[tuple[int, str]]:
    """(instance, problem) for each identity the traced counters break."""
    errors = []
    final_v: dict[int, int] = {}
    recovers: dict[int, int] = {}
    for s in spans:
        if s.name == "stage":
            a = s.attrs
            if a["v_out"] - a["adjacent"] < 0:
                errors.append((s.instance, f"stage {a['hyperplane']}: |V_out| < adjacent"))
            if a["tested"] > a["pairs"]:
                errors.append((s.instance, f"stage {a['hyperplane']}: tested > pairs"))
            final_v[s.instance] = a["v_out"]
        elif s.name == "recover":
            recovers[s.instance] = recovers.get(s.instance, 0) + 1
    for instance, count in final_v.items():
        if recovers.get(instance, 0) != count:
            errors.append((instance, f"{recovers.get(instance, 0)} recover calls, final |V| {count}"))
    return errors


COUNTERS = (
    "triangulation.rows",
    "dd_engine.stages",
    "dd_engine.pairs",
    "dd_engine.pairs_tested",
    "dd_engine.pairs_adjacent",
    "dd_engine.witness_bound",
    "dd_engine.max_vi",
    "dd_engine.sum_vi",
    "dd_engine.mem_proxy_bytes",
    "dd_engine.recover_calls",
    "exact_linalg.nullspace_calls",
    "cone_problem.rays",
)

TIMES = (
    "triangulation.parse_s",
    "triangulation.equations_s",
    "ordering.order_s",
    "dd_engine.step_s",
    "dd_engine.stage_tail_s",
    "dd_engine.recover_s",
    "exact_linalg.nullspace_s",
    "dd_engine.run_self_s",
    "cone_problem.write_rays_s",
)

UNITS = {name: "s" for name in TIMES}
UNITS.update({name: "count" for name in COUNTERS})
UNITS.update({
    "dd_engine.mem_proxy_bytes": "B",
    "dd_engine.pair_yield": "ratio",
    "trace.overhead": "ratio",
    "host.probe_s": "s",
})

# Span name -> (time metric of its summed self time, call-count metric or None).
SELF_TIMES = {
    "parse": ("triangulation.parse_s", None),
    "equations": ("triangulation.equations_s", None),
    "order": ("ordering.order_s", None),
    "stage": ("dd_engine.step_s", "dd_engine.stages"),
    "recover": ("dd_engine.recover_s", "dd_engine.recover_calls"),
    "nullspace_generator": ("exact_linalg.nullspace_s", "exact_linalg.nullspace_calls"),
    "run": ("dd_engine.run_self_s", None),
    "write_rays": ("cone_problem.write_rays_s", None),
}


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over every instance of one traced pass."""
    out: dict[str, float] = {name: 0 for name in COUNTERS + TIMES}
    for span, own in zip(spans, self_seconds(spans)):
        metric = SELF_TIMES.get(span.name)
        if metric is not None:
            out[metric[0]] += own
            if metric[1] is not None:
                out[metric[1]] += 1
        a = span.attrs
        if span.name == "stage":
            out["dd_engine.stage_tail_s"] = max(out["dd_engine.stage_tail_s"], span.seconds)
            out["dd_engine.pairs"] += a["pairs"]
            out["dd_engine.pairs_tested"] += a["tested"]
            out["dd_engine.pairs_adjacent"] += a["adjacent"]
            out["dd_engine.witness_bound"] += a["tested"] * a["v_in"]
        elif span.name == "equations":
            out["triangulation.rows"] += a["rows"]
        elif span.name == "run":
            out["dd_engine.max_vi"] = max(out["dd_engine.max_vi"], a["max_vi"])
            out["dd_engine.sum_vi"] += a["sum_vi"]
            out["dd_engine.mem_proxy_bytes"] = max(out["dd_engine.mem_proxy_bytes"], a["mem_proxy_bytes"])
        elif span.name == "write_rays":
            out["cone_problem.rays"] += a["rays"]
    return out


def solve_seconds(spans: list[Span]) -> float:
    """Traced counterpart of the untraced solve time: `run` plus `write_rays`."""
    return sum(s.seconds for s in spans if s.name in ("run", "write_rays"))


def summarize(passes: list[list[Span]]) -> tuple[dict[str, float], list[str]]:
    """Counters from the first pass, times as medians over the passes.

    Returns the metrics and a list of problems: counters that differ
    between passes, which would mean the program is not deterministic.
    """
    per_pass = [pass_metrics(spans) for spans in passes]
    first = per_pass[0]
    errors = [
        f"counter {name} differs between traced passes"
        for name in COUNTERS
        if any(m[name] != first[name] for m in per_pass[1:])
    ]
    out = {name: first[name] for name in COUNTERS}
    for name in TIMES:
        out[name] = statistics.median(m[name] for m in per_pass)
    pairs = first["dd_engine.pairs"]
    out["dd_engine.pair_yield"] = first["dd_engine.pairs_adjacent"] / pairs if pairs else 0.0
    return out, errors


def write_spans(path, passes: list[list[Span]]) -> None:
    """One JSON object per line; `parent` indexes spans of the same pass."""
    with open(path, "w") as handle:
        for number, spans in enumerate(passes):
            for index, s in enumerate(spans):
                record = {
                    "pass": number,
                    "index": index,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "instance": s.instance,
                }
                record.update(s.attrs)
                handle.write(json.dumps(record) + "\n")
