#!/usr/bin/env python3
"""Benchmark for conedd: seeded workloads solved through the public API.

Run from the repository root:

    python3 perfbench/run.py --workload loop12 --seed 0 --seconds 20 --trace 0

One process, one caller, a closed loop: each instance is solved after the
previous one finishes, and a pass solves every instance of the workload once.
Passes repeat until `--seconds` is used up (at least two, so that the output
of one pass can be compared byte for byte with another).  Outputs are checked
after the timed passes.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; the lines before it say the
same for a reader.

With `--trace 0` the metrics are the end-to-end ones (see BENCHMARK.json).
With `--trace 1` untraced and traced passes alternate, and the metrics are the
per-layer ones from the traced passes plus the tracing overhead; the spans are
written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
import time
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "conedd" / "__init__.py").is_file():
    sys.exit(f"error: no conedd sources at {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import conedd  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

SETUP_BLOCK_S = 0.5
SETUP_BLOCK_MIN_REPS = 4
SETUP_SLICE_S = 0.03
# Set-up is reported as seconds at this probe time: about the probe's median
# on a 2-core Intel Xeon VM with CPython 3.11.7.  Raw seconds are printed too.
PROBE_REFERENCE_S = 0.026
PROBE_EVERY_S = 0.15
PROBE_WINDOW = 15
PROBE_ROWS = 40
PROBE_COLUMNS = 44
# (pairs kept, bits of the last pivot): anything else means the probe's work changed.
PROBE_RESULT = (359, 125)

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_rel": "ratio",
    "instance_p50_rel": "ratio",
    "peak_rss_mb": "MiB",
}


class ReferenceProbe:
    """A fixed stdlib loop shaped like the engine's two hot spots: a pair
    loop (bitmask intersections, a witness scan, a small integer
    combination) and a fraction-free elimination whose entries grow past
    a hundred bits, as in the final recovery.  A solve divided by the
    probes taken between its own stages is steadier on a shared host than
    either alone."""

    def __init__(self) -> None:
        rng = random.Random(20100101)
        self.masks = [rng.getrandbits(84) | rng.getrandbits(84) for _ in range(600)]
        self.vectors = [{j: rng.randrange(-99, 100) for j in range(24)} for _ in range(600)]
        self.matrix = [[rng.randrange(1, 8) for _ in range(PROBE_COLUMNS)] for _ in range(PROBE_ROWS)]

    def __call__(self) -> float:
        masks, vectors = self.masks, self.vectors
        start = time.perf_counter()
        kept = 0
        for i in range(6):
            u, up = masks[i], vectors[i]
            for m in range(120, 180):
                w = masks[m]
                inter = u & w
                if inter.bit_count() < 36:
                    continue
                for z in masks:
                    if z & inter == inter and z != u and z != w:
                        break
                else:
                    wp = vectors[m]
                    g = 0
                    for x in (3 * wp[j] - 5 * v for j, v in up.items()):
                        g = gcd(g, x)
                    kept += g > 0
        rows = [row[:] for row in self.matrix]
        prev = 1
        for col, top in enumerate(rows):
            pivot = top[col]
            for row in rows[col + 1:]:
                f = row[col]
                for j in range(col + 1, PROBE_COLUMNS):
                    row[j] = (pivot * row[j] - f * top[j]) // prev
                row[col] = 0
            prev = pivot
        elapsed = time.perf_counter() - start
        if (kept, prev.bit_length()) != PROBE_RESULT:
            raise RuntimeError(f"reference probe gave {(kept, prev.bit_length())}, want {PROBE_RESULT}")
        return elapsed


def max_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """Highest of p50..p99.9 with at least ten samples above it (nearest rank);
    the median, labelled p50, when there are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    best = ("p50", statistics.median(ordered))
    for label, p in (("p75", 75), ("p90", 90), ("p95", 95), ("p99", 99), ("p99.9", 99.9)):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            best = (label, ordered[rank - 1])
    return best


class Runner:
    """Solves one workload's instances and keeps what the checks need."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.probe = ReferenceProbe()
        self.config = conedd.RunConfig(filtering=workload.filtering)
        count = len(workload.texts)
        self.problems: list = []
        self.first: list = [None] * count  # (rays, text) of the first untraced solve
        self.solves = [0] * count
        self.failed_solves = [0] * count
        self.bad_instance = [False] * count
        self.errors: list[str] = []
        self.probes: list[float] = [self.probe()]  # so the first solve has a reference
        self._last_probe = 0.0
        self._probing_s = 0.0
        self.notes: list[str] = []

    def setup(self) -> float:
        """Seconds from input text to `EnumerationProblem`, for every instance."""
        start = time.perf_counter()
        problems = [
            conedd.standard_matching_equations(conedd.parse_triangulation(text))
            for text in self.workload.texts
        ]
        elapsed = time.perf_counter() - start
        self.problems = problems
        return elapsed

    def setup_block(self) -> list[tuple[float, float]]:
        """Set-ups repeated for SETUP_BLOCK_S in slices of SETUP_SLICE_S with
        a probe between slices: (seconds, seconds relative to the mean of
        the probes on either side of its slice) for each set-up."""
        probes = [self.probe()]
        out = []
        start = time.perf_counter()
        while len(out) < SETUP_BLOCK_MIN_REPS or time.perf_counter() - start < SETUP_BLOCK_S:
            times = []
            slice_start = time.perf_counter()
            while not times or time.perf_counter() - slice_start < SETUP_SLICE_S:
                times.append(self.setup())
            probes.append(self.probe())
            reference = (probes[-2] + probes[-1]) / 2
            out += [(t, t / reference) for t in times]
        self.probes += probes
        return out

    def fail_instance(self, index: int, message: str) -> None:
        self.bad_instance[index] = True
        self.errors.append(f"instance {index}: {message}")

    def _record(self, index: int, rays, text) -> None:
        """Count one solve; its text must match the instance's first text."""
        self.solves[index] += 1
        if text is None:
            self.failed_solves[index] += 1
        elif self.first[index] is None:
            self.first[index] = (rays, text)
        elif self.first[index][1] != text:
            self.failed_solves[index] += 1
            self.errors.append(f"instance {index}: ray text differs from the first solve")

    def _probe_hook(self, _state) -> None:
        """`run`'s stage hook: runs the reference probe between stages once
        PROBE_EVERY_S has gone by since the last one."""
        now = time.perf_counter()
        if now - self._last_probe >= PROBE_EVERY_S:
            self.probes.append(self.probe())
            self._last_probe = time.perf_counter()
            self._probing_s += self._last_probe - now

    def solve_pass(self) -> list[tuple[float, float]]:
        """Untraced pass: (seconds, seconds relative to the probe) per instance.

        The probe runs inside `run` between stages; its time is taken off the
        solve, and each solve is divided by the median of the probes taken
        during it, or of the last PROBE_WINDOW probes if that is more."""
        config = self.config
        out = []
        self._last_probe = time.perf_counter()
        for index, problem in enumerate(self.problems):
            self._probing_s = 0.0
            first_probe = len(self.probes)
            start = time.perf_counter()
            try:
                rays, _ = conedd.run(problem, config, stage_hook=self._probe_hook)
                text = conedd.write_rays(r.coords for r in rays)
            except Exception as exc:  # a failed solve is counted; the run goes on
                rays, text = None, None
                self.errors.append(f"instance {index}: {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start - self._probing_s
            nearby = self.probes[max(0, min(first_probe, len(self.probes) - PROBE_WINDOW)):]
            out.append((elapsed, elapsed / statistics.median(nearby)))
            self._record(index, rays, text)
        return out

    def traced_pass(self, tracer) -> None:
        """Instance -> setup (parse, equations) -> run -> write_rays, each a span."""
        config = self.config
        for index, source in enumerate(self.workload.texts):
            tracer.instance = index
            rays = text = None
            with tracer.span("instance"):
                try:
                    with tracer.span("setup"):
                        with tracer.span("parse"):
                            triangulation = conedd.parse_triangulation(source)
                        with tracer.span("equations") as span:
                            problem = conedd.standard_matching_equations(triangulation)
                            span.attrs["rows"] = len(problem.equations)
                    with tracer.span("run") as span:
                        rays, stats = conedd.run(problem, config, pair_audit=tracer.pair_audit)
                        span.attrs.update(
                            max_vi=stats.max_vertex_count,
                            sum_vi=sum(stats.sizes),
                            mem_proxy_bytes=stats.peak_mem_bytes,
                        )
                    with tracer.span("write_rays") as span:
                        text = conedd.write_rays(r.coords for r in rays)
                        span.attrs["rays"] = len(rays)
                except Exception as exc:  # a failed solve is counted; the run goes on
                    text = None
                    self.errors.append(f"instance {index} (traced): {type(exc).__name__}: {exc}")
            self._record(index, rays, text)

    def check_outputs(self) -> None:
        """Content checks on each instance's first output, outside any timing."""
        workload = self.workload
        for index, (text, first) in enumerate(zip(workload.texts, self.first)):
            if first is None:
                self.fail_instance(index, "no output")
                continue
            try:
                problems = checks.check_rays(
                    conedd.parse_triangulation(text),
                    [r.coords for r in first[0]],
                    workload.filtering,
                    workload.loop_rays,
                )
            except Exception as exc:  # a check that cannot run is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            for message in problems[:5]:
                self.fail_instance(index, message)

    @property
    def attempted(self) -> int:
        return sum(self.solves)

    @property
    def failed(self) -> int:
        return sum(
            solves if bad else failed
            for solves, failed, bad in zip(self.solves, self.failed_solves, self.bad_instance)
        )


def measure(runner: Runner, seconds: float) -> dict[str, float]:
    """End-to-end metrics from untraced passes filling `seconds`.

    On a shared 2-core host the speed of the whole process was seen to
    drift by up to 1.7x within seconds, so raw seconds differed that much
    between runs.  The gated solve metrics are therefore relative to the
    reference probe run between the stages of the same solves; the raw
    seconds are printed beside them.  Set-up repeats run in blocks between
    the passes, with probes between their slices, and `setup_s` is their
    median relative to those probes, scaled to PROBE_REFERENCE_S.

    `peak_rss_mb` is the growth of the process's peak resident set from just
    before the first set-up to the end of the first pass: the problems plus
    the solving working set.  Solving alone adds under 1 MiB on census8,
    within the allocator's granularity, so it is not measured apart."""
    rss_before = max_rss_kib()
    runner.setup()
    deadline = time.perf_counter() + seconds
    passes = []
    setups = []
    while len(passes) < 2 or time.perf_counter() + pass_wall <= deadline:
        pass_start = time.perf_counter()
        passes.append(runner.solve_pass())
        pass_wall = time.perf_counter() - pass_start
        if len(passes) == 1:
            rss_peak = max_rss_kib()
        setups += runner.setup_block()
    # One sample per instance, the median of its solves over the passes, so
    # that the tail counts distinct instances rather than repeats of one.
    instances = range(len(runner.problems))
    raw = [statistics.median(p[i][0] for p in passes) for i in instances]
    relative = [statistics.median(p[i][1] for p in passes) for i in instances]
    tail_label, tail_rel = tail_percentile(relative)
    runner.notes += [
        f"{len(passes)} passes of {len(raw)} instances, {len(setups)} set-ups, "
        f"{len(runner.probes)} probes (median {statistics.median(runner.probes):.6g} s)",
        f"raw set-up seconds, not gated: {statistics.median(t for t, _ in setups):.6g} s",
        f"raw seconds, not gated: solve_s = {statistics.median(sum(t for t, _ in p) for p in passes):.6g} s, "
        f"instance_p50_s = {statistics.median(raw):.6g} s, instance_tail_s = {tail_percentile(raw)[1]:.6g} s",
        f"not gated: instance_tail_rel = {tail_rel:.6g} ratio",
        f"instance tail is the {tail_label} of {len(raw)} instances, each the median of its {len(passes)} solves",
    ]
    return {
        "setup_s": statistics.median(r for _, r in setups) * PROBE_REFERENCE_S,
        "solve_rel": statistics.median(sum(r for _, r in p) for p in passes),
        "instance_p50_rel": statistics.median(relative),
        "peak_rss_mb": (rss_peak - rss_before) / 1024,
    }


def measure_traced(runner: Runner, seconds: float, spans_path: Path) -> dict[str, float]:
    """Per-layer metrics: untraced and traced passes alternate for `seconds`."""
    runner.setup()
    originals = tracing.engine_globals()
    untraced: list[float] = []
    traced: list[list] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + cycle <= deadline:
        cycle_start = time.perf_counter()
        untraced.append(sum(t for t, _ in runner.solve_pass()))
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            runner.traced_pass(tracer)
        traced.append(tracer.spans)
        cycle = time.perf_counter() - cycle_start
    everywhere = range(len(runner.problems))
    if tracing.engine_globals() != originals:
        for index in everywhere:
            runner.fail_instance(index, "traced engine globals were not restored")
    metrics, errors = tracing.summarize(traced)
    for message in errors:
        for index in everywhere:
            runner.fail_instance(index, message)
    for spans in traced:
        for index, message in tracing.stage_identity_errors(spans):
            runner.fail_instance(index, message)
    traced_solve = statistics.median(tracing.solve_seconds(spans) for spans in traced)
    metrics["trace.overhead"] = traced_solve / statistics.median(untraced)
    metrics["host.probe_s"] = statistics.median(runner.probes)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(spans_path, traced)
    runner.notes += [
        f"{len(untraced)} untraced and {len(traced)} traced passes",
        f"traced solve {traced_solve:.6f} s, untraced {statistics.median(untraced):.6f} s",
        f"spans written to {spans_path}",
    ]
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="loop12, census8 or nofilter6")
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 is the committed loop12 fixture")
    parser.add_argument("--seconds", type=float, default=20.0, help="time to spend in measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 for the traced per-layer run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    runner = Runner(make_workload(args.workload, args.seed))
    if args.trace:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        metrics = measure_traced(runner, args.seconds, spans_path)
        units = tracing.UNITS
    else:
        metrics = measure(runner, args.seconds)
        units = END_TO_END_UNITS
    runner.check_outputs()

    attempted, failed = runner.attempted, runner.failed
    print(f"conedd benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in runner.notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} solves failed a check)")
    for message in runner.errors[:20]:
        print(f"  error: {message}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
