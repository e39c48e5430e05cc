"""Acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL line
(visible with `pytest -s`, or in the captured output on failure).  The n=18
loop instance is opt-in: `pytest -m slow`.
"""

import random
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from conedd import dd_engine
from conedd.cli import main
from conedd.cone_problem import EnumerationProblem, admissible, parse_cone
from conedd.dd_engine import RunConfig, Stage, final_recovery_kernel, prefilter_need, run
from conedd.exact_linalg import sparse_row
from conedd.oracle import brute_force_filtered, brute_force_rays
from conedd.ordering import order_static, parse_strategy
from conedd.triangulation import (
    Triangulation,
    parse_triangulation,
    standard_matching_equations,
    twisted_layered_loop,
    write_triangulation,
)
from recovery_reference import check_against_reference

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GIESEKING = parse_cone((FIXTURES / "gieseking.cone").read_text())

ORDERINGS = ("input", "position", "lexpos", "lexrand:1", "dynamic")
ADJACENCIES = ("comb", "alg")
REPRESENTATIONS = ("full", "inner")
PREFILTERS = ("off", "basic", "extended")


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def random_problem(seed: int) -> EnumerationProblem:
    """Sparse seeded instance: d <= 12, g <= 6, rows with <= 4 nonzeros in
    -2..2, and floor(d/3) disjoint groups of three coordinates."""
    rng = random.Random(seed)
    d = rng.randint(6, 12)
    g = rng.randint(1, 6)
    equations = []
    for _ in range(g):
        row = [0] * d
        for j in rng.sample(range(d), rng.randint(2, 4)):
            row[j] = rng.choice((-2, -1, 1, 2))
        equations.append(sparse_row(row))
    groups = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(d // 3))
    return EnumerationProblem(dim=d, equations=tuple(equations), groups=groups)


RANDOM_SUITE = [random_problem(seed) for seed in range(50)]


def test_gieseking_all_configs_match_oracle():
    """Criterion: filtered engine output equals the brute-force filtered set
    under all 60 configurations, in under 5 seconds."""
    start = time.perf_counter()
    want = [r.coords for r in brute_force_filtered(GIESEKING)]
    failures = []
    tried = 0
    for ordering, adjacency, rep, pre in product(
        ORDERINGS, ADJACENCIES, REPRESENTATIONS, PREFILTERS
    ):
        tried += 1
        cfg = RunConfig(
            ordering=parse_strategy(ordering),
            adjacency=adjacency,
            representation=rep,
            dim_prefilter=pre,
        )
        rays, _ = run(GIESEKING, cfg)
        if [r.coords for r in rays] != want:
            failures.append((ordering, adjacency, rep, pre))
    elapsed = time.perf_counter() - start
    report(
        "gieseking-config-grid",
        tried == 60 and not failures and elapsed < 5.0,
        f"{tried} configs, {len(failures)} mismatches, {elapsed:.2f}s",
    )


def test_random_suite_matches_oracle():
    """Criterion: on 50 seeded random problems the default engine equals the
    oracle exactly, and filtering during the run equals filtering after an
    unfiltered run, in under 60 seconds."""
    start = time.perf_counter()
    mismatches = 0
    for problem in RANDOM_SUITE:
        filtered, _ = run(problem)
        unfiltered, _ = run(problem, RunConfig(filtering=False))
        want_filtered = [r.coords for r in brute_force_filtered(problem)]
        want_unfiltered = [r.coords for r in brute_force_rays(problem)]
        got_filtered = [r.coords for r in filtered]
        if got_filtered != want_filtered:
            mismatches += 1
        if [r.coords for r in unfiltered] != want_unfiltered:
            mismatches += 1
        post_filtered = [r.coords for r in unfiltered if admissible(problem, r.coords)]
        if got_filtered != post_filtered:
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "random-suite-oracle",
        mismatches == 0 and elapsed < 60.0,
        f"50 problems, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_prefilter_never_rejects_adjacent_pairs():
    """Criterion: across the random suite, every compatible pair accepted by
    the combinatorial adjacency test also passes the basic and extended
    prefilter conditions."""
    violations = 0

    def check(problem):
        d = problem.dim

        def audit(processed_count, sep_before, zero_count, adjacent):
            nonlocal violations
            if adjacent:
                for mode in ("basic", "extended"):
                    if zero_count < prefilter_need(mode, processed_count, sep_before, d):
                        violations += 1

        run(problem, RunConfig(dim_prefilter="off"), pair_audit=audit)
        run(problem, RunConfig(dim_prefilter="off", filtering=False), pair_audit=audit)

    check(GIESEKING)
    for problem in RANDOM_SUITE:
        check(problem)
    report("prefilter-safety", violations == 0, f"{violations} violations")


def zero_sets_to(trace):
    """A `stage_hook` appending the sorted zero-set masks of each V_i to
    `trace`.  V_0 is left out: it is the d unit rays under every
    representation."""
    return lambda state: trace.append(sorted(state.masks))


def test_representations_lockstep_on_fixtures():
    """Criterion: Inner and Full produce identical per-stage zero sets and
    final rays on every fixture, and the Inner memory proxy is no larger at
    every stage past V_0 (g < d on all of them)."""
    problems = [("gieseking", GIESEKING)]
    for name in ("onetet", "s2xs1", "loop9"):
        t = parse_triangulation((FIXTURES / f"{name}.tri").read_text())
        problems.append((name, standard_matching_equations(t)))
    bad = []
    for name, problem in problems:
        assert len(problem.equations) < problem.dim
        trace_f, trace_i = [], []
        rays_f, st_f = run(problem, RunConfig(representation="full"), stage_hook=zero_sets_to(trace_f))
        rays_i, st_i = run(problem, RunConfig(representation="inner"), stage_hook=zero_sets_to(trace_i))
        if trace_f != trace_i:
            bad.append(f"{name}: zero-set traces differ")
        if [r.coords for r in rays_f] != [r.coords for r in rays_i]:
            bad.append(f"{name}: final rays differ")
        if any(i.mem_bytes > f.mem_bytes for f, i in zip(st_f.stages, st_i.stages)):
            bad.append(f"{name}: inner memory proxy exceeds full")
    report("representation-crosscheck", not bad, "; ".join(bad) or "4 fixtures")


def random_closed_triangulation(n: int, rng: random.Random) -> Triangulation:
    """A connected closed triangulation of n tetrahedra: a random pairing of
    the 4n faces, each pair glued by a random map sending the vertex opposite
    one face to the vertex opposite the other.  Disconnected draws are
    redrawn."""
    while True:
        faces = [(i, j) for i in range(n) for j in range(4)]
        rng.shuffle(faces)
        rows = [[None] * 4 for _ in range(n)]
        for (i, j), (t, k) in zip(faces[::2], faces[1::2]):
            rest = [v for v in range(4) if v != k]
            rng.shuffle(rest)
            images = iter(rest)
            perm = tuple(k if v == j else next(images) for v in range(4))
            inverse = tuple(perm.index(v) for v in range(4))
            rows[i][j] = (t, perm)
            rows[t][k] = (i, inverse)
        reached, todo = {0}, [0]
        while todo:
            for gluing in rows[todo.pop()]:
                if gluing[0] not in reached:
                    reached.add(gluing[0])
                    todo.append(gluing[0])
        if len(reached) == n:
            return Triangulation(n, tuple(tuple(row) for row in rows))


def test_representations_agree_on_random_closed_triangulations():
    """Criterion: Inner (coordinates recovered from the final zero sets) and
    Full give identical rays on seeded random closed triangulations of 3-5
    tetrahedra, whose recovery systems are census-like rather than loop-like."""
    rng = random.Random(20100)
    bad = []
    for index in range(90):
        t = random_closed_triangulation(3 + index % 3, rng)
        problem = standard_matching_equations(t)
        rays_f, _ = run(problem, RunConfig(representation="full"))
        rays_i, _ = run(problem, RunConfig(representation="inner"))
        if rays_f != rays_i:
            bad.append(f"triangulation {index}: {write_triangulation(t)!r}")
    report("representation-crosscheck-random", not bad, "; ".join(bad) or "90 triangulations")


def test_recovery_matches_the_reference_on_random_closed_triangulations(monkeypatch):
    """Criterion: on the same 90 seeded random closed triangulations, every
    final zero set recovers, from the run's reduced row echelon form, the
    ray the old restrict-and-reduce recovery gives.  Each run has columns
    that are zero on every ray, which that form leaves out, and each keeps
    the input column order without building a second form."""
    built = []
    real = dd_engine.recovery_kernel
    monkeypatch.setattr(dd_engine, "recovery_kernel", lambda *a: built.append(a) or real(*a))
    rng = random.Random(20100)
    bad = []
    for index in range(90):
        problem = standard_matching_equations(random_closed_triangulation(3 + index % 3, rng))
        last = []
        run(problem, stage_hook=lambda s: last.__setitem__(slice(None), s.masks))
        built.clear()
        kernel = final_recovery_kernel(problem, last)
        if not kernel.zeros or len(built) != 1 or check_against_reference(problem, last, kernel) != len(last):
            bad.append(f"triangulation {index}")
    report("recovery-reference-random", not bad, "; ".join(bad) or "90 triangulations")


def test_representations_agree_on_the_unfiltered_loop():
    """Criterion: on the unfiltered n = 6 loop, whose 393 final vertices
    include inadmissible ones, Inner and Full give identical rays."""
    problem = standard_matching_equations(twisted_layered_loop(6))
    rays_f, _ = run(problem, RunConfig(representation="full", filtering=False))
    rays_i, _ = run(problem, RunConfig(representation="inner", filtering=False))
    report("representation-crosscheck-unfiltered", rays_f == rays_i and len(rays_i) == 393)


def test_zero_sets_stay_pairwise_distinct_on_random_closed_triangulations():
    """Criterion: on seeded random closed triangulations of 3-5 tetrahedra,
    under both representations, the zero sets of every V_i are pairwise
    distinct, as bulk elimination assumes; with filtering off too on the
    3-tetrahedron ones, whose unfiltered runs stay small."""
    rng = random.Random(20101)
    bad = []
    for index in range(90):
        n = 3 + index % 3
        problem = standard_matching_equations(random_closed_triangulation(n, rng))
        for representation, filtering in product(("inner", "full"), (True, False)):
            if n > 3 and not filtering:
                continue
            seen = []
            run(
                problem,
                RunConfig(representation=representation, filtering=filtering),
                stage_hook=lambda state: seen.append(state.masks),
            )
            if any(len(set(masks)) != len(masks) for masks in seen):
                bad.append(f"triangulation {index}, {representation}, filtering={filtering}")
    report("distinct-zero-sets-random", not bad, "; ".join(bad) or "90 triangulations")


def census_like_problems() -> list[EnumerationProblem]:
    """20 seeded random closed triangulations of 8 tetrahedra, the size of
    the census8 benchmark's instances."""
    rng = random.Random(20102)
    return [standard_matching_equations(random_closed_triangulation(8, rng)) for _ in range(20)]


def test_census_like_work_counters_are_pinned():
    """Every `Stage` field summed over the `census_like_problems` under the
    default configuration: any change to the pair work, the stage
    bookkeeping or the bytes a stage holds on census-size instances moves a
    sum."""
    sums = dict.fromkeys(Stage._fields, 0)
    rays = initial = 0
    for problem in census_like_problems():
        found, stats = run(problem)
        rays += len(found)
        initial += stats.initial[1]
        for stage in stats.stages:
            for name in Stage._fields:
                sums[name] += getattr(stage, name)
    assert (rays, initial) == (55, 61_600)
    assert sums == dict(
        hyperplane=22_560, s0=40_999, s_pos=9_587, s_neg=17_355, compatible=94_162,
        tested=40_528, bulk=49_235, certified=18_224, sep=22_359, size=66_876,
        mem_bytes=2_346_995,
    )


def reworded(problem: EnumerationProblem, rng: random.Random) -> list[EnumerationProblem]:
    """The same cone twice more: its equation rows in a random order, and
    each row scaled by a random positive integer."""
    rows = list(problem.equations)
    rng.shuffle(rows)
    scales = rng.choices(range(2, 8), k=len(rows))
    scaled = [{j: c * x for j, x in row.items()} for c, row in zip(scales, problem.equations)]
    return [
        EnumerationProblem(problem.dim, tuple(rows), problem.groups),
        EnumerationProblem(problem.dim, tuple(scaled), problem.groups),
    ]


def test_rays_do_not_depend_on_how_the_equations_are_written():
    """Criterion: permuting the equation rows, or scaling them by positive
    integers, leaves the rays unchanged, beyond the oracle's reach too.
    Either can move the order in which hyperplanes are processed, as both
    do on loop9 under `lexrand`, and with it the positions of the vertices
    of each stage, the witnesses bulk elimination takes and the pairs it
    removes.  Checked on loop9 under `position` and `lexrand` seeds 1-3, and
    on 20 seeded random closed triangulations of 5 and 6 tetrahedra."""
    rng = random.Random(20103)
    bad = []
    loop9 = standard_matching_equations(parse_triangulation((FIXTURES / "loop9.tri").read_text()))
    want, _ = run(loop9)
    for ordering in ("position", "lexrand:1", "lexrand:2", "lexrand:3"):
        config = RunConfig(ordering=parse_strategy(ordering))
        for index, problem in enumerate([loop9, *reworded(loop9, rng)]):
            if run(problem, config)[0] != want:
                bad.append(f"loop9 {ordering}, variant {index}")
    for index in range(20):
        problem = standard_matching_equations(random_closed_triangulation(5 + index % 2, rng))
        want, _ = run(problem)
        for variant, other in enumerate(reworded(problem, rng)):
            if run(other)[0] != want:
                bad.append(f"triangulation {index}, variant {variant}")
    report("equations-reworded", not bad, "; ".join(bad) or "loop9 and 20 triangulations")


def test_position_ordering_reproduces_input_order():
    """Criterion: position-vector ordering on the Gieseking rows returns them
    in their printed order, with the support-tied rows 2 and 3 kept in input
    order."""
    perm = order_static(GIESEKING, parse_strategy("position"))
    tied = GIESEKING.equations[2].keys() == GIESEKING.equations[3].keys()
    report(
        "position-ordering",
        perm == (0, 1, 2, 3, 4) and tied,
        f"perm={perm}, rows 2/3 share a support pattern: {tied}",
    )


def fib(k: int) -> int:
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def loop_count_from_fixture(n: int) -> tuple[int, float]:
    t = parse_triangulation((FIXTURES / f"loop{n}.tri").read_text())
    assert t == twisted_layered_loop(n)
    start = time.perf_counter()
    rays, _ = run(standard_matching_equations(t))
    return len(rays), time.perf_counter() - start


@pytest.mark.parametrize("n,budget", [(9, 300.0), (12, 300.0), (15, 300.0)])
def test_twisted_layered_loop_counts(n, budget):
    """Criterion: the n-tetrahedron twisted layered loop fixture yields
    F(n-1) + 2 F(n-2) + 1 filtered rays within the time budget (1,365 for
    n = 15)."""
    want = fib(n - 1) + 2 * fib(n - 2) + 1
    got, elapsed = loop_count_from_fixture(n)
    report(
        f"loop-count-n{n}",
        got == want and elapsed < budget,
        f"{got} rays (want {want}), {elapsed:.1f}s",
    )


def test_loop12_solve_peak_stays_small():
    """Criterion: the loop12 solve allocates at most 520 KiB at its peak
    (`tracemalloc`).  With one signed-byte value store a stage it peaks at
    424 KiB on CPython 3.11, and with a list of ints a row it peaked at
    796 KiB, so a return to per-row lists fails; the margin is for the
    allocators of other Python versions."""
    problem = standard_matching_equations(parse_triangulation((FIXTURES / "loop12.tri").read_text()))
    tracemalloc.start()
    try:
        rays, _ = run(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rays) == 323
    assert peak < 520 * 1024, f"{peak / 1024:.0f} KiB"


@pytest.mark.slow
@pytest.mark.parametrize("n,budget", [(18, 600.0)])
def test_twisted_layered_loop_counts_large(n, budget):
    """Optional large instance: n = 18 (5,779 rays) takes about a minute on
    a 2-core VM, and must finish within the budget."""
    want = fib(n - 1) + 2 * fib(n - 2) + 1
    got, elapsed = loop_count_from_fixture(n)
    report(
        f"loop-count-n{n}",
        got == want and elapsed < budget,
        f"{got} rays (want {want}), {elapsed:.0f}s",
    )


def test_determinism(tmp_path):
    """Criterion: identical inputs, flags, and seeds give byte-identical ray
    files and identical CSV rows once the time column is dropped."""
    gieseking = str(FIXTURES / "gieseking.cone")
    loop9 = str(FIXTURES / "loop9.tri")
    ray_files = []
    csv_rows = []
    for tag in ("a", "b"):
        rays_path = tmp_path / f"rays-{tag}.txt"
        csv_path = tmp_path / f"bench-{tag}.csv"
        assert (
            main(
                [
                    "enumerate",
                    "--input",
                    gieseking,
                    "--order",
                    "lexrand:9",
                    "--output",
                    str(rays_path),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "bench",
                    "--input",
                    f"{gieseking},{loop9}",
                    "--matrix",
                    "order=input,lexrand:9;rep=full,inner;prefilter=off,extended",
                    "--out",
                    str(csv_path),
                ]
            )
            == 0
        )
        ray_files.append(rays_path.read_bytes())
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        time_col = header.index("time_ms")
        csv_rows.append(
            [tuple(v for i, v in enumerate(line.split(",")) if i != time_col) for line in lines]
        )
    ok = ray_files[0] == ray_files[1] and csv_rows[0] == csv_rows[1]
    report("determinism", ok, f"{len(csv_rows[0]) - 1} bench rows compared")
