"""Tests of the benchmark itself: inputs, traced counters, checks and contract.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import conedd  # noqa: E402
import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CENSUS_TETRAHEDRA,
    WORKLOADS,
    census_texts,
    loop_ray_count,
    loop_text,
    make_workload,
    Workload,
)

# ROADMAP baseline for loop12 under the default configuration.
LOOP12_BASELINE = {
    "dd_engine.pairs": 777_310,
    "dd_engine.pairs_tested": 73_366,
    "dd_engine.pairs_adjacent": 11_103,
    "dd_engine.max_vi": 1_585,
    "cone_problem.rays": 323,
}


def content_lines(text: str) -> list[str]:
    return [s for s in (line.split("#", 1)[0].strip() for line in text.splitlines()) if s]


def traced(name: str, seed: int) -> tuple[list[tracing.Span], bench.Runner]:
    runner = bench.Runner(make_workload(name, seed))
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        runner.traced_pass(tracer)
    return tracer.spans, runner


@pytest.fixture(scope="module")
def loop12_seed0():
    return [traced("loop12", 0) for _ in range(2)]


def test_loop12_seed0_is_the_fixture():
    fixture = (ROOT / "fixtures" / "loop12.tri").read_text()
    assert content_lines(loop_text(12, 0)) == content_lines(fixture)


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_loop_relabellings_are_valid_and_distinct(seed):
    text = loop_text(12, seed)
    t = conedd.parse_triangulation(text)
    assert t.n == 12 and t.boundary_faces() == 0
    assert text != loop_text(12, 0)
    assert loop_text(12, seed) == text


def test_census_instances_are_closed_connected_and_seeded():
    texts = census_texts(5, count=6)
    assert texts == census_texts(5, count=6)
    assert texts != census_texts(6, count=6)
    for text in texts:
        t = conedd.parse_triangulation(text)
        assert t.n == CENSUS_TETRAHEDRA and t.boundary_faces() == 0
        linked = {0}
        for _ in range(t.n):
            linked |= {g[0] for i in linked for g in t.gluings[i]}
        assert linked == set(range(t.n))


def test_loop_ray_count_formula():
    assert loop_ray_count(12) == 323
    assert loop_ray_count(6) == 19


def test_loop12_seed0_counters_match_the_baseline(loop12_seed0):
    metrics, errors = tracing.summarize([spans for spans, _ in loop12_seed0])
    assert errors == []
    assert {name: metrics[name] for name in LOOP12_BASELINE} == LOOP12_BASELINE


def test_counters_identical_across_traced_runs_and_relabellings(loop12_seed0):
    (first, _), (second, _) = loop12_seed0
    relabelled, _ = traced("loop12", 9)
    counters = [tracing.pass_metrics(spans) for spans in (first, second, relabelled)]
    for name in tracing.COUNTERS:
        assert counters[0][name] == counters[1][name] == counters[2][name], name


def test_stage_identities(loop12_seed0):
    spans, _ = loop12_seed0[0]
    assert tracing.stage_identity_errors(spans) == []
    stages = [s for s in spans if s.name == "stage"]
    assert all(s.attrs["v_out"] >= s.attrs["adjacent"] for s in stages)
    assert all(s.attrs["tested"] <= s.attrs["pairs"] for s in stages)
    recovers = sum(1 for s in spans if s.name == "recover")
    assert recovers == stages[-1].attrs["v_out"] == 323


def test_span_tree_and_self_times(loop12_seed0):
    spans, _ = loop12_seed0[0]
    names = {s.name: s for s in spans}
    parent = {s.name: spans[s.parent].name if s.parent is not None else None for s in spans}
    assert parent == {
        "instance": None,
        "setup": "instance",
        "parse": "setup",
        "equations": "setup",
        "run": "instance",
        "order": "run",
        "stage": "run",
        "recover": "run",
        "nullspace_generator": "recover",
        "write_rays": "instance",
    }
    assert names["run"].attrs["max_vi"] == 1585
    assert all(own >= -1e-6 for own in tracing.self_seconds(spans))


def test_traced_text_matches_untraced():
    runner = bench.Runner(make_workload("nofilter6", 4))
    runner.setup()
    runner.solve_pass()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        runner.traced_pass(tracer)
    runner.check_outputs()
    assert runner.attempted == 2 and runner.failed == 0, runner.errors


def test_a_dropped_census_ray_fails_the_run():
    census = make_workload("census8", 0)
    runner = bench.Runner(Workload(census.name, census.texts[:4], census.filtering, census.loop_rays))
    runner.setup()
    runner.solve_pass()
    index = next(i for i, (rays, _) in enumerate(runner.first) if len(rays) >= 2)
    rays, text = runner.first[index]
    runner.first[index] = (rays[1:], text)
    runner.check_outputs()
    assert runner.bad_instance == [i == index for i in range(4)]
    assert any("cross-check" in message for message in runner.errors)
    assert runner.failed == 1


def test_wrapped_globals_are_restored_after_an_error():
    before = tracing.engine_globals()
    with pytest.raises(RuntimeError):
        with tracing.instrumented(tracing.Tracer()):
            assert tracing.engine_globals() != before
            raise RuntimeError("boom")
    assert tracing.engine_globals() == before


def test_checks_reject_wrong_output():
    triangulation = conedd.parse_triangulation(loop_text(6, 0))
    problem = conedd.standard_matching_equations(triangulation)
    rays = [r.coords for r in conedd.run(problem)[0]]
    assert checks.check_rays(triangulation, rays, True, loop_ray_count(6)) == []
    summed = tuple(a + b for a, b in zip(rays[0], rays[1]))
    assert checks.check_rays(triangulation, rays[1:] + [summed], True, None)
    assert checks.check_rays(triangulation, rays[1:], True, loop_ray_count(6))
    unfiltered = [r.coords for r in conedd.run(problem, conedd.RunConfig(filtering=False))[0]]
    assert checks.check_rays(triangulation, unfiltered, False, loop_ray_count(6)) == []
    admissible = [c for c in unfiltered if conedd.admissible(problem, c)]
    dropped = [c for c in unfiltered if c != admissible[0]]
    assert checks.check_rays(triangulation, dropped, False, None)


def test_vertex_links_are_found_and_their_absence_fails():
    for text in census_texts(8, count=5) + [loop_text(6, 2)]:
        triangulation = conedd.parse_triangulation(text)
        links = checks.vertex_links(triangulation)
        assert links and all(set(link) == {0, 1} for link in links)
        assert sum(sum(link) for link in links) == 4 * triangulation.n
        rays = {r.coords for r in conedd.run(conedd.standard_matching_equations(triangulation))[0]}
        assert set(links) <= rays
    errors = checks.check_rays(triangulation, [], True, None)
    assert any("vertex links missing" in message for message in errors)


def test_setup_block_is_relative_to_the_probes_around_it():
    runner = bench.Runner(make_workload("loop12", 0))
    probes = len(runner.probes)
    block = runner.setup_block()
    assert len(block) >= bench.SETUP_BLOCK_MIN_REPS
    around = runner.probes[probes:]
    references = [(a + b) / 2 for a, b in zip(around, around[1:])]
    assert len(references) >= 2
    assert all(any(rel == pytest.approx(t / ref) for ref in references) for t, rel in block)


def test_tail_percentile():
    assert bench.tail_percentile([3.0, 1.0, 2.0]) == ("p50", 2.0)
    samples = [float(i) for i in range(1, 101)]
    assert bench.tail_percentile(samples) == ("p90", 90.0)
    assert bench.tail_percentile(samples * 3)[0] == "p95"


def test_benchmark_json_matches_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_untraced_run_prints_the_result_last(capsys):
    assert bench.main(["--workload", "nofilter6", "--seed", "2", "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loop12", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
