"""Tests for the command-line interface (driven in-process via main)."""

import csv
from pathlib import Path

import pytest

import conedd.cli as cli
from conedd import dd_engine
from conedd.cli import BENCH_COLUMNS, main
from conedd.cone_problem import parse_cone, parse_rays
from conedd.errors import InternalError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GIESEKING = str(FIXTURES / "gieseking.cone")
ONETET = str(FIXTURES / "onetet.tri")


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_enumerate_stdout(capsys):
    assert main(["enumerate", "--input", GIESEKING]) == 0
    out = capsys.readouterr().out
    assert parse_rays(out) == [(1, 1, 1, 1, 0, 0, 0)]


def test_enumerate_no_filter(capsys):
    assert main(["enumerate", "--input", GIESEKING, "--no-filter"]) == 0
    assert parse_rays(capsys.readouterr().out) == [
        (0, 0, 0, 0, 1, 1, 1),
        (1, 1, 1, 1, 0, 0, 0),
    ]


def test_enumerate_triangulation(capsys):
    assert main(["enumerate", "--input", ONETET, "--tri"]) == 0
    assert parse_rays(capsys.readouterr().out) == [
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0),
    ]


def test_enumerate_output_and_stats(tmp_path):
    rays_path = tmp_path / "rays.txt"
    stats_path = tmp_path / "stats.csv"
    code = main(
        [
            "enumerate",
            "--input",
            GIESEKING,
            "--order",
            "lexrand:11",
            "--output",
            str(rays_path),
            "--stats",
            str(stats_path),
        ]
    )
    assert code == 0
    assert parse_rays(rays_path.read_text()) == [(1, 1, 1, 1, 0, 0, 0)]
    rows = read_csv(stats_path)
    assert len(rows) == 1
    row = rows[0]
    assert tuple(row) == BENCH_COLUMNS
    assert row["instance"] == "gieseking.cone"
    assert row["coords"] == "cone"
    assert row["order"] == "lexrand:11"
    assert row["final_count"] == "1"
    assert row["status"] == "ok"
    assert float(row["time_ms"]) >= 0.0
    assert int(row["peak_mem_bytes"]) > 0


def test_stats_coords_name_the_parser_used(tmp_path):
    """The `coords` column follows `--tri`, not the file name: a cone file
    named `.tri` and read as a cone is labelled `cone`."""
    cone_named_tri = tmp_path / "gieseking.tri"
    cone_named_tri.write_text(Path(GIESEKING).read_text())
    for path, flags, label in ((cone_named_tri, [], "cone"), (ONETET, ["--tri"], "standard")):
        stats_path = tmp_path / "stats.csv"
        assert main(["enumerate", "--input", str(path), *flags, "--stats", str(stats_path)]) == 0
        assert read_csv(stats_path)[0]["coords"] == label


def test_equations_roundtrip(capsys):
    assert main(["equations", "--input", ONETET]) == 0
    problem = parse_cone(capsys.readouterr().out)
    assert problem.dim == 7
    assert len(problem.equations) == 6
    assert main(["equations", "--input", ONETET, "--dedup"]) == 0
    assert len(parse_cone(capsys.readouterr().out).equations) == 4


def test_verify_ok(tmp_path, capsys):
    rays_path = tmp_path / "rays.txt"
    main(["enumerate", "--input", GIESEKING, "--output", str(rays_path)])
    assert main(["verify", "--problem", GIESEKING, "--rays", str(rays_path)]) == 0
    assert "ok: 1 rays verified" in capsys.readouterr().out


def test_verify_rejects_bad_ray(tmp_path, capsys):
    # (1, 1, 0) lies inside the positive orthant cone, not on an edge.
    problem_path = tmp_path / "orthant.cone"
    problem_path.write_text("3 0\ngroups 0\n")
    rays_path = tmp_path / "rays.txt"
    rays_path.write_text("# rays 1\n1 1 0\n")
    assert main(["verify", "--problem", str(problem_path), "--rays", str(rays_path)]) == 3
    assert "not extreme" in capsys.readouterr().out


def test_verify_rejects_inadmissible_ray(tmp_path, capsys):
    rays_path = tmp_path / "rays.txt"
    # Extreme in the full cone but violates the quadrilateral group.
    rays_path.write_text("# rays 1\n0 0 0 0 1 1 1\n")
    assert main(["verify", "--problem", GIESEKING, "--rays", str(rays_path)]) == 3
    assert "not admissible" in capsys.readouterr().out


def test_verify_length_mismatch_is_input_error(tmp_path):
    rays_path = tmp_path / "rays.txt"
    rays_path.write_text("# rays 1\n1 1\n")
    assert main(["verify", "--problem", GIESEKING, "--rays", str(rays_path)]) == 1


@pytest.mark.parametrize("name", ["gieseking", "onetet", "s2xs1"])
def test_oracle_matches_engine(tmp_path, name):
    """The engine equals the brute-force oracle on every fixture within the
    oracle's reach; s2xs1 has d = 14, the oracle's dimension limit."""
    cone = FIXTURES / f"{name}.cone"
    if not cone.exists():
        cone = tmp_path / f"{name}.cone"
        assert main(["equations", "--input", str(FIXTURES / f"{name}.tri"), "--output", str(cone)]) == 0
    a, b = tmp_path / "engine.txt", tmp_path / "oracle.txt"
    assert main(["enumerate", "--input", str(cone), "--output", str(a)]) == 0
    assert main(["oracle", "--input", str(cone), "--filtered", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_oracle_unfiltered(capsys):
    assert main(["oracle", "--input", GIESEKING]) == 0
    assert parse_rays(capsys.readouterr().out) == [
        (0, 0, 0, 0, 1, 1, 1),
        (1, 1, 1, 1, 0, 0, 0),
    ]


def test_oracle_beyond_its_dimension_limit_exits_1(tmp_path, capsys):
    cone = tmp_path / "orthant15.cone"
    cone.write_text("15 0\ngroups 0\n")
    assert main(["oracle", "--input", str(cone)]) == 1
    assert "exceeds the oracle limit 14" in capsys.readouterr().err


def test_bench_matrix(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--input",
            f"{GIESEKING},{ONETET}",
            "--matrix",
            "order=input,position;rep=full,inner",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 2 * 2 * 2  # two instances x two orders x two reps
    assert {r["instance"] for r in rows} == {"gieseking.cone", "onetet.tri"}
    assert {r["coords"] for r in rows} == {"cone", "standard"}
    assert all(r["status"] == "ok" for r in rows)
    gieseking_rows = [r for r in rows if r["instance"] == "gieseking.cone"]
    assert all(r["final_count"] == "1" and r["sep_g"] == "4" for r in gieseking_rows)


def test_bench_empty_matrix_writes_header_only(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--input", GIESEKING, "--matrix", "", "--out", str(out)]) == 0
    assert out.read_text() == ",".join(BENCH_COLUMNS) + "\n"


def test_bench_records_failures_but_continues(tmp_path, monkeypatch):
    """An unreadable input gives one error row per config, in input order
    beside the others' rows, and a run that raises gives an `error:` row;
    either way, one `ok` row keeps the exit code 0."""
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--input",
            f"{GIESEKING},{tmp_path / 'missing.cone'}",
            "--matrix",
            "order=input",
            "--out",
            str(out),
        ]
    )
    assert code == 0  # at least one run succeeded
    rows = read_csv(out)
    assert [r["status"] == "ok" for r in rows] == [True, False]
    assert rows[1]["status"].startswith("error:")
    assert rows[1]["time_ms"] == ""

    inputs = f"{tmp_path / 'missing.cone'},{GIESEKING},{tmp_path / 'bad.tri'},{ONETET}"
    (tmp_path / "bad.tri").write_text("not a triangulation\n")
    matrix = "order=input,position"
    assert main(["bench", "--input", inputs, "--matrix", matrix, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [(r["instance"], r["order"]) for r in rows] == [
        (name, order)
        for name in ("missing.cone", "gieseking.cone", "bad.tri", "onetet.tri")
        for order in ("input", "position")
    ]
    assert [r["status"] == "ok" for r in rows] == [False, False, True, True] * 2
    assert all(r["status"].startswith("error: [Errno 2]") for r in rows[0:2])
    assert all(r["status"].startswith("error: first line") for r in rows[4:6])
    assert all(r["time_ms"] == "" for r in rows[0:2] + rows[4:6])

    real_run = cli.run

    def fails_by_position(problem, config):
        if config.ordering.kind == "position":
            raise InternalError("induced failure")
        return real_run(problem, config)

    monkeypatch.setattr(cli, "run", fails_by_position)
    assert main(["bench", "--input", GIESEKING, "--matrix", matrix, "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [(r["order"], r["status"]) for r in rows] == [
        ("input", "ok"),
        ("position", "error: induced failure"),
    ]
    assert rows[1]["time_ms"] == rows[1]["final_count"] == ""


def test_bench_all_failures_exit_2(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "bench",
            "--input",
            str(tmp_path / "missing.cone"),
            "--matrix",
            "order=input",
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert len(read_csv(out)) == 1


def test_bad_matrix_key_is_input_error(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--input", GIESEKING, "--matrix", "bogus=1", "--out", str(out)])
    assert code == 1


@pytest.mark.parametrize(
    "matrix", ["filter=maybe", "rep=sparse", "prefilter=bogus", "order=lexrand"]
)
def test_bad_matrix_value_is_input_error(tmp_path, matrix):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--input", GIESEKING, "--matrix", matrix, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--input", "/nonexistent/file.cone"],
        ["enumerate", "--input", "x", "--order", "lexrand:notanint"],
        ["enumerate"],
        ["bogus-command"],
        [],
    ],
)
def test_input_errors_exit_1(argv):
    assert main(argv) == 1


def test_internal_error_exit_2(monkeypatch):
    def boom(problem, config):
        raise InternalError("induced failure")

    monkeypatch.setattr(cli, "run", boom)
    assert main(["enumerate", "--input", GIESEKING]) == 2


def test_value_error_inside_the_run_exits_2(monkeypatch, capsys):
    """A ValueError raised by the engine after the input was accepted is a
    broken invariant, not an input error."""

    def zero_generator(rows, ncols):
        raise ValueError("zero nullspace generator")

    monkeypatch.setattr(dd_engine, "nullspace_generator", zero_generator)
    assert main(["enumerate", "--tri", "--input", str(FIXTURES / "s2xs1.tri")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "zero nullspace generator" in err


def test_enumerate_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["enumerate", "--input", GIESEKING, "--order", "lexrand:5", "--output"]
    main(argv + [str(a)])
    main(argv + [str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bench_deterministic_modulo_time(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        main(
            [
                "bench",
                "--input",
                GIESEKING,
                "--matrix",
                "order=input,lexrand:2;prefilter=off,basic,extended",
                "--out",
                str(out),
            ]
        )
        rows = read_csv(out)
        for row in rows:
            row.pop("time_ms")
        outs.append(rows)
    assert outs[0] == outs[1]
