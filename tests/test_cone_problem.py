"""Tests for problem definitions and the text formats."""

import re
from pathlib import Path

import pytest

from conedd.cone_problem import (
    EnumerationProblem,
    admissible,
    parse_cone,
    parse_rays,
    write_cone,
    write_rays,
)
from conedd.errors import ParseError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GIESEKING = parse_cone((FIXTURES / "gieseking.cone").read_text())


def test_gieseking_fixture_shape():
    assert GIESEKING.dim == 7
    assert len(GIESEKING.equations) == 5
    assert GIESEKING.equations[0] == {5: -1, 6: 1}
    assert GIESEKING.groups == ((4, 5, 6),)


def test_parse_ignores_comments_and_blanks():
    text = "# header\n\n2 1\n1 -1\n\n# trailing\ngroups 1\n0 1\n"
    p = parse_cone(text)
    assert p.dim == 2 and p.equations == ({0: 1, 1: -1},) and p.groups == ((0, 1),)


def test_parse_no_groups():
    p = parse_cone("3 1\n1 -1 0\ngroups 0\n")
    assert p.groups == ()


def test_roundtrip():
    for p in (GIESEKING, parse_cone("3 2\n1 -1 0\n0 1 -1\ngroups 0\n")):
        assert parse_cone(write_cone(p)) == p


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 -1\ngroups 0\n",
        "-1 0\ngroups 0\n",  # a negative dimension
        "2 1\n1 -1\nfoo 0\n",  # no 'groups k' line
        "2 1\n1 -1 0\ngroups 0\n",
        "2 1\n1 -1\ngroups 1\n",
        "2 1\n1 -1\ngroups 1\n0 2\n",
        "2 2\n1 -1\ngroups 0\n",
        "2 1\n1 x\ngroups 0\n",
        "2 1\n1 -1\n",
        "2 1\n1 -1\ngroups 0\nextra\n",
        "2 1\n1\ngroups 0\n",  # a short equation line
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_cone(text)


def test_problem_validation():
    with pytest.raises(ValueError):
        EnumerationProblem(dim=2, equations=({2: 1},), groups=())
    with pytest.raises(ValueError):
        EnumerationProblem(dim=3, equations=(), groups=((0, 3),))
    with pytest.raises(ValueError):
        EnumerationProblem(dim=3, equations=(), groups=((1, 0),))
    with pytest.raises(ValueError):
        EnumerationProblem(dim=4, equations=(), groups=((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        EnumerationProblem(dim=-1, equations=(), groups=())
    with pytest.raises(ValueError):
        EnumerationProblem(dim=3, equations=(), groups=((),))


@pytest.mark.parametrize(
    "row",
    [
        (1, -1, 0),  # a dense row
        [1, -1, 0],
        {0: 1, 1: 0},  # a zero value
        {-1: 1, 0: 1},  # a negative column
        {0: 1, 3: -1},  # a column >= dim
    ],
)
def test_problem_refuses_rows_that_are_not_sparse_rows(row):
    """Rows are `{column: non-zero value}` dicts over range(dim)."""
    with pytest.raises(ValueError):
        EnumerationProblem(dim=3, equations=({0: 1, 2: -1}, row), groups=())


# id: (dim, equations, groups, the whole message).  Where an input has more
# than one fault, the message names the first: the rows come before the
# groups, each row is judged by every rule before the next row, and each
# group's indices are judged in order, by range and then against the
# groups before it.
PROBLEM_REJECTIONS = {
    "dim-negative": (-1, (), (), "dimension must be non-negative"),
    "list-row": (3, ({0: 1}, [1, 0, 0]), (), "equation 1 is not a {column: value} dict"),
    "column-high": (3, ({0: 1}, {1: 1}, {3: 1}), (), "equation 2 has a column outside range(3)"),
    "column-negative": (3, ({-1: 1},), (), "equation 0 has a column outside range(3)"),
    "zero-value": (3, ({0: 1}, {1: 0, 2: 1}), (), "equation 1 holds a zero value"),
    "first-bad-row": (3, ({0: 1}, {1: 1, 2: 0}, (1, 0, 0)), (), "equation 1 holds a zero value"),
    "first-rule": (3, ({0: 1}, {5: 0}), (), "equation 1 has a column outside range(3)"),
    "rows-first": (3, ({0: 1}, {5: 1}), ((),), "equation 1 has a column outside range(3)"),
    "group-empty": (3, (), ((0,), ()), "empty constraint group"),
    "group-unsorted": (3, (), ((1, 0),), "group indices must be strictly increasing"),
    "group-repeat": (3, (), ((0,), (1, 1)), "group indices must be strictly increasing"),
    "index-high": (3, (), ((0, 1), (2, 3)), "group index 3 out of range"),
    "index-negative": (3, (), ((-1, 0),), "group index -1 out of range"),
    "overlap": (4, (), ((0, 1), (1, 2)), "groups must be pairwise disjoint"),
    "overlap-before-range": (4, (), ((0, 1), (1, 5)), "groups must be pairwise disjoint"),
    "range-before-overlap": (4, (), ((0, 1), (2, 5), (2,)), "group index 5 out of range"),
    "first-bad-group": (4, (), ((0, 1), (2, 1), ()), "group indices must be strictly increasing"),
    "index-before-later-group": (4, (), ((0, 9), ()), "group index 9 out of range"),
}


@pytest.mark.parametrize(
    "dim,equations,groups,message", PROBLEM_REJECTIONS.values(), ids=PROBLEM_REJECTIONS
)
def test_problem_rejections_name_the_first_bad_item(dim, equations, groups, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EnumerationProblem(dim, equations, groups)


def test_problem_accepts_an_empty_row():
    p = EnumerationProblem(dim=3, equations=({}, {1: 2}), groups=())
    assert p.equations == ({}, {1: 2})
    assert write_cone(p) == "3 2\n0 0 0\n0 2 0\ngroups 0\n"


def test_parse_and_write_keep_rows_sparse_and_lines_dense():
    """`parse_cone` keeps each line's non-zeros as a `{column: value}` row,
    columns ascending; `write_cone` writes the dense lines back."""
    text = "4 2\n0 3 0 -2\n0 0 0 0\ngroups 1\n1 2\n"
    p = parse_cone(text)
    assert p.equations == ({1: 3, 3: -2}, {})
    assert [list(row) for row in p.equations] == [[1, 3], []]
    assert write_cone(p) == text
    fixture = (FIXTURES / "gieseking.cone").read_text()
    assert write_cone(GIESEKING) == "".join(
        line + "\n" for line in fixture.splitlines() if not line.startswith("#")
    )


def test_admissible():
    assert admissible(GIESEKING, (1, 1, 1, 1, 0, 0, 0))
    assert not admissible(GIESEKING, (1, 1, 1, 1, 0, 0, 1))  # fails an equation
    assert not admissible(GIESEKING, (-1, -1, -1, -1, 0, 0, 0))  # negative entry
    # (0,0,0,0,1,1,1) satisfies all five equations but has three nonzero
    # coordinates in the quadrilateral group.
    assert not admissible(GIESEKING, (0, 0, 0, 0, 1, 1, 1))
    with pytest.raises(ValueError):
        admissible(GIESEKING, (1, 1))


def test_rays_roundtrip():
    rays = [(1, 1, 0), (0, 0, 2)]
    text = write_rays(rays)
    back = parse_rays(text)
    assert back == [(0, 0, 2), (1, 1, 0)]  # sorted on write
    assert text.splitlines()[0] == "# rays 2"
    assert parse_rays("# rays 2\n1 1 0\n\n0 0 2\n") == [(1, 1, 0), (0, 0, 2)]  # a blank line


def test_write_rays_writes_every_int_as_str_does():
    """Coordinates from the small-int table and from `str` give the same
    text: negative ones, the table's edges and ones past 2^64."""
    rays = [(0, 1, 63, 64, 2**64, 2**64 + 1), (-1, -63, -64, -(2**70), 255, 3**50)]
    assert write_rays(rays) == "".join(
        line + "\n" for line in ["# rays 2", *(" ".join(map(str, r)) for r in sorted(rays))]
    )


def test_parse_rays_errors():
    with pytest.raises(ParseError):
        parse_rays("1 2 3\n")  # missing header
    with pytest.raises(ParseError):
        parse_rays("# rays 2\n1 2 3\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_rays("# rays 2\n1 2 3\n1 2\n")  # ragged rows
