"""Tests for triangulation parsing, skeleta, and matching equations."""

import hashlib
import random
import re
from itertools import combinations
from pathlib import Path

import pytest

from conedd.cone_problem import parse_cone, write_cone
from conedd.errors import ParseError
from conedd.exact_linalg import sparse_row
from conedd.triangulation import (
    Triangulation,
    compute_skeleton,
    parse_triangulation,
    standard_matching_equations,
    twisted_layered_loop,
    write_triangulation,
)
from test_acceptance import random_closed_triangulation

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN_EQUATIONS = Path(__file__).resolve().parent / "data" / "equations"

ONETET = parse_triangulation("1\n0:1023 0:1023 0:0132 0:0132\n")


def test_parse_basic():
    t = parse_triangulation("1\n- - - -\n")
    assert t.n == 1
    assert t.gluings == ((None, None, None, None),)
    assert t.boundary_faces() == 4


def test_parse_fixture_files():
    for name in ("onetet", "s2xs1", "loop9"):
        t = parse_triangulation((FIXTURES / f"{name}.tri").read_text())
        assert t.boundary_faces() == 0


def test_write_roundtrip():
    for t in (ONETET, twisted_layered_loop(5), parse_triangulation("2\n1:0123 - - -\n0:0123 - - -\n")):
        assert parse_triangulation(write_triangulation(t)) == t


def exactly(message):
    """A `match=` pattern for the whole of `message`."""
    return f"^{re.escape(message)}$"


UNMATCHED = "gluing is not matched by its inverse"

# text: the whole message.  Where a text has more than one fault, the
# message names the first in reading order.
PARSE_REJECTIONS = {
    "": "empty triangulation file",
    "x\n": "first line must be the tetrahedron count, got 'x'",
    "-1\n": "tetrahedron count must be non-negative",
    "1\n": "expected 1 gluing lines, found 0",
    "1\n- - - -\n- - - -\n": "expected 1 gluing lines, found 2",
    "1\n- - -\n": "tetrahedron 0: expected 4 face tokens, got 3",
    "2\n- - - -\n- - - - -\n": "tetrahedron 1: expected 4 face tokens, got 5",
    "1\n0:012 - - -\n": "tetrahedron 0 face 0: bad token '0:012'",
    "1\n- - - 0:01234\n": "tetrahedron 0 face 3: bad token '0:01234'",
    "1\n- - 0123 -\n": "tetrahedron 0 face 2: bad token '0123'",
    "1\n- - - 0:01x3\n": "tetrahedron 0 face 3: bad token '0:01x3'",
    "1\nx:0123 - - -\n": "tetrahedron 0 face 0: bad token 'x:0123'",
    "1\n:0123 - - -\n": "tetrahedron 0 face 0: bad token ':0123'",
    "1\n- 0:1:023 - -\n": "tetrahedron 0 face 1: bad token '0:1:023'",
    "2\n1:0123 - - -\n0:0123 - x -\n": "tetrahedron 1 face 2: bad token 'x'",
    "1\n2:0123 - - -\n": "tetrahedron 0 face 0: target 2 out of range",
    "1\n- - -1:0123 -\n": "tetrahedron 0 face 2: target -1 out of range",
    "1\n0:0122 - - -\n": "tetrahedron 0 face 0: not a permutation",
    "1\n0:0123 - - -\n": "tetrahedron 0 face 0: face glued to itself identically",
    "2\n1:0123 - - -\n- - - -\n": f"tetrahedron 0 face 0: {UNMATCHED}",  # partner slot empty
    "2\n1:0123 - - -\n0:1230 - - -\n": f"tetrahedron 0 face 0: {UNMATCHED}",  # not an involution
    "2\n- - - -\n- 0:1230 - -\n": f"tetrahedron 1 face 1: {UNMATCHED}",
    "2\n1:0123 0:0213 0:0213 -\n0:0123 - - 1:0123\n": (
        "tetrahedron 1 face 3: face glued to itself identically"
    ),
}


@pytest.mark.parametrize("text", list(PARSE_REJECTIONS))
def test_parse_errors(text):
    with pytest.raises(ParseError, match=exactly(PARSE_REJECTIONS[text])):
        parse_triangulation(text)


def lone(j, gluing):
    """The gluing rows of one tetrahedron whose only glued face is j."""
    return (tuple(gluing if k == j else None for k in range(4)),)


# id: (n, gluings, the whole message).
CONSTRUCTOR_REJECTIONS = {
    "count-negative": (-1, (), "tetrahedron count must be non-negative"),
    "rows-missing": (2, ((None,) * 4,), "need one gluing row per tetrahedron"),
    "row-short": (2, ((None,) * 4, (None,) * 3), "need one gluing entry per face"),
    "target-range": (1, lone(0, (1, (0, 1, 2, 3))), "tetrahedron 0 face 0: target 1 out of range"),
    "repeated-image": (1, lone(2, (0, (0, 1, 2, 2))), "tetrahedron 0 face 2: not a permutation"),
    "short-perm": (1, lone(1, (0, (0, 1, 2))), "tetrahedron 0 face 1: not a permutation"),
    "perm-as-text": (1, lone(1, (0, "1023")), "tetrahedron 0 face 1: not a permutation"),
    "bad-list": (1, lone(1, (0, [0, 1, 2, 2])), "tetrahedron 0 face 1: not a permutation"),
    # A list can hold a permutation, yet it never equals the tuple that its
    # partner's inverse check builds.
    "list-perm": (
        2,
        (((1, [0, 1, 2, 3]), None, None, None), ((0, (0, 1, 2, 3)), None, None, None)),
        f"tetrahedron 1 face 0: {UNMATCHED}",
    ),
    "list-perm-own-tetrahedron": (
        1,
        (((0, [1, 0, 2, 3]), (0, (1, 0, 2, 3)), None, None),),
        f"tetrahedron 0 face 1: {UNMATCHED}",
    ),
    "self-identity": (
        1,
        lone(3, (0, (0, 1, 2, 3))),
        "tetrahedron 0 face 3: face glued to itself identically",
    ),
    "partner-elsewhere": (
        2,
        (((1, (1, 0, 2, 3)), None, None, None), ((0, (1, 0, 2, 3)), None, None, None)),
        f"tetrahedron 0 face 0: {UNMATCHED}",
    ),
}


@pytest.mark.parametrize(
    "n,gluings,message", CONSTRUCTOR_REJECTIONS.values(), ids=CONSTRUCTOR_REJECTIONS
)
def test_constructor_rejections_name_the_first_bad_item(n, gluings, message):
    with pytest.raises(ValueError, match=exactly(message)):
        Triangulation(n, gluings)


@pytest.mark.parametrize(
    "n,gluings",
    [
        (-1, ()),  # a negative count
        (1, ()),  # a missing row
        (1, ((None, None, None),)),  # three faces
    ],
)
def test_constructor_rejects_bad_shapes(n, gluings):
    with pytest.raises(ValueError):
        Triangulation(n, gluings)


def test_involution_enforced_in_constructor():
    with pytest.raises(ValueError):
        Triangulation(1, (((0, (0, 1, 2, 3)), None, None, None),))


def test_skeleton_unglued_tetrahedron():
    sk = compute_skeleton(parse_triangulation("1\n- - - -\n"))
    assert (sk.faces, sk.edges, sk.vertices) == (4, 6, 4)


def test_skeleton_onetet():
    sk = compute_skeleton(ONETET)
    assert (sk.faces, sk.edges, sk.vertices) == (2, 3, 2)


def test_skeleton_s2xs1():
    t = parse_triangulation((FIXTURES / "s2xs1.tri").read_text())
    sk = compute_skeleton(t)
    assert (sk.faces, sk.edges, sk.vertices) == (4, 3, 1)


def test_skeleton_closed_face_count():
    for n in (4, 7):
        sk = compute_skeleton(twisted_layered_loop(n))
        assert sk.faces == 2 * n
        assert sk.vertices == 1


ONETET_ROWS = (
    (0, 0, 0, 0, 0, -1, 1),
    (0, 0, 0, 0, 0, 1, -1),
    (-1, 1, 0, 0, 0, 0, 0),
    (0, 0, -1, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, -1, 1),
    (0, 0, 0, 0, 0, 1, -1),
)


def test_matching_equations_onetet():
    p = standard_matching_equations(ONETET)
    assert p.dim == 7
    assert p.groups == ((4, 5, 6),)
    assert p.equations == tuple(map(sparse_row, ONETET_ROWS))


def test_matching_equations_dedup():
    p = standard_matching_equations(ONETET, dedup=True)
    assert p.equations == tuple(map(sparse_row, ONETET_ROWS[:4]))


def test_matching_equations_count_and_support():
    """Closed triangulations give 6n rows; every row touches at most two
    tetrahedra, with one triangle and one quadrilateral entry on each side
    (possibly merged when both sides land in the same tetrahedron)."""
    for t in (ONETET, twisted_layered_loop(4)):
        p = standard_matching_equations(t)
        assert len(p.equations) == 6 * t.n
        assert p.dim == 7 * t.n
        assert p.groups == tuple((7 * i + 4, 7 * i + 5, 7 * i + 6) for i in range(t.n))
        for row in p.equations:
            assert len(row) <= 4
            assert all(x in (-2, -1, 1, 2) for x in row.values())


def dense_matching_equations(t, dedup=False):
    """Reference builder: the matching equations as dense 7n-entry rows, in
    the order `standard_matching_equations` gives them.  Each row starts at
    zero and gets +1 at the triangle and quad of the lower side and -1 at
    those of the other, so the entries of a face glued to its own
    tetrahedron add up, and cancel, in place."""

    def quad_offset(a, b):
        pair = {a, b} if 0 in (a, b) else {0, 1, 2, 3} - {a, b}
        return 3 + (pair - {0}).pop()

    rows = []
    for i in range(t.n):
        for j in range(4):
            gluing = t.gluings[i][j]
            if gluing is None:
                continue
            target, perm = gluing
            if (i, j) > (target, perm[j]):
                continue
            face_vertices = [v for v in range(4) if v != j]
            for a1, a2 in combinations(face_vertices, 2):
                c = next(v for v in face_vertices if v not in (a1, a2))
                row = [0] * (7 * t.n)
                row[7 * i + c] += 1
                row[7 * i + quad_offset(c, j)] += 1
                pc, pj = perm[c], perm[j]
                row[7 * target + pc] -= 1
                row[7 * target + quad_offset(pc, pj)] -= 1
                rows.append(tuple(row))
    if dedup:
        rows = list(dict.fromkeys(rows))
    return rows


def test_matching_equations_match_the_dense_reference():
    """Each row is the `sparse_row` of the reference's dense row, with and
    without `dedup`, and its columns ascend: on onetet, whose self-glued
    faces merge and cancel entries, a face folded onto itself, whose first
    row cancels to {}, s2xs1, the loops at n = 3..12 and 20 seeded random
    closed triangulations of 1-5 tetrahedra."""
    rng = random.Random(7)
    triangulations = [
        ONETET,
        parse_triangulation("1\n0:0213 - - -\n"),
        parse_triangulation((FIXTURES / "s2xs1.tri").read_text()),
        *(twisted_layered_loop(n) for n in range(3, 13)),
        *(random_closed_triangulation(1 + index % 5, rng) for index in range(20)),
    ]
    lengths = set()
    for t in triangulations:
        for dedup in (False, True):
            rows = standard_matching_equations(t, dedup=dedup).equations
            assert rows == tuple(map(sparse_row, dense_matching_equations(t, dedup)))
            assert all(list(row) == sorted(row) for row in rows)
            lengths.update(map(len, rows))
    assert lengths == {0, 2, 4}  # rows left whole, partly cancelled and emptied


@pytest.mark.parametrize("name", ["onetet", "s2xs1", "loop9", "loop12"])
def test_matching_equations_match_their_golden_files(name):
    """The cone text of each fixture's matching equations is the committed
    golden file, and each row holds its items in the file's order (columns
    ascending).  onetet glues faces to their own tetrahedron, so its rows
    merge and cancel entries."""
    t = parse_triangulation((FIXTURES / f"{name}.tri").read_text())
    problem = standard_matching_equations(t)
    golden = (GOLDEN_EQUATIONS / f"{name}.cone").read_text()
    assert write_cone(problem) == golden
    items = [list(row.items()) for row in problem.equations]
    assert items == [list(row.items()) for row in parse_cone(golden).equations]


def test_random_matching_equations_are_pinned():
    """A SHA-256 over 40 seeded random closed 8-tetrahedron triangulations'
    problems, with and without `dedup`: dimension, each row's items in order,
    and the groups."""
    rng = random.Random(31)
    digest = hashlib.sha256()
    for _ in range(40):
        t = random_closed_triangulation(8, rng)
        for dedup in (False, True):
            p = standard_matching_equations(t, dedup=dedup)
            digest.update(repr((p.dim, [tuple(r.items()) for r in p.equations], p.groups)).encode())
    assert digest.hexdigest() == "30cf1208ccad7c1e14b1a58d122ab9eed182637f309ac12c5e5ffae9f839564b"


def test_boundary_face_equations_skipped():
    # A single unglued tetrahedron has no internal faces, hence no equations.
    p = standard_matching_equations(parse_triangulation("1\n- - - -\n"))
    assert p.equations == ()
    assert p.dim == 7


def test_loop_constructor_shape():
    t = twisted_layered_loop(5)
    assert t.n == 5
    assert t.boundary_faces() == 0
    with pytest.raises(ValueError):
        twisted_layered_loop(2)


def test_loop_counts_small():
    from conedd.dd_engine import run

    for n, want in ((4, 8), (5, 12)):
        rays, _ = run(standard_matching_equations(twisted_layered_loop(n)))
        assert len(rays) == want
