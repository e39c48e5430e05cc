"""Tests for the brute-force enumeration oracle."""

from pathlib import Path

import pytest

from conedd import oracle
from conedd.cone_problem import EnumerationProblem, parse_cone
from conedd.errors import LimitError
from conedd.exact_linalg import sparse_row
from conedd.oracle import brute_force_filtered, brute_force_rays, is_extreme

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GIESEKING = parse_cone((FIXTURES / "gieseking.cone").read_text())


def test_orthant_rays_are_unit_vectors():
    p = EnumerationProblem(dim=3, equations=(), groups=())
    rays = brute_force_rays(p)
    assert [r.coords for r in rays] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_single_equation_diagonal():
    p = EnumerationProblem(dim=2, equations=(sparse_row((1, -1)),), groups=())
    rays = brute_force_rays(p)
    assert [r.coords for r in rays] == [(1, 1)]


def test_gieseking_unfiltered():
    rays = brute_force_rays(GIESEKING)
    assert [r.coords for r in rays] == [(0, 0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 0, 0, 0)]


def test_gieseking_filtered():
    rays = brute_force_filtered(GIESEKING)
    assert [r.coords for r in rays] == [(1, 1, 1, 1, 0, 0, 0)]


def test_filtered_can_be_empty():
    # The only extreme ray is (1, 1, 1), which has three nonzero coordinates
    # in the single group, so filtering removes everything.
    equations = (sparse_row((1, -1, 0)), sparse_row((0, 1, -1)))
    p = EnumerationProblem(dim=3, equations=equations, groups=((0, 1, 2),))
    assert [r.coords for r in brute_force_rays(p)] == [(1, 1, 1)]
    assert brute_force_filtered(p) == []


def test_is_extreme():
    assert is_extreme(GIESEKING, (1, 1, 1, 1, 0, 0, 0))
    # An interior point of the cone (sum of the two extreme rays) is not extreme.
    assert not is_extreme(GIESEKING, (1, 1, 1, 1, 1, 1, 1))


def test_dimension_limit(monkeypatch):
    p = EnumerationProblem(dim=15, equations=(), groups=())
    with pytest.raises(LimitError):
        brute_force_rays(p)
    monkeypatch.setattr(oracle, "MAX_DIM", 15)
    assert len(brute_force_rays(p)) == 15
