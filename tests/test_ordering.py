"""Tests for hyperplane ordering strategies."""

import random

import pytest

from conedd.cone_problem import parse_cone
from conedd.ordering import (
    OrderingStrategy,
    choose_dynamic,
    order_static,
    parse_strategy,
    strategy_label,
)
from conedd.triangulation import standard_matching_equations, twisted_layered_loop
from test_acceptance import RANDOM_SUITE, random_closed_triangulation

GIESEKING = parse_cone(
    "7 5\n"
    "0 0 0 0 0 -1 1\n"
    "0 1 0 -1 -1 1 0\n"
    "0 -1 1 0 1 0 -1\n"
    "0 -1 1 0 -1 0 1\n"
    "1 0 -1 0 1 -1 0\n"
    "groups 1\n"
    "4 5 6\n"
)


def test_parse_strategy():
    assert parse_strategy("input") == OrderingStrategy("input", None)
    assert parse_strategy("position") == OrderingStrategy("position", None)
    assert parse_strategy("lexpos") == OrderingStrategy("lexpos", None)
    assert parse_strategy("dynamic") == OrderingStrategy("dynamic", None)
    assert parse_strategy("lexrand:17") == OrderingStrategy("lexrand", 17)


@pytest.mark.parametrize("text", ["", "bogus", "lexrand", "lexrand:", "lexrand:x", "input:3"])
def test_parse_strategy_rejects(text):
    with pytest.raises(ValueError):
        parse_strategy(text)


def test_strategy_label_roundtrip():
    for text in ("input", "position", "lexpos", "lexrand:42", "dynamic"):
        assert strategy_label(parse_strategy(text)) == text


def test_input_order_is_identity():
    assert order_static(GIESEKING, parse_strategy("input")) == (0, 1, 2, 3, 4)


def test_position_order_on_gieseking_rows_is_identity():
    """The five rows are already sorted by their 0/1 support patterns."""
    assert order_static(GIESEKING, parse_strategy("position")) == (0, 1, 2, 3, 4)


def test_position_order_stable_under_tie():
    # Rows 2 and 3 share the support pattern (0,1,1,0,1,0,1)... they differ
    # only in signs, so position ordering must keep their input order.
    perm = order_static(GIESEKING, parse_strategy("position"))
    assert perm.index(2) < perm.index(3)


def test_lexpos_sign_normalizes():
    # First nonzero coordinate is made positive before comparing, so a row
    # and its negation sort identically and stay in input order.
    p = parse_cone("3 2\n0 -1 1\n0 1 -1\ngroups 0\n")
    assert order_static(p, parse_strategy("lexpos")) == (0, 1)


def test_lexrand_deterministic_per_seed():
    a = order_static(GIESEKING, parse_strategy("lexrand:7"))
    b = order_static(GIESEKING, parse_strategy("lexrand:7"))
    assert a == b
    assert sorted(a) == [0, 1, 2, 3, 4]
    seeds = {order_static(GIESEKING, parse_strategy(f"lexrand:{s}")) for s in range(30)}
    assert len(seeds) > 1  # different seeds explore different orders


def test_order_static_rejects_dynamic():
    with pytest.raises(ValueError):
        order_static(GIESEKING, parse_strategy("dynamic"))


def test_choose_dynamic_first_pick():
    # Against the unit rays, the values of row k are the row's entries; its
    # zeros count on neither side.
    k = choose_dynamic(set(range(5)), lambda k: GIESEKING.equations[k].values())
    # Row 0 splits the unit rays 1 positive / 1 negative (product 1); the
    # other rows each split 2 x 2 or worse, so row 0 wins.
    assert k == 0


def test_choose_dynamic_tie_breaks_low_index():
    rows = {0: (1, -1), 1: (-1, 1)}
    assert choose_dynamic({1, 0}, rows.__getitem__) == 0


def test_choose_dynamic_prefers_no_negatives():
    # A hyperplane with an empty negative side has pair product 0 and is
    # processed immediately (it only discards or keeps, never combines).
    rows = {0: (1, -1, 0), 1: (1, 1, 0)}
    assert choose_dynamic([0, 1], rows.__getitem__) == 1
    with pytest.raises(ValueError):
        choose_dynamic([], rows.__getitem__)


def dense_order(problem, strategy):
    """Reference static order, sorting the dense rows: by their 0/1 support
    vectors (`position`), sign-normalised so the first non-zero is positive
    (`lexpos`), or each times a seeded random sign (`lexrand`)."""
    rows = []
    for row in problem.equations:
        dense = [0] * problem.dim
        for j, x in row.items():
            dense[j] = x
        rows.append(tuple(dense))
    if strategy.kind == "position":
        keys = [tuple(1 if x else 0 for x in row) for row in rows]
    elif strategy.kind == "lexpos":
        keys = [row if next((x for x in row if x), 0) >= 0 else tuple(-x for x in row) for row in rows]
    else:
        rng = random.Random(strategy.seed)
        signs = [rng.choice((1, -1)) for _ in rows]
        keys = [tuple(sign * x for x in row) for sign, row in zip(signs, rows)]
    return tuple(sorted(range(len(rows)), key=keys.__getitem__))


def test_static_orders_match_the_dense_reference():
    """`order_static` on `{column: value}` rows gives the permutation a sort
    of the dense rows gives, ties included: on Gieseking, the loops at
    n = 3..12, 10 random closed triangulations of 1-5 tetrahedra and the
    50 random cones of the acceptance suite (rows in -2..2)."""
    rng = random.Random(11)
    problems = [
        GIESEKING,
        *(standard_matching_equations(twisted_layered_loop(n)) for n in range(3, 13)),
        *(standard_matching_equations(random_closed_triangulation(1 + i % 5, rng)) for i in range(10)),
        *RANDOM_SUITE,
    ]
    strategies = ["position", "lexpos", "lexrand:1", "lexrand:2", "lexrand:3"]
    for problem in problems:
        for text in strategies:
            strategy = parse_strategy(text)
            assert order_static(problem, strategy) == dense_order(problem, strategy)
