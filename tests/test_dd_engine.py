"""Tests for the incremental enumeration engine."""

import random
from array import array
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedd import dd_engine, exact_linalg
from conedd.cone_problem import EnumerationProblem, admissible, parse_cone
from conedd.dd_engine import (
    PREFILTER_MODES,
    Ray,
    EngineState,
    GroupTable,
    RunConfig,
    RunStats,
    ValueRows,
    adjacent_algebraic,
    adjacent_combinatorial,
    combine,
    final_recovery_kernel,
    group_partners,
    hyperplane_values,
    init_vertices,
    lane_rows,
    prefilter_need,
    recover,
    recovery_kernel,
    run,
    stage_bytes,
    step,
    zero_index,
    zero_mask,
)
from conedd.errors import InternalError
from conedd.exact_linalg import dot, sparse_row, vector_gcd
from conedd.oracle import brute_force_filtered, brute_force_rays
from conedd.ordering import order_static, parse_strategy
from conedd.triangulation import parse_triangulation, standard_matching_equations, twisted_layered_loop
from recovery_reference import check_against_reference
from test_acceptance import census_like_problems

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

GIESEKING = parse_cone((FIXTURES / "gieseking.cone").read_text())
ONETET = standard_matching_equations(
    parse_triangulation((FIXTURES / "onetet.tri").read_text())
)


def coords_of(rays):
    return [r.coords for r in rays]


def bits_of(indices):
    return sum(1 << j for j in indices)


def initial_state(problem, representation, **options):
    """V_0 as `run` builds it, before any hyperplane is processed."""
    config = RunConfig(representation=representation, **options)
    masks, store = init_vertices(problem, representation)
    g = len(problem.equations)
    return EngineState(problem, config, masks, store, [], list(range(g)), 0, RunStats())


def store_of(rows):
    """The value store of `rows`, row-major: signed bytes when every value
    fits in one, else a list."""
    flat = [x for row in rows for x in row]
    return array("b", flat) if all(-128 <= x < 128 for x in flat) else flat


def test_init_vertices_full():
    masks, store = init_vertices(GIESEKING, "full")
    rows = list(ValueRows(store, 7, 7))
    assert rows == [[1 if i == j else 0 for i in range(7)] for j in range(7)]
    assert masks == [zero_mask(row) for row in rows]
    assert store.typecode == "b"


def test_init_vertices_inner():
    masks, store = init_vertices(GIESEKING, "inner")
    rows = list(ValueRows(store, 5, 7))
    assert len(masks) == len(rows) == 7
    for j, (mask, row) in enumerate(zip(masks, rows)):
        assert row == [GIESEKING.equations[k].get(j, 0) for k in range(5)]
        assert mask == ((1 << 7) - 1) ^ (1 << j)
    # Column 0 of the fixture: only the last equation touches coordinate 0.
    assert rows[0] == [0, 0, 0, 0, 1]
    assert store.typecode == "b"


@pytest.mark.parametrize("top,typecode", [(127, "b"), (128, None), (2**15, None), (2**31, None), (2**63, None)])
def test_init_vertices_takes_the_narrowest_store(top, typecode):
    """V_0's store holds signed bytes when its largest |coefficient| fits
    in one, else it is a list; the rows read back the same."""
    problem = EnumerationProblem(3, (sparse_row((1, -top, 0)), sparse_row((0, 2, 3))), ())
    masks, store = init_vertices(problem, "inner")
    assert getattr(store, "typecode", None) == typecode
    assert list(ValueRows(store, 2, 3)) == [[1, 0], [-top, 2], [0, 3]]


def test_representations_agree_on_hyperplane_values():
    full = initial_state(GIESEKING, "full")
    inner = initial_state(GIESEKING, "inner")
    for k in range(5):
        assert hyperplane_values(full, k) == hyperplane_values(inner, k)
    # After a step the inner vertices hold one product fewer, stored in the
    # order of `remaining`, and still agree with the coordinates.
    full, inner = step(full, 2), step(inner, 2)
    assert inner.remaining == full.remaining == [0, 1, 3, 4]
    assert inner.width == 4 and all(len(v) == 4 for v in inner.vertices)
    for k in inner.remaining:
        assert hyperplane_values(full, k) == hyperplane_values(inner, k)


def test_partition_first_hyperplane():
    state = initial_state(GIESEKING, "full")
    values = hyperplane_values(state, 0)
    assert [j for j, t in enumerate(values) if t > 0] == [6]
    assert [j for j, t in enumerate(values) if t < 0] == [5]
    assert values.count(0) == 5
    after = step(state, 0)
    # S_0 is kept in order; the one pair (e6, e5) breaks the quad group.
    assert (after.masks, list(after.vertices)) == (state.masks[:5], list(state.vertices)[:5])
    assert after.stats.pair_counts == [1]


def test_compatible():
    needs = group_needs(GIESEKING.groups)
    e0, e4, e5 = (init_vertices(GIESEKING, "full")[0][j] for j in (0, 4, 5))
    # e4 + e5 would have two nonzero quadrilateral coordinates: incompatible.
    assert not compatible(e4 & e5, needs)
    assert compatible(e0 & e4, needs)
    assert compatible(e0 & e0, needs)


def test_prefilter_need_arithmetic():
    # d = 7, so a pair needs zero_count + stages >= 5.
    assert prefilter_need("basic", 0, 0, 7) == 5
    assert prefilter_need("basic", 1, 0, 7) == 4
    # Extended counts only separating stages, a smaller quantity.
    assert prefilter_need("extended", 1, 0, 7) == 5
    assert prefilter_need("extended", 3, 1, 7) == 4
    assert prefilter_need("off", 0, 0, 7) == 0
    with pytest.raises(ValueError):
        prefilter_need("bogus", 0, 0, 7)


def test_extended_no_weaker_than_basic():
    # sep_before <= processed_count always, so extended rejects whenever
    # basic does.
    for pc, sep in product(range(6), range(6)):
        if sep <= pc:
            assert prefilter_need("extended", pc, sep, 7) >= prefilter_need("basic", pc, sep, 7)


def adjacency_over(masks, dim):
    """The combinatorial adjacency test over the zero sets `masks`, for two
    positions."""
    containing = zero_index(masks, dim).containing
    return lambda u, w: adjacent_combinatorial(u, w, masks[u] & masks[w], containing) is None


def test_zeroset_of_example():
    assert zero_mask((0, 3, 0, 0, 1, 0, 2)) == bits_of([0, 2, 3, 5]) == 0b101101


def test_zeroset_of_all_zero():
    assert zero_mask((0, 0, 0)) == 0b111
    assert zero_mask(()) == 0


signed_coords = st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=40)


@given(signed_coords)
def test_zeroset_matches_definition(v):
    bits = zero_mask(v)
    assert bits >> len(v) == 0
    for i, x in enumerate(v):
        assert (bits >> i & 1 == 1) == (x == 0)


@given(signed_coords, st.data())
def test_intersection_is_zero_set_of_positive_combination(v, data):
    """Z(au + bw) = Z(u) & Z(w) for positive a, b when u, w are nonnegative."""
    u = tuple(abs(x) for x in v)
    w = tuple(abs(x) for x in data.draw(st.lists(
        st.integers(min_value=-5, max_value=5), min_size=len(v), max_size=len(v))))
    a = data.draw(st.integers(min_value=1, max_value=9))
    b = data.draw(st.integers(min_value=1, max_value=9))
    combined = tuple(a * x + b * y for x, y in zip(u, w))
    assert zero_mask(combined) == zero_mask(u) & zero_mask(w)


def test_adjacent_combinatorial_unit_rays():
    masks = init_vertices(GIESEKING, "full")[0]
    # Z(e5) & Z(e6) misses only coordinates 5 and 6; no other unit ray's
    # zero set contains it.
    assert adjacency_over(masks, GIESEKING.dim)(5, 6)


def test_adjacent_combinatorial_witness():
    u = zero_mask((1, 0, 1, 0))
    w = zero_mask((0, 1, 0, 1))
    z = zero_mask((1, 1, 1, 1))
    assert adjacency_over([u, w], 4)(0, 1)
    # z's zero set (empty) contains Z(u) & Z(w) (also empty): witness found.
    assert not adjacency_over([u, w, z], 4)(0, 1)


def brute_containing(masks, key):
    """The superset scan: the positions whose mask contains `key`."""
    return sum(1 << i for i, z in enumerate(masks) if z & key == key)


def brute_avoiding(masks, key):
    """The disjointness scan: the positions whose mask shares no bit with
    `key`."""
    return sum(1 << i for i, z in enumerate(masks) if not z & key)


def brute_adjacent(u, w, masks):
    """The linear witness scan: no third zero set contains Z(u) & Z(w)."""
    inter = u & w
    return not any(z & inter == inter and z != u and z != w for z in masks)


def group_needs(groups):
    """(member mask, members that must be zero) for each group."""
    return [(bits_of(group), len(group) - 1) for group in groups]


def compatible(bits, needs):
    """The group test, one group at a time: a vector with zero set `bits`
    has at most one non-zero coordinate in each group described by `needs`.
    A pair is compatible when the zero set of any positive combination,
    Z(u) & Z(w), passes."""
    return all((bits & mask).bit_count() >= need for mask, need in needs)


def test_group_satisfied_examples():
    needs = group_needs(((4, 5, 6),))
    assert needs == [(0b1110000, 2)]
    assert compatible(bits_of([4, 5, 6]), needs)
    assert compatible(bits_of([4, 5]), needs)
    assert not compatible(bits_of([4]), needs)
    assert not compatible(bits_of([0, 1, 2, 3]), needs)


def test_group_satisfied_multiple_groups():
    needs = group_needs(((0, 1, 2), (3, 4, 5)))
    assert compatible(bits_of([0, 1, 3, 4]), needs)
    assert not compatible(bits_of([0, 1, 3]), needs)
    assert compatible(0, group_needs(()))


def bits_at(bitset, count):
    return [i for i in range(count) if bitset >> i & 1]


@st.composite
def witness_masks(draw, dim, min_size=2):
    """Zero sets over `dim` coordinates built as unions of a few random
    atoms, so that containment (and with it witnesses) is common, plus exact
    duplicates of earlier masks."""
    full = (1 << dim) - 1
    atoms = draw(st.lists(st.integers(0, full), min_size=1, max_size=5))
    masks = []
    for _ in range(draw(st.integers(min_size, 14))):
        if masks and draw(st.integers(0, 4)) == 0:
            masks.append(draw(st.sampled_from(masks)))
            continue
        mask = 0
        for atom in atoms:
            if draw(st.booleans()):
                mask |= atom
        masks.append(mask)
    return masks


DIMS = (3, 8, 13, 64, 71, 84, 130)


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zero_index_matches_a_superset_scan(dim, data):
    """Both queries of `zero_index` against a scan: `containing` the
    superset scan, and `avoiding` the disjointness scan, which the engine
    asks with keys Z(u) & ~Z(p)."""
    masks = data.draw(witness_masks(dim, min_size=1))
    containing, avoiding = zero_index(masks, dim)
    # Every single bit above the masks: the group filter asks such keys.
    keys = [0, (1 << dim) - 1, *(1 << j for j in range(max(masks).bit_length(), dim))]
    keys += [u & w for u in masks for w in masks]
    keys += [u & ~z for u in masks for z in masks]
    keys += data.draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=8))
    for key in keys:
        assert containing(key) == brute_containing(masks, key), key
        assert avoiding(key) == brute_avoiding(masks, key), key


def test_zero_index_edge_cases():
    masks = [0b011, 0b001, 0b011, 0]
    containing, avoiding = zero_index(masks, 3)
    assert containing(0) == 0b1111  # key 0 is in every mask
    assert containing(0b001) == 0b0111
    assert containing(0b011) == 0b0101  # both copies
    assert avoiding(0) == 0b1111  # and misses every one
    assert avoiding(0b001) == 0b1000
    assert avoiding(0b010) == 0b1010
    # A bit above every mask: no mask contains it, and it excludes no mask.
    assert containing(0b100) == 0
    assert avoiding(0b100) == 0b1111
    # The same masks over 12 coordinates: the top byte column is all zeros.
    containing, avoiding = zero_index(masks, 12)
    assert containing(1 << 8) == containing(1 << 11 | 1) == 0
    assert avoiding(1 << 8) == 0b1111
    assert avoiding(1 << 8 | 0b010) == avoiding(0b010) == 0b1010
    # All-zero masks.
    containing, avoiding = zero_index([0, 0, 0], 8)
    assert containing(0) == 0b111
    assert containing(1) == containing(1 << 7) == 0
    assert avoiding(0) == avoiding(1) == avoiding(1 << 7) == 0b111
    # 5,000 positions: a translated column is a 5,000-digit base-2 string,
    # past CPython's 4,300-digit limit on int parsing, which exempts base 2.
    rng = random.Random(8)
    masks = [rng.getrandbits(84) for _ in range(5_000)]
    containing, avoiding = zero_index(masks, 84)
    keys = [0, 1 << 83, (1 << 84) - 1]
    keys += [rng.choice(masks) & rng.choice(masks) for _ in range(30)]
    keys += [rng.choice(masks) & rng.getrandbits(84) for _ in range(30)]
    keys += [1 << rng.randrange(84) | 1 << rng.randrange(84) for _ in range(30)]
    for key in keys:
        assert containing(key) == brute_containing(masks, key), key
        assert avoiding(key) == brute_avoiding(masks, key), key


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_witness_index_matches_the_linear_scan(dim, data):
    """Over pairwise distinct zero sets, as those of V_{i-1} are,
    `adjacent_combinatorial` on a `zero_index` decides adjacency as the
    linear scan does, and returns the highest witness position."""
    masks = list(dict.fromkeys(data.draw(witness_masks(dim))))
    containing = zero_index(masks, dim).containing
    for u, w in product(range(len(masks)), repeat=2):
        if u == w:
            continue
        key = masks[u] & masks[w]
        witnesses = [i for i, z in enumerate(masks) if z & key == key and i not in (u, w)]
        witness = adjacent_combinatorial(u, w, key, containing)
        assert (witness is None) == brute_adjacent(masks[u], masks[w], masks), (u, w)
        assert witness == max(witnesses, default=None), (u, w)


def test_adjacency_edge_cases():
    u, w = 0b0110, 0b1100
    # The pair's own positions contain the key but are never witnesses.
    assert adjacency_over([u, w, 0b0001], 4)(0, 1)
    masks = [0b1111, u, 0b0100, w, 0b0111]
    containing = zero_index(masks, 4).containing
    assert adjacent_combinatorial(1, 3, u & w, containing) == 4  # the highest of 0, 2 and 4
    assert adjacent_combinatorial(3, 1, u & w, containing) == 4  # either order
    assert adjacent_combinatorial(0, 4, 0b0111, containing) is None
    # Key 0 and the only witness at position 0: the result is 0, not None.
    assert adjacent_combinatorial(1, 2, 0, zero_index([0, 0b10, 0b01], 2).containing) == 0


def test_step_reads_a_zero_witness_as_non_adjacent():
    """A witness whose zero set is empty still kills the pair: (1, 1, 0, 0)
    and (0, 0, 1, 1) lie on either side of x0 = x2, and their common zero
    set (empty) is contained in that of (1, 1, 1, 1), which lies on it.
    Each of the two has two zeros the other lacks, so the zero-count
    certificate cannot decide the pair and the index query does."""
    problem = EnumerationProblem(dim=4, equations=(sparse_row((1, 0, -1, 0)),), groups=())
    config = RunConfig(representation="full", dim_prefilter="off")
    rows = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]]
    state = EngineState(problem, config, [zero_mask(r) for r in rows], store_of(rows), [], [0], 0, RunStats())
    after = step(state, 0)
    assert (after.masks, list(after.vertices)) == ([0], [[1, 1, 1, 1]])
    stage = after.stats.stages[-1]
    assert (stage.tested, stage.bulk, stage.certified) == (1, 0, 0)


@st.composite
def grouped(draw, dim):
    """Disjoint groups of 1-4 coordinates, zero sets with at most one
    non-zero per group (every working vertex is compatible on its own), and
    a random subset of their positions standing for S_-."""
    coords = draw(st.permutations(range(dim)))
    groups, at = [], 0
    while at < dim and draw(st.integers(0, 5)) > 0:
        size = draw(st.integers(1, 4))
        groups.append(sorted(coords[at:at + size]))
        at += size
    masks = []
    for _ in range(draw(st.integers(1, 16))):
        mask = draw(st.integers(0, (1 << dim) - 1))
        for group in groups:
            for j in group:
                mask |= 1 << j
            keep = draw(st.sampled_from([None, *group]))
            if keep is not None:
                mask &= ~(1 << keep)
        masks.append(mask)
    s_neg = sum(1 << i for i in range(len(masks)) if draw(st.booleans()))
    return groups, masks, s_neg


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_partner_index_matches_compatible(dim, data):
    """`group_partners` on a `zero_index` equals brute-force `compatible`."""
    groups, masks, s_neg = data.draw(grouped(dim))
    needs = group_needs(groups)
    containing = zero_index(masks, dim).containing
    partners_of = group_partners(containing, s_neg, GroupTable.of(groups))
    negatives = bits_at(s_neg, len(masks))
    for u in masks:
        want = [i for i in negatives if compatible(u & masks[i], needs)]
        assert bits_at(partners_of(u), len(masks)) == want
    # With filtering off every vertex of S_- is a partner.
    unfiltered = group_partners(containing, s_neg, GroupTable.of(()))
    for u in masks:
        assert unfiltered(u) == s_neg


def test_partner_index_edge_cases():
    groups = GroupTable.of([(0, 1, 2), (3,)])
    clean, other, zero = 0b1110, 0b1101, 0b1111  # non-zero at 0 / at 1 / neither
    containing = zero_index([clean, other, clean, zero], 4).containing
    assert group_partners(containing, 0, groups)(clean) == 0  # empty S_-
    partners_of = group_partners(containing, 0b1111, groups)
    assert partners_of(clean) == 0b1101  # `other` is out
    assert partners_of(zero) == 0b1111  # zero on the group: every candidate
    assert group_partners(containing, 0b0110, groups)(clean) == 0b0100  # only S_-
    # A group of one coordinate never rejects anything.
    assert group_partners(zero_index([0b0111], 4).containing, 1, groups)(0b0111) == 1


@pytest.mark.parametrize("name,filtering", product(("gieseking", "s2xs1"), (True, False)))
def test_adjacent_algebraic_matches_the_witness_scan_on_every_stage(name, filtering):
    """The rank test, given the processed rows, agrees with the linear
    witness scan on the pairs of S_+ x S_- at every stage.  With filtering
    on, V_{i-1} holds only the compatible extreme rays, so the scan is exact
    on the compatible pairs alone, the ones `step` tests: a witness of such
    a pair contains its common zeros and is compatible too."""
    problem = problem_named(name)
    needs = group_needs(problem.groups) if filtering else []
    state = initial_state(problem, "inner", filtering=filtering)
    checked = 0
    for k in range(len(problem.equations)):
        values = hyperplane_values(state, k)
        rows = [problem.equations[j] for j in state.processed]
        pos = [mask for mask, t in zip(state.masks, values) if t > 0]
        neg = [mask for mask, t in zip(state.masks, values) if t < 0]
        for u, w in product(pos, neg):
            if compatible(u & w, needs):
                want = brute_adjacent(u, w, state.masks)
                assert adjacent_algebraic(u & w, rows, problem.dim) == want, (k, bin(u), bin(w))
                checked += 1
        state = step(state, k)
    assert checked > 0


def row_of(store, width, j):
    """Row j of a value store, as the slice `step` hands to `combine`."""
    return store[j * width : (j + 1) * width]


def combined(u, w, a, b):
    """`combine` of rows u and w into an empty store of their kind, read back
    as a list."""
    return list(combine(u, w, a, b, u[:0]))


def test_combine_full():
    masks, store = init_vertices(GIESEKING, "full")
    e5, e6 = row_of(store, 7, 5), row_of(store, 7, 6)
    # Row 0 is x6 - x5: e6 sits on the positive side, e5 on the negative.
    common = masks[6] & masks[5]
    assert common == bits_of(range(5))
    assert combined(e6, e5, 1, -1) == [0, 0, 0, 0, 0, 1, 1]
    assert zero_mask(combined(e6, e5, 1, -1)) == common
    # The result is divided by the gcd of its values.
    assert combined(e6, e5, 2, -2) == [0, 0, 0, 0, 0, 1, 1]


def test_combine_inner():
    masks, full = init_vertices(GIESEKING, "full")
    _, inner = init_vertices(GIESEKING, "inner")
    rf = combined(row_of(full, 7, 6), row_of(full, 7, 5), 1, -1)
    # The products of the combined coordinates with every row; the
    # processed hyperplane's is 0, and `step` deletes it with its column.
    ri = combined(row_of(inner, 5, 6), row_of(inner, 5, 5), 1, -1)
    assert ri == [dot(GIESEKING.equations[k], rf) for k in range(5)]
    assert ri[0] == 0


def test_combine_requires_opposite_sides():
    _, store = init_vertices(GIESEKING, "full")
    e5, e6 = row_of(store, 7, 5), row_of(store, 7, 6)
    with pytest.raises(InternalError):
        combined(e5, e6, -1, 1)  # sides swapped
    with pytest.raises(InternalError):
        combined(e6, e5, 1, 0)  # w on the hyperplane


def recording_lanes(monkeypatch, build=True):
    """Wraps `lane_rows` so that every row it is asked for is recorded as
    (k, built); with `build` False it builds none, so `combine` builds every
    combination.  Returns the list of records."""
    made = []

    def wrapped(data, width):
        row = lane_rows(data, width)

        def recorded(u, k, w):
            out = row(u, k, w) if build else None
            made.append((k, out is not None))
            return out

        return recorded

    monkeypatch.setattr(dd_engine, "lane_rows", wrapped)
    return made


def test_forged_full_vertex_fails_the_zero_set_check(monkeypatch):
    """A `full` vertex whose mask claims a zero its coordinates lack is
    caught when the engine combines it, whether the row was built lane-wise
    or by `combine`: gieseking's first row, x6 - x5, combines e6 and e5
    with a = 1 and b = -1."""
    for build in (True, False):
        made = recording_lanes(monkeypatch, build)
        state = initial_state(GIESEKING, "full")
        state.masks[6] |= 1 << 6
        with pytest.raises(InternalError, match="zero set"):
            step(state, 0)
        assert made == [(1, build)]


@pytest.mark.parametrize("representation", ["inner", "full"])
def test_step_refuses_two_vertices_with_one_zero_set(representation):
    """Bulk elimination is exact only while the zero sets of V_{i-1} are
    pairwise distinct, so a stage with both sides checks that they are:
    a hand-built state holding (1, 0) twice over, as (1, 0) and (2, 0),
    is refused.  With one side empty no pair is formed, and nothing is
    checked."""
    equations = (sparse_row((1, -1)), sparse_row((0, 1)))
    problem = EnumerationProblem(dim=2, equations=equations, groups=())
    rows = [(1, 0), (0, 1), (2, 0)]
    masks = [zero_mask(row) for row in rows]
    if representation == "inner":
        rows = [[dot(equation, row) for equation in problem.equations] for row in rows]
    config = RunConfig(representation=representation)
    state = EngineState(problem, config, masks, store_of(rows), [], [0, 1], 0, RunStats())
    with pytest.raises(InternalError, match="share a zero set"):
        step(state, 0)
    after = step(state, 1)  # every row is on or above x1 = 0
    assert after.masks == [0b10, 0b10]


def reference_combine(u, w, a, b, drop):
    """a*w - b*u as a list comprehension, less the entry at `drop`, divided
    by `vector_gcd`: what `combine` computes, without its zero-set check,
    and what `step` stores once it has deleted the processed column."""
    values = [a * wv - b * uv for uv, wv in zip(u, w)]
    if drop is not None:
        del values[drop]
    g = vector_gcd(values)
    if g > 1:
        values = [x // g for x in values]
    return values


# Values of one limb and past it, on both sides of +-2^64.
wide = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64 - 2, max_value=2**64 + 1),
    st.integers(min_value=-(2**64) - 1, max_value=-(2**64) + 2),
)
# Values of one signed byte, often small, often near the ends of the range.
byte = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-128, max_value=127),
    st.sampled_from([-128, -127, -64, 63, 64, 126, 127]),
)
# (a, b): the w + u case, and general values on either side of the hyperplane.
sides = st.one_of(
    st.just((1, -1)),
    st.tuples(st.integers(min_value=1, max_value=2**66), st.integers(min_value=-(2**66), max_value=-1)),
)


def value_pairs(entries):
    """Two lists of `entries` of one length, 1 to 8, and a position in them."""
    return st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
        st.lists(entries, min_size=n, max_size=n),
        st.lists(entries, min_size=n, max_size=n),
        st.integers(min_value=0, max_value=n - 1),
    ))


def check_combine(u, w, a, b):
    """`combine` against `reference_combine`, appended to a store that holds
    one row already, which it keeps, leaving u and w as they were, with
    every value at most (a - b) times the largest |x| of u and w.  Returns
    the store."""
    before = (list(u), list(w))
    out = combine(u, w, a, b, u[:])
    assert list(out[len(u):]) == reference_combine(u, w, a, b, None)
    assert list(out[:len(u)]) == before[0]
    assert (list(u), list(w)) == before
    top = max(map(abs, before[0] + before[1]), default=0)
    assert all(abs(x) <= (a - b) * top for x in out[len(u):])
    return out


@settings(max_examples=200)
@given(value_pairs(wide), sides)
def test_combine_matches_the_reference_under_inner(values, side):
    """An `inner` combination, of values in bytes or past them."""
    u_values, w_values, _ = values
    store, n = store_of([u_values, w_values]), len(u_values)
    check_combine(row_of(store, n, 0), row_of(store, n, 1), *side)


@settings(max_examples=200)
@given(value_pairs(st.one_of(st.just(0), byte.map(abs), wide.map(abs))), sides)
def test_combine_matches_the_reference_under_full(coords, side):
    """A `full` combination of non-negative coordinates, in bytes or past
    them, whose zero set is Z(u) & Z(w), the mask `step` checks it against:
    a mask forged on a coordinate where w is zero never matches it."""
    u_values, w_values, j = coords
    w_values[j] = 0
    store, n = store_of([u_values, w_values]), len(u_values)
    u, w = row_of(store, n, 0), row_of(store, n, 1)
    common = zero_mask(u_values) & zero_mask(w_values)
    zeros = zero_mask(check_combine(u, w, *side)[n:])
    assert zeros == common != common ^ 1 << j


def lanes_certify(u, w, k):
    """Whether `lane_rows` builds w + k*u, in list arithmetic: every value
    of k*u and of the sum fits in a signed byte, and the sum, halved while
    every value is even and one is not 0, holds +-1 or is all zeros."""
    total = [x + k * y for x, y in zip(w, u)]
    if not all(-128 <= x < 128 for x in [k * y for y in u] + total):
        return False
    while any(total) and all(x % 2 == 0 for x in total):
        total = [x // 2 for x in total]
    return not any(total) or 1 in total or -1 in total


def lane_or_combine(u, w, k):
    """w + k*u appended as `step` appends it to an empty store of signed
    bytes: the row `lane_rows` builds, or `combine`'s when it builds none.
    Returns the store and whether `lane_rows` built the row."""
    store, n = array("b", u + w), len(u)
    row = lane_rows(store.tobytes(), n)(0, k, 1)
    if row is not None:
        return array("b", row), True
    return combine(row_of(store, n, 0), row_of(store, n, 1), 1, -k, array("b")), False


# Values of one signed byte whose multiples by k = 1..8 reach the ends of
# the byte range.
near_edges = st.integers(min_value=1, max_value=8).flatmap(
    lambda k: st.sampled_from([127 // k, -128 // k] + ([127 // k + 1, -128 // k - 1] if k > 1 else []))
)


@settings(max_examples=500)
@given(
    value_pairs(st.one_of(byte, near_edges)),
    st.lists(st.tuples(st.integers(0, 1), st.integers(1, 8)), min_size=1, max_size=6),
)
def test_lanewise_add_matches_the_reference(values, calls):
    """w + k*u for k = 1..8 on rows of signed bytes, built lane-wise by
    `lane_rows`, equals the list arithmetic, and the lanes build it exactly
    when `lanes_certify` says so; otherwise `combine` builds it, turning
    the store into a list when a value needs it.  One `lane_rows` serves a
    sequence of calls, each with either row as u, so its multiples of u,
    held while the calls keep one u, must serve each k met."""
    u_values, w_values, _ = values
    rows = (u_values, w_values)
    n = len(u_values)
    lanes = lane_rows(array("b", u_values + w_values).tobytes(), n)
    for u, k in calls:
        w = 1 - u
        row = lanes(u, k, w)
        want = reference_combine(rows[u], rows[w], 1, -k, None)
        assert (row is not None) == lanes_certify(rows[u], rows[w], k)
        if row is not None:
            assert list(array("b", row)) == want
        out, _ = lane_or_combine(rows[u], rows[w], k)
        assert list(out) == want
        assert getattr(out, "typecode", None) == ("b" if all(-128 <= x < 128 for x in want) else None)


@pytest.mark.parametrize(
    "u,w,want,typecode",
    [
        ([127, 1, 0], [1, 0, 2], [128, 1, 2], None),  # 127 + 1 overflows its lane: a list
        ([-128, 1], [-1, -2], [-129, -1], None),  # so does -128 - 1
        ([127, -128], [-127, 127], [0, -1], "b"),  # the extremes, with no overflow
        ([2, 4, 0], [2, 2, 6], [2, 3, 3], "b"),  # halved once, then no +-1 lane
        ([2, 4, 3], [2, 2, 6], [4, 6, 9], "b"),  # an odd value, and no +-1 lane
        ([2, -2], [2, -2], [1, -1], "b"),  # halved twice, down to +-1
        ([-64, 32], [-64, 32], [-2, 1], "b"),  # -128 and 64: halved six times
        ([0, 0], [0, 0], [0, 0], "b"),  # a row of zeros is stored as it is
        ([64, 0], [64, -2], [64, -1], "b"),  # 128 overflows, and halving brings it back
        ([3, -5], [-1, 4], [2, -1], "b"),  # borrows between lanes stay in them
        ([2, 4], [4, 8], [1, 2], "b"),  # 6, 12 halve to 3, 6: gcd 3, no +-1 lane
    ],
)
def test_lanewise_add_edge_cases(u, w, want, typecode):
    """w + u as `step` stores it: the lanes build it when they certify its
    gcd, and `combine` builds the rest, in a list when a value leaves the
    byte range (`typecode` None)."""
    out, built = lane_or_combine(u, w, 1)
    assert (list(out), getattr(out, "typecode", None)) == (want, typecode)
    assert want == reference_combine(u, w, 1, -1, None)
    assert built == lanes_certify(u, w, 1)


def test_lane_rows_fall_back_when_a_multiple_overflows():
    """k*u is built lane-wise, and a lane of it that overflows leaves the
    row to `combine`, even when the sum would fit: 2 * 64 leaves the byte
    range, though w + 2u is (28, 0) and normalises to (1, 0)."""
    u, w = [64, 1], [-100, -2]
    lanes = lane_rows(array("b", u + w).tobytes(), 2)
    assert lanes(0, 1, 1) == array("b", [-36, -1]).tobytes()  # u itself fits
    assert lanes(0, 2, 1) is None
    assert lanes(0, 3, 1) is None  # every larger multiple overflows too
    assert lane_or_combine(u, w, 2) == (array("b", [1, 0]), False)
    # 63 * 2 = 126 fits, and w + 2u = (26, 0) halves once to (13, 0),
    # with no +-1 lane: `combine` divides by 13.
    assert lane_or_combine([63, 1], [-100, -2], 2) == (array("b", [1, 0]), False)
    assert lane_or_combine([63, 1], [-125, -2], 2) == (array("b", [1, 0]), True)


def test_hyperplane_without_stored_product_is_an_internal_error():
    for representation in ("full", "inner"):
        state = step(initial_state(GIESEKING, representation), 0)
        with pytest.raises(InternalError, match="no stored product for hyperplane 0"):
            hyperplane_values(state, 0)
        with pytest.raises(InternalError, match="no stored product for hyperplane 0"):
            step(state, 0)
        with pytest.raises(InternalError, match="hyperplane 5"):
            step(state, 5)


GIESEKING_FILTERED = [(1, 1, 1, 1, 0, 0, 0)]
GIESEKING_UNFILTERED = [(0, 0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 0, 0, 0)]


def test_gieseking_default_run():
    rays, stats = run(GIESEKING)
    assert coords_of(rays) == GIESEKING_FILTERED
    assert stats.sizes == [7, 5, 4, 3, 2, 1]
    assert [s.sep for s in stats.stages] == [1, 2, 3, 3, 4]
    assert stats.pair_counts == [1, 2, 1, 0, 1]
    assert [s.hyperplane for s in stats.stages] == [0, 1, 2, 3, 4]
    assert stats.max_vertex_count == 7
    assert stats.final_count == 1
    assert stats.peak_mem_bytes == stats.initial[1] == 42  # V_0: 7 one-byte masks, 5 byte products each


def test_gieseking_unfiltered_run():
    cfg = RunConfig(ordering=parse_strategy("input"), representation="full", filtering=False)
    rays, stats = run(GIESEKING, cfg)
    assert coords_of(rays) == GIESEKING_UNFILTERED
    assert stats.sizes == [7, 6, 6, 5, 3, 2]
    assert [s.sep for s in stats.stages] == [1, 2, 3, 4, 5]
    assert stats.pair_counts == [1, 4, 2, 1, 1]


def test_gieseking_matches_oracle():
    assert coords_of(brute_force_filtered(GIESEKING)) == GIESEKING_FILTERED
    assert coords_of(brute_force_rays(GIESEKING)) == GIESEKING_UNFILTERED


def test_config_invariance_sample():
    """A sample of the configuration grid; the full grid runs in the
    acceptance suite."""
    for ordering, adjacency, rep, pre in (
        ("input", "comb", "full", "off"),
        ("lexpos", "alg", "full", "basic"),
        ("lexrand:3", "comb", "inner", "extended"),
        ("dynamic", "alg", "inner", "basic"),
    ):
        cfg = RunConfig(
            ordering=parse_strategy(ordering),
            adjacency=adjacency,
            representation=rep,
            dim_prefilter=pre,
        )
        rays, _ = run(GIESEKING, cfg)
        assert coords_of(rays) == GIESEKING_FILTERED, (ordering, adjacency, rep, pre)


def test_filtering_equivalence():
    for problem in (GIESEKING, ONETET):
        unfiltered, _ = run(problem, RunConfig(filtering=False))
        filtered, _ = run(problem)
        assert coords_of(filtered) == [
            r.coords for r in unfiltered if admissible(problem, r.coords)
        ]


def test_onetet_run():
    rays, _ = run(ONETET)
    assert coords_of(rays) == [
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0),
    ]
    unfiltered, _ = run(ONETET, RunConfig(filtering=False))
    assert coords_of(unfiltered) == [
        (0, 0, 0, 0, 0, 1, 1),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 0, 1, 1, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, 0),
    ]


def run_tracing_zero_sets(problem, config=None):
    """`run`, plus the sorted zero-set masks of V_1, V_2, ... collected by
    `stage_hook`.  V_0 is the d unit rays under every representation."""
    trace = []
    rays, stats = run(
        problem, config, stage_hook=lambda s: trace.append(sorted(s.masks))
    )
    return rays, stats, trace


def test_inner_full_lockstep():
    """Same zero sets at every stage, same finals, for both representations."""
    base = dict(ordering=parse_strategy("input"), adjacency="comb", dim_prefilter="extended")
    _, st_full, trace_full = run_tracing_zero_sets(GIESEKING, RunConfig(representation="full", **base))
    rays_i, st_inner, trace_inner = run_tracing_zero_sets(
        GIESEKING, RunConfig(representation="inner", **base)
    )
    assert trace_full == trace_inner
    assert coords_of(rays_i) == GIESEKING_FILTERED
    # The inner representation stores g - i products per vertex, never more
    # than the d coordinates, so its stage footprint is no larger.
    for full, inner in zip(st_full.stages, st_inner.stages):
        assert inner.mem_bytes <= full.mem_bytes


def test_pair_audit_sees_every_pair_without_prefilter():
    cfg = RunConfig(
        ordering=parse_strategy("input"),
        representation="full",
        filtering=False,
        dim_prefilter="off",
    )
    seen = []
    _, stats = run(GIESEKING, cfg, pair_audit=lambda *a: seen.append(a))
    assert len(seen) == sum(stats.pair_counts)
    # Audited zero counts never exceed d - 1.
    assert all(0 <= zc < 7 for _, _, zc, _ in seen)


def test_pair_audit_prefilter_reduces_pairs():
    seen = []
    run(GIESEKING, RunConfig(), pair_audit=lambda *a: seen.append(a))
    _, stats = run(GIESEKING, RunConfig())
    assert len(seen) <= sum(stats.pair_counts)


def test_stage_hook_called_per_hyperplane():
    stages = []
    run(GIESEKING, stage_hook=lambda s: stages.append(len(s.processed)))
    assert stages == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("representation", ["inner", "full"])
def test_run_refuses_two_final_vertices_with_one_zero_set(representation):
    """Distinct extreme rays have distinct zero sets, so `run` keeps every
    final vertex as it is, and a copy of one is a broken invariant that
    raises `InternalError`, not a ray output once."""

    def copy_first(state):
        if not state.remaining:  # the last stage
            state.masks.append(state.masks[0])
            state.store += state.store[: state.width]

    with pytest.raises(InternalError, match="two final vertices share a zero set"):
        run(GIESEKING, RunConfig(representation=representation), stage_hook=copy_first)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(adjacency="bogus")
    with pytest.raises(ValueError):
        RunConfig(representation="bogus")
    with pytest.raises(ValueError):
        RunConfig(dim_prefilter="bogus")


def test_ray_has_slots_and_stays_frozen():
    """A `Ray` holds its coordinates in a slot, with no `__dict__`, and is
    still frozen, equal by value and hashable."""
    ray = Ray((1, 0, 2))
    assert Ray.__slots__ == ("coords",) and not hasattr(ray, "__dict__")
    with pytest.raises(FrozenInstanceError):
        ray.coords = (0, 0, 0)
    assert ray == Ray((1, 0, 2)) != Ray((1, 0, 3))
    assert hash(ray) == hash(Ray((1, 0, 2)))
    assert len({ray, Ray((1, 0, 2)), Ray((0, 1, 2))}) == 2


def test_recover_examples():
    r = recover(GIESEKING, bits_of([4, 5, 6]))
    assert r.coords == (1, 1, 1, 1, 0, 0, 0)
    r2 = recover(GIESEKING, bits_of([0, 1, 2, 3]))
    assert r2.coords == (0, 0, 0, 0, 1, 1, 1)


def test_recover_errors():
    with pytest.raises(InternalError):
        recover(GIESEKING, bits_of(range(7)))  # no nonzero coordinates left
    with pytest.raises(InternalError):
        recover(GIESEKING, 0)  # nullity 2, not a single ray
    with pytest.raises(InternalError, match="outside the problem dimension"):
        recover(GIESEKING, bits_of([4, 5, 6, 7]))  # wrong dimension
    with pytest.raises(InternalError, match="outside the problem dimension"):
        recover(GIESEKING, -1)
    p = EnumerationProblem(dim=2, equations=(sparse_row((1, 1)),), groups=())
    with pytest.raises(InternalError):
        recover(p, 0)  # generator (1, -1) is mixed-sign
    p = EnumerationProblem(dim=3, equations=(sparse_row((1, -1, 0)),), groups=())
    with pytest.raises(InternalError):
        recover(p, 0)  # nullity 2 again, on other columns


def test_stage_bytes_counts_what_the_store_holds():
    """(d + 7) // 8 bytes a mask, plus the value store: `itemsize` bytes a
    value of an array, and 8 bytes per 64-bit limb of each value of a list,
    0 taking one limb."""
    masks = [3, 5, 6]
    for code, size in (("b", 1), ("h", 2), ("i", 4), ("q", 8)):
        assert stage_bytes(masks, array(code, [1, -2, 0, 7]), 70) == 3 * 9 + 4 * size
    assert stage_bytes(masks, array("b"), 64) == 3 * 8  # inner after the last stage
    for big, limbs in ((2**64 - 1, 1), (-(2**64 - 1), 1), (2**64, 2), (-(2**64), 2), (2**128, 3)):
        assert stage_bytes(masks, [0, -1, big], 70) == 3 * 9 + 8 * (2 + limbs), big
    assert stage_bytes([], [], 70) == 0


# The fixture runs that finish: every fixture filtered, and all but loop9
# unfiltered.
FIXTURE_RUNS = [(name, True) for name in ("gieseking", "onetet", "s2xs1", "loop9")] + [
    (name, False) for name in ("gieseking", "onetet", "s2xs1")
]


def problem_named(name):
    if name == "gieseking":
        return GIESEKING
    if name == "loop6":  # the unfiltered benchmark loop; it has no fixture
        return standard_matching_equations(twisted_layered_loop(6))
    text = (FIXTURES / f"{name}.tri").read_text()
    return standard_matching_equations(parse_triangulation(text))


def final_masks(problem, config=None):
    """The zero sets of the final vertices of a run, as `recover` gets them."""
    return run_tracing_zero_sets(problem, config)[2][-1]


@pytest.mark.parametrize("name,filtering", FIXTURE_RUNS)
def test_kernel_recovery_matches_the_reference_on_every_final_mask(name, filtering):
    """Every final zero set of the fixture runs gives the reference's ray,
    with the run's kernel and with a whole-problem one."""
    problem = problem_named(name)
    masks = final_masks(problem, RunConfig(filtering=filtering))
    kernel = final_recovery_kernel(problem, masks)
    assert check_against_reference(problem, masks, kernel) == len(masks)
    assert check_against_reference(problem, masks) == len(masks)


def test_kernel_recovery_matches_the_reference_on_the_unfiltered_loop():
    """The unfiltered n = 6 loop keeps 393 final vertices, inadmissible ones
    among them, with up to 10 unknowns a ray."""
    problem = problem_named("loop6")
    masks = final_masks(problem, RunConfig(filtering=False))
    assert len(masks) == 393
    kernel = final_recovery_kernel(problem, masks)
    assert check_against_reference(problem, masks, kernel) == 393
    unknowns = [sum(1 for f in kernel.free if not mask >> f & 1) for mask in masks]
    assert (min(unknowns), max(unknowns)) == (1, 10)


def kernel_work(kernel, masks):
    """`recover`'s work over the masks with the kernel: the unknowns (free
    columns outside a mask) and the column-list entries walked for them."""
    unknowns = walk = 0
    for mask in masks:
        for f, column in kernel.free.items():
            if not mask >> f & 1:
                unknowns += 1
                walk += len(column)
    return unknowns, walk


@pytest.mark.parametrize(
    "name,filtering,rays,input_work,work,builds",
    [
        ("loop9", True, 77, (522, 12_037), (232, 4_067), 2),
        ("loop12", True, 323, (2_907, 88_777), (1_224, 23_348), 2),
        ("loop6", False, 393, (2_164, 32_754), (2_164, 32_754), 1),
    ],
)
def test_final_kernel_order_and_work_are_pinned(
    monkeypatch, name, filtering, rays, input_work, work, builds
):
    """loop9 and loop12 pivot on the columns most final rays are non-zero
    on (loop12: 9 → 3.8 unknowns a ray), and recover every final ray as the
    reference does; the unfiltered n = 6 loop, whose counts are flat, builds
    the input-order kernel and no other."""
    problem = problem_named(name)
    masks = final_masks(problem, RunConfig(filtering=filtering))
    assert len(masks) == rays
    built = []
    real = dd_engine.recovery_kernel
    monkeypatch.setattr(dd_engine, "recovery_kernel", lambda *a: built.append(a) or real(*a))
    kernel = final_recovery_kernel(problem, masks)
    assert len(built) == builds
    in_order = real(problem, kernel.zeros)
    assert kernel_work(in_order, masks) == input_work
    assert kernel_work(kernel, masks) == work
    assert (kernel == in_order) == (builds == 1)
    assert check_against_reference(problem, masks, kernel) == rays


def test_count_ordered_kernel_is_used_whenever_it_is_built(monkeypatch):
    """Under the default config, whenever `final_recovery_kernel` builds the
    count-ordered kernel its walk is shorter than the input-order kernel's,
    and it is the kernel returned: loop9, loop12 and one of the
    `census_like_problems` build it.  A change to the counts or the gate
    that builds a kernel walking no less fails here."""
    built = []
    real = dd_engine.recovery_kernel
    monkeypatch.setattr(dd_engine, "recovery_kernel", lambda *a: built.append(real(*a)) or built[-1])
    builds = {}
    problems = {"loop9": problem_named("loop9"), "loop12": problem_named("loop12")}
    problems.update((f"census{i}", p) for i, p in enumerate(census_like_problems()))
    for name, problem in problems.items():
        masks = final_masks(problem)
        built.clear()
        kernel = final_recovery_kernel(problem, masks)
        builds[name] = len(built)
        assert kernel is built[-1]
        if len(built) == 2:
            in_order, reordered = built
            assert kernel_work(reordered, masks)[1] < kernel_work(in_order, masks)[1]
    assert builds.pop("loop9") == builds.pop("loop12") == 2
    assert sorted(builds.values()) == [1] * 19 + [2]


@pytest.mark.parametrize("name", ["gieseking", "onetet", "s2xs1", "loop9"])
def test_kernel_recovery_matches_the_reference_on_random_masks(name):
    """Uniform random masks, and masks near the final zero sets (one bit
    flipped, two of them ANDed, extra bits set): the same ray or both raise
    `InternalError`, with a whole-problem kernel and, on the masks that
    contain its zero set, with the kernel of part of a final zero set (in
    the input order and in a random one) and with the run's kernel (on
    loop9 the count-ordered one)."""
    problem = problem_named(name)
    d = problem.dim
    rng = random.Random(31)
    finals = final_masks(problem)
    masks = [rng.getrandbits(d) for _ in range(60)]
    masks += [rng.choice(finals) ^ 1 << rng.randrange(d) for _ in range(60)]
    masks += [rng.choice(finals) & rng.choice(finals) for _ in range(30)]
    masks += [rng.choice(finals) | rng.getrandbits(d) & rng.getrandbits(d) for _ in range(30)]
    rays = check_against_reference(problem, masks)
    assert 0 < rays < len(masks)
    zeros = rng.choice(finals) & rng.choice(finals) & rng.getrandbits(d)
    inside = [m for m in finals + masks if m & zeros == zeros]
    assert check_against_reference(problem, inside, recovery_kernel(problem, zeros)) > 0
    columns = [j for j in range(d) if not zeros >> j & 1]
    shuffled = recovery_kernel(problem, zeros, rng.sample(columns, len(columns)))
    assert check_against_reference(problem, inside, shuffled) > 0
    kernel = final_recovery_kernel(problem, finals)
    inside = [m for m in masks if m & kernel.zeros == kernel.zeros]
    assert check_against_reference(problem, inside, kernel) > 0


def test_kernel_recovery_edge_cases():
    """One unknown, a pivot entry other than 1, no unknown, nullity 2,
    mixed signs, a pivot coordinate left zero, a column in the kernel's
    zero set, and a column order: a permutation of the columns outside the
    kernel's zero set, or `ValueError`.  The run's kernel, with a column in
    every final zero set and with no final zero set at all."""
    line = EnumerationProblem(dim=2, equations=(sparse_row((1, -1)),), groups=())
    assert recovery_kernel(line) == (0, 0b1, {0: 1}, {1: [(0, -1)]})  # one unknown, y_1
    half = EnumerationProblem(dim=2, equations=(sparse_row((2, -1)),), groups=())
    assert recovery_kernel(half) == (0, 0b1, {0: 2}, {1: [(0, -1)]})  # x_0 = y_1 / 2
    for problem, mask, coords in ((line, 0, (1, 1)), (half, 0, (1, 2))):
        assert recover(problem, mask) == Ray(coords)
        assert check_against_reference(problem, [mask]) == 1
    refused = [
        (line, 0b10),  # no unknown left: only x = 0 solves it
        (EnumerationProblem(3, (sparse_row((1, -1, 0)),), ()), 0),  # nullity 2
        (EnumerationProblem(2, (sparse_row((1, 1)),), ()), 0),  # generator (1, -1)
        (EnumerationProblem(2, (sparse_row((1, 0)),), ()), 0),  # x_0 = 0 off the mask
    ]
    for problem, mask in refused:
        assert check_against_reference(problem, [mask]) == 0
    # x_2 = 0 on every ray: the kernel leaves column 2 out, and refuses a
    # mask that misses it.
    equations = (sparse_row((1, -1, 0)), sparse_row((0, 0, 1)))
    problem = EnumerationProblem(dim=3, equations=equations, groups=())
    kernel = recovery_kernel(problem, 0b100)
    assert kernel == (0b100, 0b1, {0: 1}, {1: [(0, -1)]})
    assert check_against_reference(problem, [0b100], kernel) == 1
    with pytest.raises(InternalError, match="recovery kernel left out"):
        recover(problem, 0, kernel)
    # Pivoting on column 1 first: x_1 = y_0, and the same ray.
    swapped = recovery_kernel(problem, 0b100, [1, 0])
    assert swapped == (0b100, 0b10, {1: -1}, {0: [(1, 1)]})
    assert recover(problem, 0b100, swapped) == recover(problem, 0b100, kernel) == Ray((1, 1, 0))
    for order in ([0], [1, 0, 0], [0, 2], [0, 1, 2], [1, 3]):
        with pytest.raises(ValueError, match="not a permutation"):
            recovery_kernel(problem, 0b100, order)
    # The run's kernel leaves out the column every final mask holds.
    assert final_masks(problem) == [0b100]
    assert final_recovery_kernel(problem, [0b100]) == kernel
    # No final vertex: x_0 + x_1 = 0 leaves only the origin, and the kernel
    # leaves out every column.
    origin = EnumerationProblem(dim=2, equations=(sparse_row((1, 1)),), groups=())
    assert final_masks(origin) == []
    assert run(origin)[0] == []
    assert final_recovery_kernel(origin, []) == recovery_kernel(origin, 0b11) == (0b11, 0, {}, {})


@pytest.mark.parametrize("name,filtering", [("s2xs1", True), ("s2xs1", False), ("loop9", True)])
def test_run_recovers_each_final_vertex_once(monkeypatch, name, filtering):
    """The contract a tracer that wraps `dd_engine`'s globals relies on:
    under `inner`, `run` calls `recover` once per final vertex, and
    `nullspace_generator` only inside a `recover` call, once each; under
    `full` it calls neither."""
    problem = problem_named(name)
    calls = Counter()
    depth = [0]
    real_recover, real_nullspace = dd_engine.recover, dd_engine.nullspace_generator

    def counted_recover(*args, **kwargs):
        calls["recover"] += 1
        depth[0] += 1
        try:
            return real_recover(*args, **kwargs)
        finally:
            depth[0] -= 1

    def counted_nullspace(*args, **kwargs):
        calls["nullspace inside recover" if depth[0] else "nullspace outside recover"] += 1
        return real_nullspace(*args, **kwargs)

    monkeypatch.setattr(dd_engine, "recover", counted_recover)
    monkeypatch.setattr(dd_engine, "nullspace_generator", counted_nullspace)
    for representation in ("inner", "full"):
        calls.clear()
        final = final_masks(problem, RunConfig(representation=representation, filtering=filtering))
        if representation == "inner":
            assert calls == {"recover": len(final), "nullspace inside recover": len(final)}
        else:
            assert calls == {}


@pytest.mark.parametrize(
    "name,filtering,rays,eliminations",
    [("loop12", True, 323, 0), ("loop15", True, 1_365, 0), ("loop6", False, 393, 1_675)],
)
def test_recovery_eliminations_are_pinned(monkeypatch, name, filtering, rays, eliminations):
    """The row updates (`_eliminate`) made inside `recover` over a whole
    run.  A ray whose inside rows have n - 1 distinct lowest unknowns is
    solved from one row per lowest unknown, with none: every ray of loop12
    and loop15, and 85 of the 393 of the unfiltered n = 6 loop."""
    problem = problem_named(name)
    count = Counter()
    depth = [0]
    real_recover, real_eliminate = dd_engine.recover, exact_linalg._eliminate

    def counted_recover(*args):
        count["recover"] += 1
        depth[0] += 1
        try:
            return real_recover(*args)
        finally:
            depth[0] -= 1

    def counted_eliminate(*args):
        count["eliminate"] += depth[0] > 0
        return real_eliminate(*args)

    monkeypatch.setattr(dd_engine, "recover", counted_recover)
    monkeypatch.setattr(exact_linalg, "_eliminate", counted_eliminate)
    final, _ = run(problem, RunConfig(filtering=filtering))
    assert len(final) == count["recover"] == rays
    assert count["eliminate"] == eliminations


def test_recover_checks_every_inside_constraint(monkeypatch):
    """Pivots 0, 1 and 2 lie in the mask, so the unknowns x_3, x_4, x_5 must
    meet all three rows.  Any two of them leave one line, and only two go
    to `nullspace_generator`; the third does not vanish on that line, so
    the ray is refused, as the reference refuses it.  Without the third row
    the same mask gives a ray."""
    rows = [(1, 0, 0, 1, -1, 0), (0, 1, 0, 0, 1, -1), (0, 0, 1, 1, 0, 1)]
    mask = 0b111
    two = EnumerationProblem(dim=6, equations=tuple(map(sparse_row, rows[:2])), groups=())
    assert recover(two, mask) == Ray((0, 0, 0, 1, 1, 1))
    problem = EnumerationProblem(dim=6, equations=tuple(map(sparse_row, rows)), groups=())
    given = []
    real = dd_engine.nullspace_generator

    def recorded(rows, ncols):
        given.append(list(rows))
        return real(given[-1], ncols)

    monkeypatch.setattr(dd_engine, "nullspace_generator", recorded)
    with pytest.raises(InternalError, match="one-dimensional"):
        recover(problem, mask)
    assert [len(r) for r in given] == [2]
    assert check_against_reference(problem, [mask]) == 0


def two_limb_cone(seed, bits=40):
    """A seeded cone on 9 coordinates.  Three sparse rows with coefficients
    of `bits` + 1 bits act on coordinates 0-5; at 41 bits their
    combinations get values of two limbs.  The fourth row, positive on 0-5,
    then leaves only vertices on 6-8, and the fifth is small."""
    rng = random.Random(seed)
    rows = []
    for _ in range(3):
        row = [0] * 9
        for j in rng.sample(range(6), 3):
            row[j] = rng.choice([-1, 1]) * rng.randrange(1 << bits, 1 << (bits + 1))
        rows.append(tuple(row))
    rows.append((1,) * 6 + (0, 0, 0))
    rows.append((0,) * 6 + (1, 1, -1))
    return EnumerationProblem(9, tuple(map(sparse_row, rows)), ())


def recounted_bytes(masks, store, dim):
    """The bytes a stage holds, recounted from its masks and value store:
    whole bytes of the dimension a mask, and each value as its array item,
    or, in a list, as 8 bytes per 64-bit limb."""
    if isinstance(store, array):
        values = len(store.tobytes())
    else:
        values = sum(8 * max(1, -(-abs(x).bit_length() // 64)) for x in store)
    return len(masks) * -(-dim // 8) + values


def check_stage_bytes(problem, config):
    """Run with a `stage_hook` that checks every `Stage.mem_bytes`, and
    `RunStats.initial`'s figure for V_0, against `recounted_bytes`.
    Returns the kinds of store the stages held (a typecode, None for a
    list) and the largest |x| they stored."""
    d = problem.dim
    kinds = set()
    top = 0

    def hook(state):
        nonlocal top
        assert state.stats.stages[-1].mem_bytes == recounted_bytes(state.masks, state.store, d)
        kinds.add(getattr(state.store, "typecode", None))
        top = max(top, max(map(abs, state.store), default=0))

    _, stats = run(problem, config, stage_hook=hook)
    assert len(stats.stages) == len(problem.equations)
    assert stats.initial[1] == recounted_bytes(*init_vertices(problem, config.representation), d)
    return kinds, top


@pytest.mark.parametrize("representation", ["inner", "full"])
@pytest.mark.parametrize("name,filtering", FIXTURE_RUNS + [("loop12", True), ("loop6", False)])
def test_stage_memory_proxy_equals_a_full_recount(name, filtering, representation):
    """The figure of V_0 and of every stage equals a recount of the bytes
    its masks and value store hold.  Every value of the fixtures, of
    filtered loop12 and of unfiltered loop6 (the benchmark's loops) fits in
    a signed byte, so it is the array branch, which reads no value."""
    config = RunConfig(representation=representation, filtering=filtering)
    assert check_stage_bytes(problem_named(name), config)[0] == {"b"}


@pytest.mark.parametrize("representation", ["inner", "full"])
def test_stage_memory_proxy_follows_two_limb_values(representation):
    """`two_limb_cone` stores values of two 64-bit limbs, so its store
    becomes a list, whose figure counts the limbs of every value; the
    recount holds at every stage."""
    config = RunConfig(representation=representation, ordering=parse_strategy("input"))
    kinds, top = check_stage_bytes(two_limb_cone(10), config)
    assert None in kinds and top >= 2**64


def run_recording_kinds(problem, config):
    """`run`, with the kind of store of V_0, V_1, ... (V_0 from
    `init_vertices`, which `run` calls through the module)."""
    kinds = [getattr(init_vertices(problem, config.representation)[1], "typecode", None)]
    rays, stats = run(problem, config, stage_hook=lambda s: kinds.append(getattr(s.store, "typecode", None)))
    return rays, stats, kinds


def run_on_a_list_store(problem, config, monkeypatch):
    """`run` with V_0 handed over as a list, the store past signed bytes,
    so that no store is ever an array and every combination takes the list
    arithmetic."""
    real = dd_engine.init_vertices

    def as_list(problem, representation):
        masks, store = real(problem, representation)
        return masks, list(store)

    with monkeypatch.context() as patch:
        patch.setattr(dd_engine, "init_vertices", as_list)
        return run(problem, config)


def assert_same_run_as_on_a_list_store(rays, stats, listed):
    """`rays` and `stats` against `listed`, the same run on a list store:
    the same rays and `Stage` records save `mem_bytes`, which follows the
    kind of store.  A list charges at least 8 bytes a value and an array at
    most 8, so the list's figure is at least as large, V_0's too."""
    listed_rays, listed_stats = listed
    assert rays == listed_rays
    assert [s._replace(mem_bytes=0) for s in stats.stages] == [
        s._replace(mem_bytes=0) for s in listed_stats.stages
    ]
    assert stats.initial[0] == listed_stats.initial[0]
    figures = [stats.initial[1], *(s.mem_bytes for s in stats.stages)]
    listed_figures = [listed_stats.initial[1], *(s.mem_bytes for s in listed_stats.stages)]
    assert all(x <= y for x, y in zip(figures, listed_figures, strict=True))


def chain_cone(c, rows):
    """c*x_j = x_{j+1} for j < `rows`: one ray, (1, c, c^2, ...)."""
    equations = []
    for j in range(rows):
        row = [0] * (rows + 1)
        row[j], row[j + 1] = c, -1
        equations.append(sparse_row(row))
    return EnumerationProblem(rows + 1, tuple(equations), ())


def test_value_store_widens_through_every_kind(monkeypatch):
    """Under `full` the chain's coordinates grow by 127 a stage, 127^11
    at the end, and the store goes through both kinds in order: signed
    bytes, then a list, never back.  The run is the one a list store from
    V_0 on gives, save the bytes held, and the ray is the oracle's."""
    problem = chain_cone(127, 11)
    config = RunConfig(representation="full", ordering=parse_strategy("input"))
    rays, stats, kinds = run_recording_kinds(problem, config)
    assert list(dict.fromkeys(kinds)) == ["b", None]
    assert kinds == sorted(kinds, key=lambda kind: kind is None)
    assert coords_of(rays) == [tuple(127**j for j in range(12))] == coords_of(brute_force_rays(problem))
    assert_same_run_as_on_a_list_store(rays, stats, run_on_a_list_store(problem, config, monkeypatch))


@pytest.mark.parametrize("bits,widest", [(2, "b"), (3, None), (7, None), (15, None), (40, None)])
def test_value_store_widening_changes_no_result(bits, widest, monkeypatch):
    """`two_limb_cone` with its coefficients scaled so that the widest
    value a `full` run stores fits in signed bytes (`widest` "b"), or in
    16, 32 or 64 bits, or in none of them: past a byte the store is a list
    (None).  Under both representations the store never turns back from a
    list to bytes, the bytes held equal a recount at every stage, the rays
    and every `Stage` record save the bytes are those of a run on a list
    store from V_0 on, and the two representations give the oracle's
    rays."""
    problem = two_limb_cone(10, bits)
    want = coords_of(brute_force_rays(problem))
    for representation in ("inner", "full"):
        config = RunConfig(representation=representation, ordering=parse_strategy("input"))
        rays, stats, kinds = run_recording_kinds(problem, config)
        assert kinds == sorted(kinds, key=lambda kind: kind is None)
        if representation == "full":
            assert kinds[-1] == widest
        assert coords_of(rays) == want
        assert_same_run_as_on_a_list_store(rays, stats, run_on_a_list_store(problem, config, monkeypatch))
        check_stage_bytes(problem, config)


LOOP9 = standard_matching_equations(parse_triangulation((FIXTURES / "loop9.tri").read_text()))
LOOP12 = standard_matching_equations(parse_triangulation((FIXTURES / "loop12.tri").read_text()))


def totals(stats):
    """The pair counters of a run's `Stage` records, summed over the stages."""
    names = ("pairs", "compatible", "bulk", "tested", "certified", "adjacent")
    return {name: sum(getattr(s, name) for s in stats.stages) for name in names}


@pytest.mark.parametrize("representation,peak", [("inner", 7_272), ("full", 26_625)])
def test_loop9_work_counters_are_pinned(representation, peak):
    """Deterministic work counters on loop9 under the default configuration;
    a change to any predicate or to the bytes a stage holds moves one of
    them."""
    rays, stats = run(LOOP9, RunConfig(representation=representation))
    assert len(rays) == 77
    # Of the 44,656 pairs of S_+ x S_-, 8,693 are compatible (the rest are
    # never generated).  A witness of an earlier pair of the same u removes
    # 5,009 of those in bulk, 257 fail the prefilter and 3,427 are tested.
    # The zero-count certificate decides 2,187 of the tested pairs, so 1,240
    # are witness queries.
    counts = totals(stats)
    assert counts == dict(
        pairs=44_656, compatible=8_693, bulk=5_009, tested=3_427, certified=2_187,
        adjacent=2_518,
    )
    assert counts["compatible"] - counts["bulk"] - counts["tested"] == 257
    assert (stats.max_vertex_count, sum(stats.sizes)) == (375, 6_925)
    assert stats.stages[-1].sep == 44
    assert stats.peak_mem_bytes == peak


def test_index_agrees_with_the_rank_test_on_loop9():
    """On loop9's real stages (up to 375 vertices, several index bytes and
    30-bit partner chunks) the combinatorial test, which asks `zero_index`,
    and the rank test, which does not, decide every tested pair alike."""
    seen = {"comb": [], "alg": []}
    rays = {}
    for adjacency, audited in seen.items():
        rays[adjacency], _ = run(
            LOOP9, RunConfig(adjacency=adjacency), pair_audit=lambda *a: audited.append(a)
        )
    assert len(seen["comb"]) == 7_111
    assert seen["comb"] == seen["alg"]
    assert rays["comb"] == rays["alg"]


def test_loop12_pair_split_is_pinned():
    """The loop12 pairs by fate: 777,310 in S_+ x S_-, 85,622 compatible,
    68,462 of those removed in bulk by the witness of an earlier pair, 960
    rejected by the prefilter, 16,200 tested for adjacency and 11,103
    adjacent.  The zero-count certificate decides 9,701 of the tested
    pairs, so 6,499 are witness queries."""
    rays, stats = run(LOOP12)
    assert len(rays) == 323
    counts = totals(stats)
    assert counts == dict(
        pairs=777_310, compatible=85_622, bulk=68_462, tested=16_200, certified=9_701,
        adjacent=11_103,
    )
    assert counts["compatible"] - counts["bulk"] - counts["tested"] == 960
    assert stats.max_vertex_count == 1_585


@pytest.mark.parametrize("adjacency", ["comb", "alg"])
@pytest.mark.parametrize("representation", ["inner", "full"])
@pytest.mark.parametrize("name,filtering", FIXTURE_RUNS)
def test_stage_records_add_up(name, filtering, representation, adjacency):
    """Each stage's record against what the hooks saw: S_0, S_+ and S_-
    split V_{i-1}, and the adjacent pairs are the vertices V_i adds to S_0.
    `pair_audit` hears every pair that passes the prefilter: the tested ones
    and the ones removed in bulk that would have passed.  The group filter
    passes at most |S_+| * |S_-| pairs (all of them with filtering off), and
    they split into `bulk`, prefilter rejections and `tested`; with the
    prefilter off, into `bulk` and `tested` alone.  Only `comb` removes
    pairs in bulk or certifies pairs by their zero counts, and a certified
    pair is adjacent."""
    problem = problem_named(name)
    for prefilter in ("extended", "off"):
        config = RunConfig(
            representation=representation,
            adjacency=adjacency,
            filtering=filtering,
            dim_prefilter=prefilter,
        )
        sizes = [problem.dim]  # V_0: the unit rays
        audited, adjacent = Counter(), Counter()

        def audit(processed_count, sep_before, zero_count, is_adjacent):
            audited[processed_count] += 1
            adjacent[processed_count] += is_adjacent

        _, stats = run(
            problem, config, pair_audit=audit, stage_hook=lambda s: sizes.append(len(s.vertices))
        )
        assert stats.sizes == sizes
        assert len(stats.stages) == len(problem.equations)
        for i, stage in enumerate(stats.stages):
            assert stage.s0 + stage.s_pos + stage.s_neg == sizes[i]
            assert stage.certified <= stage.adjacent == adjacent[i] <= stage.tested
            assert stage.tested <= audited[i] <= stage.tested + stage.bulk
            assert stage.bulk + stage.tested <= stage.compatible <= stage.pairs
            if prefilter == "off":
                assert stage.bulk + stage.tested == audited[i] == stage.compatible
            if not filtering:
                assert stage.compatible == stage.pairs
            if adjacency == "alg":
                assert stage.bulk == stage.certified == 0


def test_compatible_counts_equal_a_brute_force_count():
    """Per stage, the partner bitsets hold exactly the compatible pairs, and
    with filtering off every pair of S_+ x S_- is a partner."""
    problem = standard_matching_equations(
        parse_triangulation((FIXTURES / "s2xs1.tri").read_text())
    )
    needs = group_needs(problem.groups)
    for filtering in (True, False):
        want = []
        state = initial_state(problem, "inner", filtering=filtering)
        for k in range(len(problem.equations)):
            values = hyperplane_values(state, k)
            pos = [mask for mask, t in zip(state.masks, values) if t > 0]
            neg = [mask for mask, t in zip(state.masks, values) if t < 0]
            want.append(
                sum(1 for u in pos for w in neg if not filtering or compatible(u & w, needs))
            )
            state = step(state, k)
        assert [s.compatible for s in state.stats.stages] == want
        if not filtering:
            assert want == state.stats.pair_counts


@pytest.mark.parametrize("name", ["gieseking", "onetet", "s2xs1", "loop9"])
def test_every_working_vertex_is_compatible_on_its_own(name):
    """The invariant the group filter relies on: with filtering on, every
    vertex of every stage has at most one non-zero per group."""
    problem = problem_named(name)
    needs = group_needs(problem.groups)
    _, _, trace = run_tracing_zero_sets(problem)
    assert len(trace) == len(problem.equations)
    for stage in [init_vertices(problem, "inner")[0], *trace]:
        assert all(compatible(mask, needs) for mask in stage)


@pytest.mark.parametrize("adjacency", ["comb", "alg"])
def test_one_zero_index_per_stage_with_both_sides(monkeypatch, adjacency):
    """Each stage whose S_+ and S_- are both non-empty builds one index over
    all of V_{i-1}; the other stages build none."""
    builds = []
    real = dd_engine.zero_index

    def counted(masks, dim):
        builds.append(len(masks))
        return real(masks, dim)

    monkeypatch.setattr(dd_engine, "zero_index", counted)
    _, stats = run(GIESEKING if adjacency == "alg" else LOOP9, RunConfig(adjacency=adjacency))
    seps = [0, *(s.sep for s in stats.stages)]  # sep grows exactly at the stages with both sides
    assert builds == [stats.sizes[i] for i in range(len(stats.stages)) if seps[i + 1] > seps[i]]


def test_run_empty_equations():
    p = EnumerationProblem(dim=3, equations=(), groups=())
    rays, stats = run(p)
    assert coords_of(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert stats.sizes == [3]
    assert [s.hyperplane for s in stats.stages] == []


entries = st.integers(min_value=-2, max_value=2)


@st.composite
def small_problems(draw, with_groups=False):
    d = draw(st.integers(min_value=3, max_value=7))
    nrows = draw(st.integers(min_value=1, max_value=3))
    equations = tuple(
        sparse_row(tuple(draw(entries) for _ in range(d))) for _ in range(nrows)
    )
    groups = ()
    if with_groups and d >= 3:
        start = draw(st.integers(min_value=0, max_value=d - 3))
        groups = ((start, start + 1, start + 2),)
    return EnumerationProblem(dim=d, equations=equations, groups=groups)


@settings(max_examples=60, deadline=None)
@given(small_problems())
def test_engine_matches_oracle_unfiltered(problem):
    rays, _ = run(problem, RunConfig(filtering=False))
    assert coords_of(rays) == coords_of(brute_force_rays(problem))


@settings(max_examples=60, deadline=None)
@given(small_problems(with_groups=True))
def test_engine_matches_oracle_filtered(problem):
    rays, _ = run(problem)
    assert coords_of(rays) == coords_of(brute_force_filtered(problem))


@settings(max_examples=30, deadline=None)
@given(small_problems(with_groups=True))
def test_representations_agree(problem):
    full, _ = run(problem, RunConfig(representation="full"))
    inner, _ = run(problem, RunConfig(representation="inner"))
    assert coords_of(full) == coords_of(inner)


def reference_step(state, k):
    """V_i as (zero sets, value rows), |S_+| * |S_-|, the compatible pair
    count and the (zero count, adjacent) verdicts of the pairs that pass the
    prefilter, of one stage, from a plain double loop over S_+ x S_- with
    the linear witness scan."""
    problem, cfg = state.problem, state.config
    values = hyperplane_values(state, k)
    drop = state.remaining.index(k) if cfg.representation == "inner" else None
    needs = group_needs(problem.groups) if cfg.filtering else []
    need = prefilter_need(cfg.dim_prefilter, len(state.processed), state.sep, problem.dim)
    masks = state.masks
    out_masks, out_rows, pos, neg = [], [], [], []
    for mask, row, t in zip(masks, list(state.vertices), values):
        if t == 0:
            out_masks.append(mask)
            out_rows.append(row if drop is None else row[:drop] + row[drop + 1:])
        else:
            (pos if t > 0 else neg).append((mask, row, t))
    compatible_pairs = 0
    verdicts = []
    for u_mask, u, a in pos:
        for w_mask, w, b in neg:
            inter = u_mask & w_mask
            if not compatible(inter, needs):
                continue
            compatible_pairs += 1
            if inter.bit_count() < need:
                continue
            adjacent = brute_adjacent(u_mask, w_mask, masks)
            verdicts.append((inter.bit_count(), adjacent))
            if adjacent:
                out_masks.append(inter)
                out_rows.append(reference_combine(u, w, a, b, drop))
    return (out_masks, out_rows), len(pos) * len(neg), compatible_pairs, verdicts


@st.composite
def grouped_problems(draw):
    """Random problems with d <= 12 and disjoint groups of 1-4 coordinates."""
    d = draw(st.integers(min_value=3, max_value=12))
    nrows = draw(st.integers(min_value=1, max_value=4))
    equations = tuple(sparse_row(tuple(draw(entries) for _ in range(d))) for _ in range(nrows))
    coords = draw(st.permutations(range(d)))
    groups, at = [], 0
    while at < d and draw(st.integers(0, 4)) > 0:
        size = draw(st.integers(1, 4))
        groups.append(tuple(sorted(coords[at:at + size])))
        at += size
    return EnumerationProblem(dim=d, equations=equations, groups=tuple(groups))


# The `comb` cases keep bare ids (`[True-inner]`); the `alg` ones add `-alg`.
@pytest.mark.parametrize(
    "representation,adjacency",
    [("inner", "comb"), ("full", "comb"), ("inner", "alg"), ("full", "alg")],
    ids=["inner", "full", "inner-alg", "full-alg"],
)
@pytest.mark.parametrize("filtering", [True, False])
@settings(max_examples=40, deadline=None)
@given(problem=grouped_problems(), prefilter=st.sampled_from(PREFILTER_MODES))
def test_step_matches_a_brute_force_stage(problem, prefilter, filtering, representation, adjacency):
    state = initial_state(
        problem, representation, filtering=filtering, dim_prefilter=prefilter, adjacency=adjacency
    )
    for k in range(len(problem.equations)):
        want, pairs, compatible_pairs, verdicts = reference_step(state, k)
        heard = []
        audited = step(replace(state, stats=RunStats()), k, pair_audit=lambda *a: heard.append(a[2:]))
        state = step(state, k)
        assert (state.masks, list(state.vertices)) == (audited.masks, list(audited.vertices)) == want
        last = state.stats.stages[-1]
        assert audited.stats.stages == [last]
        assert [last.pairs, last.compatible] == [pairs, compatible_pairs]
        # `pair_audit` hears the verdicts of the pairs that pass the
        # prefilter, those removed in bulk too, in double-loop order.
        assert heard == verdicts
        assert last.tested <= len(heard) <= last.tested + last.bulk


def test_lane_rows_stop_once_a_combination_widens_the_store(monkeypatch):
    """A hand-built `inner` stage of signed bytes where the first
    combination, (0, 200, 1), turns the new store into a list: the next
    one, (0, 1, 1), which the lanes would certify, goes to `combine` too,
    as a lane row of bytes no longer fits the store."""
    rows = [[1, 100, 1], [1, -99, 1], [-1, 100, 0]]
    masks = [0b0110, 0b0101, 0b0011]  # each pair is adjacent, by any test
    problem = EnumerationProblem(4, (sparse_row((0,) * 4),) * 3, ())
    config = RunConfig(filtering=False, dim_prefilter="off")
    state = EngineState(problem, config, masks, store_of(rows), [], [0, 1, 2], 0, RunStats())
    want, _, _, _ = reference_step(state, 0)
    made = recording_lanes(monkeypatch)
    after = step(state, 0)
    assert (after.masks, list(after.vertices)) == want
    assert want[1][-2:] == [[200, 1], [1, 1]] and type(after.store) is list
    assert made == [(1, False)]


@pytest.mark.parametrize("representation", ["inner", "full"])
def test_step_matches_a_brute_force_stage_on_census_like_instances(representation, monkeypatch):
    """Every stage of the census-size instances of
    `test_census_like_work_counters_are_pinned`, in `run`'s order, against
    `reference_step`: there the stores hold signed bytes, and `lane_rows`
    builds rows with k = 1, 2 and 3, and leaves some to `combine`."""
    made = recording_lanes(monkeypatch)
    for problem in census_like_problems():
        state = initial_state(problem, representation)
        for k in order_static(problem, state.config.ordering):
            want, pairs, compatible_pairs, _ = reference_step(state, k)
            state = step(state, k)
            assert (state.masks, list(state.vertices)) == want
            last = state.stats.stages[-1]
            assert [last.pairs, last.compatible] == [pairs, compatible_pairs]
            assert state.store.typecode == "b"
    built = Counter(k for k, lane_built in made if lane_built)
    assert built[1] and built[2] and built[3]
    assert not all(lane_built for _, lane_built in made)


def test_bulk_removed_pairs_on_loop9_are_not_adjacent():
    """With the prefilter off, `pair_audit` hears every compatible pair,
    the ones removed in bulk too.  On every stage of loop9 its verdicts are
    those of the linear witness scan, pair by pair in double-loop order, so
    every pair a witness removed in bulk is non-adjacent."""
    config = RunConfig(dim_prefilter="off")
    state = initial_state(LOOP9, "inner", dim_prefilter="off")
    for k in order_static(LOOP9, config.ordering):
        want, _, compatible_pairs, verdicts = reference_step(state, k)
        heard = []
        state = step(state, k, pair_audit=lambda *a: heard.append(a[2:]))
        assert (state.masks, list(state.vertices)) == want
        assert heard == verdicts and len(heard) == compatible_pairs
    assert sum(s.bulk for s in state.stats.stages) > 0


def certified_pairs(state, k):
    """The pairs (Z(u), Z(w)) of S_+ x S_- of one stage that pass the group
    filter and the prefilter and that the zero-count certificate decides:
    one of the two zero sets has at most one zero outside the other."""
    problem, cfg = state.problem, state.config
    values = hyperplane_values(state, k)
    needs = group_needs(problem.groups) if cfg.filtering else []
    need = prefilter_need(cfg.dim_prefilter, len(state.processed), state.sep, problem.dim)
    pos = [mask for mask, t in zip(state.masks, values) if t > 0]
    neg = [mask for mask, t in zip(state.masks, values) if t < 0]
    return [
        (u, w)
        for u in pos
        for w in neg
        if compatible(u & w, needs) and (u & w).bit_count() >= need
        and ((u & ~w).bit_count() <= 1 or (w & ~u).bit_count() <= 1)
    ]


def check_certificate(state, order):
    """Steps the state through `order`, checking at every stage that each
    pair the certificate decides is adjacent under the linear witness scan
    of `reference_step`, and that `Stage.certified` counts exactly those
    pairs: none is removed in bulk, since a witness removes only
    non-adjacent ones.  Returns their number over the run."""
    total = 0
    for k in order:
        pairs = certified_pairs(state, k)
        assert all(brute_adjacent(u, w, state.masks) for u, w in pairs), k
        state = step(state, k)
        assert state.stats.stages[-1].certified == len(pairs), k
        total += len(pairs)
    return total


@pytest.mark.parametrize("filtering", [True, False])
@settings(max_examples=60, deadline=None)
@given(problem=grouped_problems(), prefilter=st.sampled_from(PREFILTER_MODES))
def test_certified_pairs_are_adjacent_on_every_stage_run_reaches(problem, prefilter, filtering):
    """The zero-count certificate is exact on the states `run` builds, whose
    vertices are extreme rays of the cone so far: on random grouped
    problems, in `run`'s order, every pair it decides has no witness."""
    config = RunConfig(filtering=filtering, dim_prefilter=prefilter)
    state = initial_state(problem, "inner", filtering=filtering, dim_prefilter=prefilter)
    check_certificate(state, order_static(problem, config.ordering))


def test_certified_pairs_are_adjacent_on_every_stage_of_loop9():
    """The same on every stage of loop9 (up to 375 vertices): the 2,187
    certified pairs are all adjacent under the linear witness scan."""
    state = initial_state(LOOP9, "inner")
    assert check_certificate(state, order_static(LOOP9, RunConfig().ordering)) == 2_187


# S_- of `sparse_stage`: on both sides of the 30-bit chunk boundaries at 30,
# 60 and 90, and with whole chunks empty before 179, 269 and 389.
SPARSE_NEGATIVES = (29, 30, 59, 60, 89, 90, 179, 180, 269, 299, 389)


def sparse_stage(prefilter):
    """A hand-built `inner` stage of 400 vertices over 36 coordinates, S_-
    at `SPARSE_NEGATIVES` and S_+ at every ninth position: a third of its
    pairs are adjacent, and the witnesses of the others remove partners in
    bulk.  The first 32 coordinates hold pairwise distinct random zero
    sets.  The last four mark the sides: S_+ is zero on 32 and 33, S_- on
    34 and 35, S_0 on all four.  So each vertex of a pair has two zeros the
    other lacks, and the zero-count certificate, which is exact only on the
    extreme rays `run` builds, decides no pair: the index decides them all."""
    rng = random.Random(7)
    dim = 36
    masks = []
    while len(masks) < 400:
        mask = sum(1 << j for j in range(32) if rng.random() < 0.7)
        if mask not in masks:
            masks.append(mask)
    rows = []
    for i in range(len(masks)):
        if i in SPARSE_NEGATIVES:
            t = -rng.randint(1, 3)
            masks[i] |= 0b1100 << 32
        else:
            t = rng.randint(1, 3) if i % 9 == 4 else 0
            masks[i] |= (0b0011 if t else 0b1111) << 32
        rows.append([t, rng.randint(-3, 3)])
    problem = EnumerationProblem(dim, (sparse_row((0,) * dim),) * 2, ())
    config = RunConfig(dim_prefilter=prefilter, filtering=False)
    # sep 19: the extended prefilter asks for 15 common zeros, about the mean.
    return EngineState(problem, config, masks, store_of(rows), [], [0, 1], 19, RunStats())


@pytest.mark.parametrize("prefilter", ["off", "extended"])
def test_walk_jumps_empty_chunks_exactly(prefilter):
    """The partner walk jumps over empty 30-bit chunks to the chunk of the
    lowest partner left; a jump one chunk too far would lose the partners at
    29 mod 30 (or all but those at 0 mod 30), which V_i and the
    `pair_audit` stream of a plain double loop would show."""
    state = sparse_stage(prefilter)
    want, _, _, verdicts = reference_step(state, 0)
    heard = []
    after = step(state, 0, pair_audit=lambda *a: heard.append(a[2:]))
    assert (after.masks, list(after.vertices)) == want
    assert heard == verdicts
    stage = after.stats.stages[-1]
    assert (stage.s_pos, stage.s_neg) == (44, len(SPARSE_NEGATIVES))
    assert stage.bulk > 0 and stage.adjacent > 0
    assert stage.certified == 0


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bulk_removal_by_the_returned_witness_is_exact(dim, data):
    """For every non-adjacent pair (u, w) of pairwise distinct zero sets,
    every position that the query of `step` with the witness p that
    `adjacent_combinatorial` returns would remove, `avoiding(Z(u) &
    ~Z(p))` but p, u and w, is non-adjacent to u under the linear scan."""
    masks = list(dict.fromkeys(data.draw(witness_masks(dim))))
    containing, avoiding = zero_index(masks, dim)
    for u, w in product(range(len(masks)), repeat=2):
        if u == w:
            continue
        p = adjacent_combinatorial(u, w, masks[u] & masks[w], containing)
        if p is None:
            continue
        for i in bits_at(avoiding(masks[u] & ~masks[p]), len(masks)):
            if i not in (p, u, w):
                assert not brute_adjacent(masks[u], masks[i], masks), (u, w, p, i)


@pytest.mark.slow
def test_loop15_work_counters_are_pinned():
    """loop15's pairs by fate under the default configuration, so that any
    change to the adjacency work shows: 13,836,788 in S_+ x S_-, 954,507
    compatible, 875,994 removed in bulk, 74,467 tested, 41,667 of those
    decided by the zero-count certificate, and 47,596 adjacent."""
    problem = standard_matching_equations(
        parse_triangulation((FIXTURES / "loop15.tri").read_text())
    )
    rays, stats = run(problem)
    assert len(rays) == 1_365
    assert totals(stats) == dict(
        pairs=13_836_788, compatible=954_507, bulk=875_994, tested=74_467, certified=41_667,
        adjacent=47_596,
    )
    assert stats.max_vertex_count == 6_711


@pytest.mark.parametrize("representation", ["inner", "full"])
@pytest.mark.parametrize("name,filtering", FIXTURE_RUNS)
def test_zero_sets_of_every_stage_are_pairwise_distinct(name, filtering, representation):
    """The invariant bulk elimination relies on: the vertices of each V_i
    are distinct extreme rays, so their zero sets are pairwise distinct."""
    config = RunConfig(representation=representation, filtering=filtering)
    _, _, trace = run_tracing_zero_sets(problem_named(name), config)
    for masks in trace:
        assert len(set(masks)) == len(masks)
