"""Tests for the incremental enumeration engine."""

import random
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conedd import dd_engine
from conedd.cone_problem import EnumerationProblem, admissible, parse_cone
from conedd.dd_engine import (
    PREFILTER_MODES,
    EngineState,
    GroupTable,
    RunConfig,
    RunStats,
    Vertex,
    adjacent_algebraic,
    adjacent_combinatorial,
    combine,
    group_partners,
    hyperplane_values,
    init_vertices,
    prefilter_need,
    recover,
    run,
    stage_bytes,
    step,
    vertex_bytes,
    zero_index,
)
from conedd.errors import InternalError
from conedd.exact_linalg import dot
from conedd.oracle import brute_force_filtered, brute_force_rays
from conedd.ordering import parse_strategy
from conedd.triangulation import parse_triangulation, standard_matching_equations
from conedd.zeroset import group_mask, zero_mask

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
    vertices = init_vertices(problem, representation)
    g = len(problem.equations)
    return EngineState(problem, config, vertices, [], list(range(g)), 0, RunStats())


def vertex(coords):
    """A `full` vertex with the given coordinates."""
    return Vertex(zero_mask(coords), list(coords))


def test_init_vertices_full():
    vs = init_vertices(GIESEKING, "full")
    assert [v.values for v in vs] == [[1 if i == j else 0 for i in range(7)] for j in range(7)]
    assert all(v.mask == zero_mask(v.values) for v in vs)


def test_init_vertices_inner():
    vs = init_vertices(GIESEKING, "inner")
    for j, v in enumerate(vs):
        assert v.values == [GIESEKING.equations[k][j] for k in range(5)]
        assert v.mask == ((1 << 7) - 1) ^ (1 << j)
    # Column 0 of the fixture: only the last equation touches coordinate 0.
    assert vs[0].values == [0, 0, 0, 0, 1]


def test_representations_agree_on_hyperplane_values():
    full = initial_state(GIESEKING, "full")
    inner = initial_state(GIESEKING, "inner")
    for k in range(5):
        assert hyperplane_values(full, k) == hyperplane_values(inner, k)
    # After a step the inner vertices hold one product fewer, stored in the
    # order of `remaining`, and still agree with the coordinates.
    full, inner = step(full, 2), step(inner, 2)
    assert inner.remaining == full.remaining == [0, 1, 3, 4]
    assert all(len(v.values) == 4 for v in inner.vertices)
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
    assert after.vertices == state.vertices[:5]
    assert after.stats.pair_counts == [1]


def test_compatible():
    needs = group_needs(GIESEKING.groups)
    e0, e4, e5 = (init_vertices(GIESEKING, "full")[j] for j in (0, 4, 5))
    # e4 + e5 would have two nonzero quadrilateral coordinates: incompatible.
    assert not compatible(e4.mask & e5.mask, needs)
    assert compatible(e0.mask & e4.mask, needs)
    assert compatible(e0.mask & e0.mask, needs)


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


def adjacency_over(masks):
    """The combinatorial adjacency test over the zero sets `masks`, with the
    hint `step` gives the first pair of each u: Z(u), which is never a
    witness."""
    containing = zero_index(masks)
    return lambda u, w: adjacent_combinatorial(u, w, masks, containing, u) is None


def test_adjacent_combinatorial_unit_rays():
    masks = [v.mask for v in init_vertices(GIESEKING, "full")]
    # Z(e5) & Z(e6) misses only coordinates 5 and 6; no other unit ray's
    # zero set contains it.
    assert adjacency_over(masks)(masks[5], masks[6])


def test_adjacent_combinatorial_witness():
    u = zero_mask((1, 0, 1, 0))
    w = zero_mask((0, 1, 0, 1))
    z = zero_mask((1, 1, 1, 1))
    assert adjacency_over([u, w])(u, w)
    # z's zero set (empty) contains Z(u) & Z(w) (also empty): witness found.
    assert not adjacency_over([u, w, z])(u, w)


def test_adjacent_combinatorial_skips_duplicates_of_pair():
    u = zero_mask((1, 0, 0))
    w = zero_mask((0, 1, 0))
    # A duplicate of u in the list must not count as a witness.
    assert adjacency_over([u, w, zero_mask((2, 0, 0))])(u, w)


def brute_containing(masks, key):
    """The superset scan: the positions whose mask contains `key`."""
    return sum(1 << i for i, z in enumerate(masks) if z & key == key)


def brute_adjacent(u, w, masks):
    """The linear witness scan: no third zero set contains Z(u) & Z(w)."""
    inter = u & w
    return not any(z & inter == inter and z != u and z != w for z in masks)


def group_needs(groups):
    """(member mask, members that must be zero) for each group."""
    return [(group_mask(group), len(group) - 1) for group in groups]


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
    masks = data.draw(witness_masks(dim, min_size=0))
    containing = zero_index(masks)
    top = max(masks, default=0).bit_length()
    keys = [0, 1 << top, 1 << dim, 1 << (dim + 64), (1 << (dim + 9)) - 1]
    keys += [u & w for u in masks for w in masks]
    keys += data.draw(st.lists(st.integers(0, (1 << dim) - 1), max_size=8))
    for key in keys:
        assert containing(key) == brute_containing(masks, key), key


def test_zero_index_edge_cases():
    assert zero_index([])(0) == 0
    assert zero_index([])(0b101) == 0
    masks = [0b011, 0b001, 0b011, 0]
    containing = zero_index(masks)
    assert containing(0) == 0b1111  # key 0 is in every mask
    assert containing(0b001) == 0b0111
    assert containing(0b011) == 0b0101  # both copies
    # Bits above every mask: inside the last 8-bit chunk, and beyond it
    # (where `to_bytes` would overflow).
    assert containing(0b100) == 0
    assert containing(1 << 8 | 1) == 0
    assert containing(1 << 200) == 0
    # All-zero masks: no chunk columns at all (width 0).
    containing = zero_index([0, 0, 0])
    assert containing(0) == 0b111
    assert containing(1) == containing(1 << 7) == containing(1 << 100) == 0
    # 5,000 positions: a translated column is a 5,000-digit base-2 string,
    # past CPython's 4,300-digit limit on int parsing, which exempts base 2.
    rng = random.Random(8)
    masks = [rng.getrandbits(84) for _ in range(5_000)]
    containing = zero_index(masks)
    keys = [0, 1 << 83, (1 << 84) - 1]
    keys += [rng.choice(masks) & rng.choice(masks) for _ in range(30)]
    keys += [rng.choice(masks) & rng.getrandbits(84) for _ in range(30)]
    keys += [1 << rng.randrange(84) | 1 << rng.randrange(84) for _ in range(30)]
    for key in keys:
        assert containing(key) == brute_containing(masks, key), key


@pytest.mark.parametrize("dim", DIMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_witness_index_matches_the_linear_scan(dim, data):
    """`adjacent_combinatorial` on a `zero_index` decides adjacency as the
    linear scan does, whatever mask of V_{i-1} the hint is (a witness, a
    copy of Z(u) or Z(w), Z(u) itself, a mask missing the key), and what it
    returns is a witness."""
    masks = data.draw(witness_masks(dim))
    containing = zero_index(masks)
    for u in masks:
        for w in masks:
            key = u & w
            for hint in masks:
                witness = adjacent_combinatorial(u, w, masks, containing, hint)
                assert (witness is None) == brute_adjacent(u, w, masks), (u, w, hint)
                if witness is not None:
                    assert witness in masks and witness & key == key
                    assert witness not in (u, w)
                    # The hint is tried first: it is returned iff it is a witness.
                    assert (witness == hint) == (hint & key == key and hint not in (u, w))


def test_hinted_adjacency_edge_cases():
    u, w = 0b0110, 0b1100
    masks = [u, w, u, w, 0b0001]
    containing = zero_index(masks)
    # Copies of Z(u) and Z(w) contain the key but are never returned, and
    # neither is a hint that misses it.
    for hint in masks:
        assert adjacent_combinatorial(u, w, masks, containing, hint) is None
    masks = [u, w, 0b1111, 0b0100]
    containing = zero_index(masks)
    assert adjacent_combinatorial(u, w, masks, containing, 0b0100) == 0b0100
    assert adjacent_combinatorial(u, w, masks, containing, u) == 0b1111  # the index's first
    # Key 0 and the only witness 0: the result is 0, not None.
    masks = [0b10, 0b01, 0]
    containing = zero_index(masks)
    assert adjacent_combinatorial(0b10, 0b01, masks, containing, 0b10) == 0
    assert adjacent_combinatorial(0b10, 0b01, masks, containing, 0) == 0


def test_step_reads_a_zero_witness_as_non_adjacent():
    """A witness whose zero set is empty still kills the pair: e0 and e1
    lie on either side of x0 = x1, and their common zero set (empty) is
    contained in that of (1, 1), which lies on it."""
    problem = EnumerationProblem(dim=2, equations=((1, -1),), groups=())
    config = RunConfig(representation="full", dim_prefilter="off")
    vertices = [vertex((1, 0)), vertex((0, 1)), vertex((1, 1))]
    after = step(EngineState(problem, config, vertices, [], [0], 0, RunStats()), 0)
    assert after.vertices == [vertex((1, 1))]
    assert after.stats.stages[-1].witness_hits == 0


def test_witness_index_ignores_duplicates_of_the_pair():
    u, w = 0b0110, 0b1100
    # Copies of Z(u) and Z(w) contain Z(u) & Z(w) but are never witnesses.
    assert adjacency_over([u, w, u, w, w])(u, w)
    assert not adjacency_over([u, w, u, 0b0100])(u, w)


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
    for _ in range(draw(st.integers(0, 16))):
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
    containing = zero_index(masks)
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
    containing = zero_index([clean, other, clean, zero])
    assert group_partners(containing, 0, groups)(clean) == 0  # empty S_-
    partners_of = group_partners(containing, 0b1111, groups)
    assert partners_of(clean) == 0b1101  # `other` is out
    assert partners_of(zero) == 0b1111  # zero on the group: every candidate
    assert group_partners(containing, 0b0110, groups)(clean) == 0b0100  # only S_-
    # A group of one coordinate never rejects anything.
    assert group_partners(zero_index([0b0111]), 1, groups)(0b0111) == 1


def test_adjacent_algebraic_matches_combinatorial_on_first_stage():
    state = initial_state(GIESEKING, "full")
    values = hyperplane_values(state, 0)
    masks = [v.mask for v in state.vertices]
    s_pos = [m for m, t in zip(masks, values) if t > 0]
    s_neg = [m for m, t in zip(masks, values) if t < 0]
    assert s_pos and s_neg
    adjacent = adjacency_over(masks)
    for u in s_pos:
        for w in s_neg:
            assert adjacent_algebraic(u, w, GIESEKING, []) == adjacent(u, w)


def test_combine_full():
    vs = init_vertices(GIESEKING, "full")
    # Row 0 is x6 - x5: e6 sits on the positive side, e5 on the negative.
    r = combine(vs[6], vs[5], 1, -1, None)
    assert r.values == [0, 0, 0, 0, 0, 1, 1]
    assert r.mask == bits_of(range(5))
    # The result is divided by the gcd of its values.
    assert combine(vs[6], vs[5], 2, -2, None).values == [0, 0, 0, 0, 0, 1, 1]


def test_combine_inner():
    full = init_vertices(GIESEKING, "full")
    inner = init_vertices(GIESEKING, "inner")
    rf = combine(full[6], full[5], 1, -1, None)
    ri = combine(inner[6], inner[5], 1, -1, 0)
    assert ri.mask == rf.mask
    # The processed hyperplane's product is dropped; the others are the
    # products of the combined coordinates with rows 1..4.
    assert ri.values == [dot(GIESEKING.equations[k], rf.values) for k in range(1, 5)]


def test_combine_requires_opposite_sides():
    vs = init_vertices(GIESEKING, "full")
    with pytest.raises(InternalError):
        combine(vs[5], vs[6], -1, 1, None)  # sides swapped
    with pytest.raises(InternalError):
        combine(vs[6], vs[5], 1, 0, None)  # w on the hyperplane


def test_forged_full_vertex_fails_the_zero_set_check():
    """A `full` vertex whose mask claims a zero its coordinates lack is
    caught when the engine combines it."""
    state = initial_state(GIESEKING, "full")
    e6 = state.vertices[6]
    forged = Vertex(e6.mask | 1 << 6, e6.values)
    with pytest.raises(InternalError, match="zero set"):
        combine(forged, state.vertices[5], 1, -1, None)
    state.vertices[6] = forged
    with pytest.raises(InternalError, match="zero set"):
        step(state, 0)


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
    assert stats.order == (0, 1, 2, 3, 4)
    assert stats.max_vertex_count == 7
    assert stats.final_count == 1
    assert stats.peak_mem_bytes == stats.initial[1] == 336  # V_0: 7 masks, 5 products each


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
        problem, config, stage_hook=lambda s: trace.append(sorted(v.mask for v in s.vertices))
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


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(adjacency="bogus")
    with pytest.raises(ValueError):
        RunConfig(representation="bogus")
    with pytest.raises(ValueError):
        RunConfig(dim_prefilter="bogus")


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
    p = EnumerationProblem(dim=2, equations=((1, 1),), groups=())
    with pytest.raises(InternalError):
        recover(p, 0)  # generator (1, -1) is mixed-sign
    p = EnumerationProblem(dim=3, equations=((1, -1, 0),), groups=())
    with pytest.raises(InternalError):
        recover(p, 0)  # nullity 2 again, on other columns


def test_vertex_bytes():
    assert vertex_bytes(vertex((1,) * 7), 7) == 8 + 7 * 8  # one mask word + seven 1-limb values
    assert vertex_bytes(vertex((2**100, 1, 0)), 3) == 8 + (2 + 1 + 1) * 8
    assert vertex_bytes(Vertex(1, [1, -1]), 7) == 8 + 2 * 8  # inner: two stored products
    assert vertex_bytes(Vertex(0, []), 7) == 8  # inner after the last stage
    # Limb boundaries on both sides of the fast path's range.
    assert vertex_bytes(Vertex(0, [2**64 - 1, -(2**64 - 1)]), 7) == 8 + 2 * 8
    assert vertex_bytes(Vertex(0, [2**64, 0]), 7) == 8 + 3 * 8
    assert vertex_bytes(Vertex(0, [-(2**64), 0]), 7) == 8 + 3 * 8


def test_stage_memory_proxy_counts_every_limb():
    """A stage holding a value of two limbs, an empty vertex and small ones
    is summed vertex by vertex; a stage of one-limb values in bulk."""
    stage = [Vertex(0b1, [1, -2]), Vertex(0b11, [2**64, 3]), Vertex(0b111, []), Vertex(0, [0])]
    total = sum(vertex_bytes(v, 70) for v in stage)
    assert stage_bytes(stage, 70) == (total, False) == (8 * (4 * 2 + 6), False)
    assert stage_bytes(stage[:1] + stage[2:], 70) == (8 * (3 * 2 + 3), True)
    # The limb boundaries on both sides, as in `vertex_bytes`.
    for big, limbs in ((2**64 - 1, 1), (-(2**64 - 1), 1), (2**64, 2), (-(2**64), 2)):
        got = stage_bytes([Vertex(0, [1]), Vertex(0, [0, big])], 70)
        assert got == (8 * (2 * 2 + 2 + limbs), limbs == 1), big


# The fixture runs that finish: every fixture filtered, and all but loop9
# unfiltered.
FIXTURE_RUNS = [(name, True) for name in ("gieseking", "onetet", "s2xs1", "loop9")] + [
    (name, False) for name in ("gieseking", "onetet", "s2xs1")
]


def problem_named(name):
    if name == "gieseking":
        return GIESEKING
    text = (FIXTURES / f"{name}.tri").read_text()
    return standard_matching_equations(parse_triangulation(text))


def two_limb_cone(seed):
    """A seeded cone on 9 coordinates.  Three sparse rows with coefficients
    of 41 bits act on coordinates 0-5, so their combinations get values of
    two limbs; the fourth row, positive on 0-5, then leaves only vertices on
    6-8, and the fifth is small."""
    rng = random.Random(seed)
    rows = []
    for _ in range(3):
        row = [0] * 9
        for j in rng.sample(range(6), 3):
            row[j] = rng.choice([-1, 1]) * rng.randrange(1 << 40, 1 << 41)
        rows.append(tuple(row))
    rows.append((1,) * 6 + (0, 0, 0))
    rows.append((0,) * 6 + (1, 1, -1))
    return EnumerationProblem(9, tuple(rows), ())


def check_stage_memory_proxy(problem, config):
    """Run with a `stage_hook` that recomputes the memory proxy of every
    stage from `vertex_bytes` and checks the stage's one-limb verdict.
    Returns the transitions of two-limb values seen: "appear" (a new vertex
    has one while V_{i-1} had none), "carried" (an S_0 vertex has one) and
    "disappear" (V_{i-1} had one, V_i has none)."""
    seen = set()
    prev = [initial_state(problem, config.representation)]  # V_0, as `run` builds it

    def two_limbs(vertices):
        return any(not -(2**64) < x < 2**64 for v in vertices for x in v.values)

    def hook(state):
        d = problem.dim
        assert state.stats.stages[-1].mem_bytes == sum(vertex_bytes(v, d) for v in state.vertices)
        assert state.one_limb == (not two_limbs(state.vertices))
        before, k = prev[-1], state.processed[-1]
        carried = hyperplane_values(before, k).count(0)  # S_0 leads V_i
        if not two_limbs(before.vertices) and two_limbs(state.vertices[carried:]):
            seen.add("appear")
        if two_limbs(state.vertices[:carried]):
            seen.add("carried")
        if two_limbs(before.vertices) and not two_limbs(state.vertices):
            seen.add("disappear")
        prev.append(state)

    _, stats = run(problem, config, stage_hook=hook)
    assert len(prev) == len(problem.equations) + 1
    assert stats.initial[1] == sum(vertex_bytes(v, problem.dim) for v in prev[0].vertices)
    return seen


@pytest.mark.parametrize("representation", ["inner", "full"])
@pytest.mark.parametrize("name,filtering", FIXTURE_RUNS)
def test_stage_memory_proxy_equals_a_full_recount(name, filtering, representation):
    """The proxy of every stage, which reads only the new vertices once V_{i-1}
    is known to hold one-limb values, equals the sum of `vertex_bytes`."""
    config = RunConfig(representation=representation, filtering=filtering)
    assert check_stage_memory_proxy(problem_named(name), config) == set()


@pytest.mark.parametrize("representation", ["inner", "full"])
def test_stage_memory_proxy_follows_two_limb_values(representation):
    """Two-limb values appear in new combinations, are carried in S_0 and
    disappear again, so `record` takes both branches, and the verdict
    returns to one limb for the last stage."""
    config = RunConfig(representation=representation, ordering=parse_strategy("input"))
    assert check_stage_memory_proxy(two_limb_cone(10), config) == {"appear", "carried", "disappear"}


def test_hand_built_state_gets_a_full_memory_scan():
    """A state built without a verdict is read in full: the S_0 vertex e_2
    keeps its two-limb product with the second row.  Claiming one limb for
    V_0 skips reading the S_0 values, which is what the verdict is for."""
    problem = EnumerationProblem(3, ((1, -1, 0), (0, 0, 2**70)), ())
    state = initial_state(problem, "inner")
    assert state.one_limb is False
    after = step(state, 0)
    assert [v.values for v in after.vertices] == [[2**70], [0]]
    assert [s.mem_bytes for s in after.stats.stages] == [8 * (2 * 1 + 2 + 1)]
    assert after.one_limb is False
    trusted = initial_state(problem, "inner")
    trusted.one_limb = True
    assert step(trusted, 0).stats.stages[-1].mem_bytes == 8 * (2 * 1 + 1 + 1)


stored = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64 - 2, max_value=2**64 + 1),
    st.integers(min_value=-(2**64) - 1, max_value=-(2**64) + 2),
    st.integers(min_value=-(2**200), max_value=2**200),
)


@given(st.lists(stored, max_size=6), st.integers(min_value=1, max_value=200))
def test_vertex_bytes_counts_every_limb(values, dim):
    limbs = sum(max(1, (abs(x).bit_length() + 63) // 64) for x in values)
    assert vertex_bytes(Vertex(0, values), dim) == 8 * ((dim + 63) // 64 + limbs)


LOOP9 = standard_matching_equations(parse_triangulation((FIXTURES / "loop9.tri").read_text()))
LOOP12 = standard_matching_equations(parse_triangulation((FIXTURES / "loop12.tri").read_text()))


def totals(stats):
    """The pair counters of a run's `Stage` records, summed over the stages."""
    names = ("pairs", "compatible", "tested", "adjacent", "witness_hits")
    return {name: sum(getattr(s, name) for s in stats.stages) for name in names}


@pytest.mark.parametrize("representation,peak", [("inner", 41_208), ("full", 192_000)])
def test_loop9_work_counters_are_pinned(representation, peak):
    """Deterministic work counters on loop9 under the default configuration;
    a change to any predicate or to the memory proxy moves one of them."""
    rays, stats = run(LOOP9, RunConfig(representation=representation))
    assert len(rays) == 77
    # Of the 44,656 pairs of S_+ x S_-, 8,693 are compatible (the rest are
    # never generated), 1,582 of those fail the prefilter and 7,111 are
    # tested.  2,794 of the 4,593 non-adjacent pairs are decided by the last
    # witness of the same u, without an index query.
    counts = totals(stats)
    assert counts == dict(
        pairs=44_656, compatible=8_693, tested=7_111, adjacent=2_518, witness_hits=2_794
    )
    assert counts["compatible"] - counts["tested"] == 1_582
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
    12,256 of those rejected by the prefilter, 73,366 tested for adjacency
    and 11,103 adjacent.  The last witness of the same u decides 47,456 of
    the 62,263 non-adjacent ones without an index query."""
    rays, stats = run(LOOP12)
    assert len(rays) == 323
    counts = totals(stats)
    assert counts == dict(
        pairs=777_310, compatible=85_622, tested=73_366, adjacent=11_103, witness_hits=47_456
    )
    assert counts["compatible"] - counts["tested"] == 12_256
    assert stats.max_vertex_count == 1_585


@pytest.mark.parametrize("adjacency", ["comb", "alg"])
@pytest.mark.parametrize("representation", ["inner", "full"])
@pytest.mark.parametrize("name,filtering", FIXTURE_RUNS)
def test_stage_records_add_up(name, filtering, representation, adjacency):
    """Each stage's record against what the hooks saw: S_0, S_+ and S_-
    split V_{i-1}, every tested pair is one `pair_audit` call, and the
    adjacent ones are the vertices V_i adds to S_0.  The group filter passes
    at most |S_+| * |S_-| pairs (all of them with filtering off), the
    prefilter at most those, and the hint decides only non-adjacent pairs."""
    problem = problem_named(name)
    config = RunConfig(representation=representation, adjacency=adjacency, filtering=filtering)
    sizes = [problem.dim]  # V_0: the unit rays
    tested, adjacent = Counter(), Counter()

    def audit(processed_count, sep_before, zero_count, is_adjacent):
        tested[processed_count] += 1
        adjacent[processed_count] += is_adjacent

    _, stats = run(
        problem, config, pair_audit=audit, stage_hook=lambda s: sizes.append(len(s.vertices))
    )
    assert stats.sizes == sizes
    assert len(stats.stages) == len(problem.equations)
    for i, stage in enumerate(stats.stages):
        assert stage.s0 + stage.s_pos + stage.s_neg == sizes[i]
        assert (stage.tested, stage.adjacent) == (tested[i], adjacent[i])
        assert stage.tested <= stage.compatible <= stage.pairs
        if not filtering:
            assert stage.compatible == stage.pairs
        assert stage.witness_hits <= stage.tested - stage.adjacent
        if adjacency == "alg":
            assert stage.witness_hits == 0


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
            pos = [v.mask for v, t in zip(state.vertices, values) if t > 0]
            neg = [v.mask for v, t in zip(state.vertices, values) if t < 0]
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
    for stage in [[v.mask for v in init_vertices(problem, "inner")], *trace]:
        assert all(compatible(mask, needs) for mask in stage)


@pytest.mark.parametrize("adjacency", ["comb", "alg"])
def test_one_zero_index_per_stage_with_both_sides(monkeypatch, adjacency):
    """Each stage whose S_+ and S_- are both non-empty builds one index over
    all of V_{i-1}; the other stages build none."""
    builds = []
    real = dd_engine.zero_index

    def counted(masks):
        builds.append(len(masks))
        return real(masks)

    monkeypatch.setattr(dd_engine, "zero_index", counted)
    _, stats = run(GIESEKING if adjacency == "alg" else LOOP9, RunConfig(adjacency=adjacency))
    seps = [0, *(s.sep for s in stats.stages)]  # sep grows exactly at the stages with both sides
    assert builds == [stats.sizes[i] for i in range(len(stats.stages)) if seps[i + 1] > seps[i]]


def test_run_empty_equations():
    p = EnumerationProblem(dim=3, equations=(), groups=())
    rays, stats = run(p)
    assert coords_of(rays) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert stats.sizes == [3]
    assert stats.order == ()


entries = st.integers(min_value=-2, max_value=2)


@st.composite
def small_problems(draw, with_groups=False):
    d = draw(st.integers(min_value=3, max_value=7))
    nrows = draw(st.integers(min_value=1, max_value=3))
    equations = tuple(
        tuple(draw(entries) for _ in range(d)) for _ in range(nrows)
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
    """V_i, |S_+| * |S_-| and the compatible and tested pair counts of one
    stage, from a plain double loop over S_+ x S_- with the linear witness
    scan."""
    problem, cfg = state.problem, state.config
    values = hyperplane_values(state, k)
    drop = state.remaining.index(k) if cfg.representation == "inner" else None
    needs = group_needs(problem.groups) if cfg.filtering else []
    need = prefilter_need(cfg.dim_prefilter, len(state.processed), state.sep, problem.dim)
    masks = [v.mask for v in state.vertices]
    out, pos, neg = [], [], []
    for v, t in zip(state.vertices, values):
        if t == 0:
            out.append(v if drop is None else Vertex(v.mask, v.values[:drop] + v.values[drop + 1:]))
        else:
            (pos if t > 0 else neg).append((v, t))
    compatible_pairs = tested = 0
    for u, a in pos:
        for w, b in neg:
            inter = u.mask & w.mask
            if not compatible(inter, needs):
                continue
            compatible_pairs += 1
            if inter.bit_count() < need:
                continue
            tested += 1
            if brute_adjacent(u.mask, w.mask, masks):
                out.append(combine(u, w, a, b, drop))
    return out, len(pos) * len(neg), compatible_pairs, tested


@st.composite
def grouped_problems(draw):
    """Random problems with d <= 12 and disjoint groups of 1-4 coordinates."""
    d = draw(st.integers(min_value=3, max_value=12))
    nrows = draw(st.integers(min_value=1, max_value=4))
    equations = tuple(tuple(draw(entries) for _ in range(d)) for _ in range(nrows))
    coords = draw(st.permutations(range(d)))
    groups, at = [], 0
    while at < d and draw(st.integers(0, 4)) > 0:
        size = draw(st.integers(1, 4))
        groups.append(tuple(sorted(coords[at:at + size])))
        at += size
    return EnumerationProblem(dim=d, equations=equations, groups=tuple(groups))


@pytest.mark.parametrize("representation", ["inner", "full"])
@pytest.mark.parametrize("filtering", [True, False])
@settings(max_examples=40, deadline=None)
@given(problem=grouped_problems(), prefilter=st.sampled_from(PREFILTER_MODES))
def test_step_matches_a_brute_force_stage(problem, prefilter, filtering, representation):
    state = initial_state(
        problem, representation, filtering=filtering, dim_prefilter=prefilter
    )
    for k in range(len(problem.equations)):
        want, *counts = reference_step(state, k)
        state = step(state, k)
        assert state.vertices == want
        last = state.stats.stages[-1]
        assert [last.pairs, last.compatible, last.tested] == counts
