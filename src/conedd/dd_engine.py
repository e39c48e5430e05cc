"""Incremental extreme-ray enumeration with admissibility filtering.

The engine maintains the extreme rays of the cone cut out by the coordinate
non-negativity constraints and a growing set of equation hyperplanes.  Each
step partitions the current rays by their sign against the next hyperplane,
keeps the rays on the hyperplane, and combines adjacent rays from opposite
sides.  With filtering enabled, only pairs whose combination can still meet
the group constraints are considered, so inadmissible rays never enter the
working sets.

Every working vertex is a `Vertex`: its zero set as an int bitmask plus a
list of integer values.  The bare mask is the only zero-set type; recovery
takes it too.  The representation switch decides only what the values are.
Under `full` they are the coordinates, and a hyperplane value is a dot
product.  Under `inner` they are the inner products with the
hyperplanes not yet processed, in the order of `EngineState.remaining`; a
hyperplane value is a list entry, and each step deletes the processed entry,
so vertices shrink as the run goes on.  Compatibility, the prefilter and the
combinatorial adjacency test read only the masks.  At the end, `full`
vertices already hold their coordinates and `inner` ones are resolved by
`recover` from their zero-set masks: `run` puts the equations in sparse
`{column: value}` form once, and each recovery restricts them to the
columns outside the zero set and solves them with one exact sparse row
reduction (`exact_linalg`).  `Ray`, the output type, holds the coordinates
only.

The pair loop of a step asks one index, built for the stage over the zero
sets of V_{i-1}: `zero_index` gives the bitset of the positions whose zero
set contains a key, and both pair filters, the group filter and the
combinatorial adjacency test, are that query (see `step`).  It keeps a
`bytes` column per 8-bit chunk and answers a miss in C, with
`bytes.translate` and `int(_, 2)`.  Before the adjacency test asks the index,
it tries a hint: the last witness found for the same u.  Most tested pairs
are non-adjacent with many witnesses, and the partners of one u are walked in
ascending order, so the witness that killed the previous pair usually kills
the next one too.  The answer stays exact, since any zero set of V_{i-1} that
contains Z(u) & Z(w) and is not a copy of Z(u) or Z(w) is a witness.  The
dimensional prefilter is one threshold per stage (`prefilter_need`) that a
pair's common zero count must reach.  The group filter's tables
(`GroupTable`) depend only on the problem's groups, so they are built once
per run and handed from state to state.

Each step appends one `Stage` record to `RunStats.stages`, with the
compatible, tested and hint-decided pairs next to |S_0|, |S_+|, |S_-|,
|V_i| and the memory proxy.  The pairs of S_+ x S_-, the adjacent pairs and
`RunStats`'s run-wide figures are derived from the records.

The memory proxy (`stage_bytes`) counts 8 bytes per mask word and per
64-bit limb of every stored value.  Its cost follows the vertices a stage
creates: S_0 keeps values of V_{i-1} (less one entry under `inner`), so
while every value of V_{i-1} fits in one limb (`EngineState.one_limb`) only
the new combinations are read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .cone_problem import EnumerationProblem
from .errors import InternalError, LimitError
from .exact_linalg import IntVector, Row, dot, nullspace_generator, rank, sparse_row, unit_row, vector_gcd
from .ordering import OrderingStrategy, choose_dynamic, order_static
from .zeroset import group_mask, zero_mask

ADJACENCY_MODES = ("comb", "alg")
REPRESENTATIONS = ("full", "inner")
PREFILTER_MODES = ("off", "basic", "extended")


@dataclass(frozen=True)
class Ray:
    """Output ray: non-negative integer coordinates at gcd 1."""

    coords: IntVector


class Vertex(NamedTuple):
    """Working vertex: zero-set bitmask plus coordinates (`full`) or the
    products with the unprocessed hyperplanes (`inner`).

    The values are a list, not a tuple: under `inner` they lose one entry a
    stage, and freed tuples of every length would fill CPython's per-length
    tuple free lists (peak RSS 2.25 MiB against 1.625 MiB on the unfiltered
    n = 6 loop).
    """

    mask: int
    values: list[int]


@dataclass(frozen=True)
class RunConfig:
    ordering: OrderingStrategy = OrderingStrategy("position")
    adjacency: str = "comb"
    representation: str = "inner"
    filtering: bool = True
    dim_prefilter: str = "extended"

    def __post_init__(self) -> None:
        if self.adjacency not in ADJACENCY_MODES:
            raise ValueError(f"unknown adjacency mode: {self.adjacency!r}")
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation: {self.representation!r}")
        if self.dim_prefilter not in PREFILTER_MODES:
            raise ValueError(f"unknown prefilter mode: {self.dim_prefilter!r}")


class Stage(NamedTuple):
    """What one `step` did: V_{i-1} to V_i across `hyperplane`.

    `s0`, `s_pos` and `s_neg` are |S_0|, |S_+| and |S_-| of V_{i-1};
    `compatible` counts the pairs of S_+ x S_- the group filter let through
    (all of them with filtering off), `tested` those that passed the
    prefilter and reached the adjacency test, and `witness_hits` the tested
    pairs the last witness of the same u decided (0 under `alg`).  `sep` is
    the pseudo-separating stage count after this stage, `size` is |V_i| and
    `mem_bytes` the memory proxy of V_i (`stage_bytes`)."""

    hyperplane: int
    s0: int
    s_pos: int
    s_neg: int
    compatible: int
    tested: int
    witness_hits: int
    sep: int
    size: int
    mem_bytes: int

    @property
    def pairs(self) -> int:
        """|S_+| * |S_-|."""
        return self.s_pos * self.s_neg

    @property
    def adjacent(self) -> int:
        """The tested pairs found adjacent: each one adds a vertex to S_0."""
        return self.size - self.s0


@dataclass
class RunStats:
    """One `Stage` per processed hyperplane, plus |V_0| and its memory proxy
    in `initial`.  The other per-run figures are read-only views over
    these."""

    initial: tuple[int, int] = (0, 0)
    stages: list[Stage] = field(default_factory=list)
    elapsed_s: float = 0.0
    final_count: int = 0

    @property
    def sizes(self) -> list[int]:
        """|V_0|, |V_1|, ..."""
        return [self.initial[0], *(s.size for s in self.stages)]

    @property
    def pair_counts(self) -> list[int]:
        """|S_+| * |S_-| of each stage."""
        return [s.pairs for s in self.stages]

    @property
    def order(self) -> tuple[int, ...]:
        """The hyperplanes in the order they were processed."""
        return tuple(s.hyperplane for s in self.stages)

    @property
    def max_vertex_count(self) -> int:
        return max(self.sizes)

    @property
    def peak_mem_bytes(self) -> int:
        return max([self.initial[1], *(s.mem_bytes for s in self.stages)])


class GroupTable(NamedTuple):
    """The group filter's tables for one run: `rest` maps each group
    coordinate, as a single bit, to the other members of its group, and
    `bits` is the union of those coordinates."""

    rest: dict[int, int]
    bits: int

    @classmethod
    def of(cls, groups: Sequence[Sequence[int]]) -> GroupTable:
        rest: dict[int, int] = {}
        for group in groups:
            members = group_mask(group)
            for j in group:
                rest[1 << j] = members ^ (1 << j)
        return cls(rest, sum(rest))  # the keys are distinct single bits


@dataclass
class EngineState:
    """V_i with its bookkeeping.  `processed` lists the hyperplanes in the
    order they were handled; `remaining` lists the others, in the order of
    the values of an `inner` vertex.

    `one_limb` is True when every stored value of `vertices` is known to fit
    in one 64-bit limb, so that the next stage's memory proxy reads only the
    new vertices; False, the default, means unknown.  `group_table` is the
    group filter's `GroupTable`, of the problem's groups with filtering on
    and empty with it off; it is built with the first state of a run and
    handed on by `step`."""

    problem: EnumerationProblem
    config: RunConfig
    vertices: list[Vertex]
    processed: list[int]
    remaining: list[int]
    sep: int
    stats: RunStats
    one_limb: bool = False
    group_table: Optional[GroupTable] = None

    def __post_init__(self) -> None:
        if self.group_table is None:
            self.group_table = GroupTable.of(self.problem.groups if self.config.filtering else ())


# Pair audit callback: (processed_count, sep_before, zero_count, adjacent).
PairAudit = Callable[[int, int, int, bool], None]

_ONE_LIMB = 1 << 64
# Partner bitsets span V_{i-1}; they are walked 30 bits at a time, so that
# the bit tricks run on one-digit ints (CPython's digit is 30 bits).
_CHUNK_BITS = 30
_CHUNK = (1 << _CHUNK_BITS) - 1
# _SUPERSETS[b] translates a chunk value v to b"1" if v contains b, else b"0".
_SUPERSETS = [bytes(b"01"[v & b == b] for v in range(256)) for b in range(256)]


def vertex_bytes(v: Vertex, dim: int) -> int:
    """Logical size of a stored vertex: 8 bytes per mask word and per 64-bit
    limb of each stored value."""
    values = v.values
    if not values or (-_ONE_LIMB < min(values) and max(values) < _ONE_LIMB):
        limbs = len(values)
    else:
        limbs = sum(max(1, (abs(x).bit_length() + 63) // 64) for x in values)
    return 8 * ((dim + 63) // 64 + limbs)


def stage_bytes(vertices: Sequence[Vertex], dim: int, known: int = 0) -> tuple[int, bool]:
    """The memory proxy of a stage, `vertex_bytes` summed in bulk, and
    whether every stored value fits in one 64-bit limb.

    The values of vertices[:known] must be known to fit in one limb, so only
    the others are read: one `min` and one `max` per new vertex.  When one of
    those needs two limbs, `vertex_bytes` is summed over every vertex."""
    lists = [values for _, values in vertices[known:] if values]
    if lists and not (-_ONE_LIMB < min(map(min, lists)) and max(map(max, lists)) < _ONE_LIMB):
        return sum(vertex_bytes(v, dim) for v in vertices), False
    stored = sum(map(len, map(itemgetter(1), vertices)))
    return 8 * (len(vertices) * ((dim + 63) // 64) + stored), True


def init_vertices(problem: EnumerationProblem, representation: str) -> list[Vertex]:
    """V_0: the d unit rays, in the requested representation."""
    d = problem.dim
    full_bits = (1 << d) - 1
    if representation == "full":
        return [Vertex(full_bits ^ (1 << j), list(unit_row(d, j))) for j in range(d)]
    return [
        Vertex(full_bits ^ (1 << j), [row[j] for row in problem.equations]) for j in range(d)
    ]


def _position(state: EngineState, k: int) -> int:
    """Index of hyperplane k in `remaining`, which is where an `inner`
    vertex stores its product with k."""
    try:
        return state.remaining.index(k)
    except ValueError:
        raise InternalError(f"no stored product for hyperplane {k}") from None


def hyperplane_values(state: EngineState, k: int) -> list[int]:
    """Value of each vertex of the state against hyperplane k, in order."""
    return _values_at(state, k, _position(state, k))  # also rejects a processed hyperplane


def _values_at(state: EngineState, k: int, position: int) -> list[int]:
    """`hyperplane_values`, given hyperplane k's `_position`."""
    if state.config.representation == "full":
        row = state.problem.equations[k]
        return [dot(row, v.values) for v in state.vertices]
    return [v.values[position] for v in state.vertices]


def prefilter_need(mode: str, processed_count: int, sep_before: int, dim: int) -> int:
    """Necessary dimension condition for a pair to yield an extreme ray: the
    least number of common zeros, |Z(u) & Z(w)|, a pair must have.

    `processed_count` and `sep_before` are taken at the previous stage, i.e.
    before the current hyperplane is accounted for, so the threshold is
    fixed for the whole stage.
    """
    if mode == "off":
        return 0
    if mode == "basic":
        return dim - 2 - processed_count
    if mode == "extended":
        return dim - 2 - sep_before
    raise ValueError(f"unknown prefilter mode: {mode!r}")


def zero_index(masks: Sequence[int]) -> Callable[[int], int]:
    """Subset index over the zero sets of V_{i-1}.

    Returns `containing(key)`: the bitset of the positions i with
    `masks[i] & key == key`.  A key with a bit above every mask is contained
    in no mask, and key 0 in every one.

    Masks are split into 8-bit chunks, one `bytes` column per chunk with
    the positions reversed.  A query keeps, for each non-zero chunk of the
    key, the positions whose chunk contains it: the column `translate`d to
    0s and 1s and read by `int(_, 2)`, so that position i is bit i.  These
    are memoised per (chunk, key), so both pair filters share the misses.
    """
    everything = (1 << len(masks)) - 1
    width = (max(masks, default=0).bit_length() + 7) // 8
    rows = b"".join(mask.to_bytes(width, "little") for mask in reversed(masks))
    columns = [rows[c::width] for c in range(width)]
    # memo[chunk << 8 | key]: the positions whose chunk contains key.
    memo: list[Optional[int]] = [None] * (width << 8)
    slots = range(0, width << 8, 256)
    top = width << 3

    def containing(key: int) -> int:
        if key >> top:
            return 0
        cand = everything
        for slot, byte in zip(slots, key.to_bytes(width, "little")):
            if byte:
                slot |= byte
                sup = memo[slot]
                if sup is None:
                    sup = memo[slot] = int(columns[slot >> 8].translate(_SUPERSETS[byte]), 2)
                cand &= sup
        return cand

    return containing


def group_partners(
    containing: Callable[[int], int], candidates: int, table: GroupTable
) -> Callable[[int], int]:
    """The group filter: compatible partners of a vertex among `candidates`,
    a bitset of positions of the index behind `containing`.

    Returns `partners(u_mask)`, the candidates w with `compatible(u_mask &
    w_mask)`, given that u and every candidate are compatible on their own.
    Then each group holds at most one non-zero of u and one of w, so the pair
    is compatible iff, for each group coordinate j where u is non-zero, w is
    zero on the rest of j's group: w is in `containing(G_j - {j})`.  The
    groups come as a `GroupTable`, built once per run; the sets are memoised
    per j for the index at hand.  With no groups every candidate is a
    partner.
    """
    rest, group_bits = table
    keep: dict[int, int] = {}  # coordinate bit -> positions zero on the rest of its group

    def partners(u_mask: int) -> int:
        out = candidates
        x = ~u_mask & group_bits
        while x:
            low = x & -x
            x ^= low
            sub = keep.get(low)
            if sub is None:
                sub = keep[low] = containing(rest[low])
            out &= sub
        return out

    return partners


def adjacent_combinatorial(
    u_mask: int, w_mask: int, masks: Sequence[int], containing: Callable[[int], int], hint: int
) -> Optional[int]:
    """Combinatorial adjacency test over the zero sets of V_{i-1}: a witness,
    the zero set of a position that contains Z(u) & Z(w) and is a copy of
    neither Z(u) nor Z(w), or None when there is none and the pair is
    adjacent.  `containing` is the `zero_index` of `masks`.

    `hint` must be one of `masks`.  It is returned, without asking the
    index, when it is a witness itself.  A witness can be 0, so test the
    result with `is None`."""
    key = u_mask & w_mask
    if hint & key == key and hint != u_mask and hint != w_mask:
        return hint
    cand = containing(key)
    while cand:
        low = cand & -cand
        z = masks[low.bit_length() - 1]
        if z != u_mask and z != w_mask:
            return z
        cand ^= low
    return None


def restrict(rows: Sequence[Row], mask: int, dim: int) -> tuple[list[Row], list[int]]:
    """The rows restricted to the columns outside `mask`, and those columns.

    A restricted row keeps the entries whose mask bit is clear, with its
    columns renumbered by their position among the free columns; rows left
    empty are dropped.
    """
    free_cols = [j for j in range(dim) if not mask >> j & 1]
    column = {j: i for i, j in enumerate(free_cols)}
    restricted = []
    for row in rows:
        r = {column[j]: x for j, x in row.items() if not mask >> j & 1}
        if r:
            restricted.append(r)
    return restricted, free_cols


def adjacent_algebraic(
    u_mask: int,
    w_mask: int,
    problem: EnumerationProblem,
    processed: Sequence[int],
    rows: Optional[Sequence[Row]] = None,
) -> bool:
    """Rank test: processed rows plus unit rows for Z(u) & Z(w) span d-2 dims.

    The unit rows span |Z(u) & Z(w)| dimensions of their own, so the test
    adds that count to the rank of the processed rows `restrict`ed to the
    other columns.  `rows` are the processed rows as `sparse_row`s (built
    from the problem when omitted)."""
    if rows is None:
        rows = [sparse_row(problem.equations[k]) for k in processed]
    inter = u_mask & w_mask
    restricted, _ = restrict(rows, inter, problem.dim)
    return inter.bit_count() + rank(restricted) == problem.dim - 2


def combine(u: Vertex, w: Vertex, a: int, b: int, drop: Optional[int]) -> Vertex:
    """a*w - b*u, divided by the gcd of its values, for u with value a > 0
    and w with value b < 0 on the hyperplane being processed.

    Under `inner`, `drop` is the position of that hyperplane's product, which
    is deleted.  Under `full` it is None, and the zero set of the combined
    coordinates must equal Z(u) & Z(w).
    """
    if a <= 0 or b >= 0:
        raise InternalError("combine requires u on the positive side and w on the negative side")
    mask = u.mask & w.mask
    values = [a * wv - b * uv for uv, wv in zip(u.values, w.values)]
    if drop is None:
        if zero_mask(values) != mask:
            raise InternalError("combined ray zero set does not match its coordinates")
    else:
        del values[drop]
    g = vector_gcd(values)
    if g > 1:
        values = [x // g for x in values]
    return Vertex(mask, values)


def step(state: EngineState, k: int, pair_audit: Optional[PairAudit] = None) -> EngineState:
    """Process hyperplane k: V_i from V_{i-1}.

    The new vertex list is S_0 (with the processed product dropped under the
    inner representation) plus the combinations of compatible, prefiltered,
    adjacent pairs from S_+ x S_-, taken in ascending S_- position as in a
    plain double loop.  S_- is a bitset of V_{i-1} positions, and one
    `zero_index` over V_{i-1} serves both the group filter (`group_partners`)
    and the adjacency test (`adjacent_combinatorial`; the rank test under
    `alg`).  `sep` grows by one exactly when both sides are non-empty.

    Under `comb` the adjacency test gets a hint, `last`: the witness last
    found for the current u, reset to Z(u) (never a witness) for each new
    u.  A returned witness equal to `last` is one the hint supplied, since
    the hint is tried first; those pairs are counted in `witness_hits`.

    The group filter relies on every vertex being compatible on its own.
    With filtering on this always holds: the unit rays have one non-zero
    each, S_0 carries over, and only compatible pairs are combined.

    The memory proxy of V_i reads the values of S_0 only when
    `state.one_limb` is False: otherwise they are entries of one-limb
    values of V_{i-1}.  The step's counts go into one `Stage`, appended to
    `state.stats`.
    """
    problem, cfg = state.problem, state.config
    d = problem.dim
    vertices = state.vertices
    position = _position(state, k)
    values = _values_at(state, k, position)
    drop = position if cfg.representation == "inner" else None
    processed_count = len(state.processed)
    sep_before = state.sep

    new_vertices: list[Vertex] = []  # S_0, then the combinations
    s_pos: list[tuple[Vertex, int]] = []
    s_neg = 0  # bitset of V_{i-1} positions
    for i, (v, t) in enumerate(zip(vertices, values)):
        if t == 0:
            if drop is None:
                new_vertices.append(v)
            else:
                kept = v.values.copy()
                del kept[drop]
                new_vertices.append(Vertex(v.mask, kept))
        elif t > 0:
            s_pos.append((v, t))
        else:
            s_neg |= 1 << i

    carried = len(new_vertices)
    compatible_count = 0
    tested = 0
    witness_hits = 0
    if s_pos and s_neg:
        masks = [v.mask for v in vertices]
        containing = zero_index(masks)
        partners_of = group_partners(containing, s_neg, state.group_table)
        comb = cfg.adjacency == "comb"
        rows = None if comb else [sparse_row(problem.equations[j]) for j in state.processed]
        need = prefilter_need(cfg.dim_prefilter, processed_count, sep_before, d)
        for u, a in s_pos:
            u_mask = u.mask
            partners = partners_of(u_mask)
            compatible_count += partners.bit_count()
            last = u_mask
            base = -1
            while partners:  # ascending positions, one chunk at a time
                chunk = partners & _CHUNK
                partners >>= _CHUNK_BITS
                while chunk:
                    low = chunk & -chunk
                    chunk ^= low
                    i = base + low.bit_length()
                    w_mask = masks[i]
                    zero_count = (u_mask & w_mask).bit_count()
                    if zero_count < need:
                        continue
                    tested += 1
                    if comb:
                        witness = adjacent_combinatorial(u_mask, w_mask, masks, containing, last)
                        adjacent = witness is None
                        if not adjacent:
                            if witness == last:
                                witness_hits += 1
                            else:
                                last = witness
                    else:
                        adjacent = adjacent_algebraic(u_mask, w_mask, problem, state.processed, rows)
                    if pair_audit is not None:
                        pair_audit(processed_count, sep_before, zero_count, adjacent)
                    if adjacent:
                        new_vertices.append(combine(u, vertices[i], a, values[i], drop))
                base += _CHUNK_BITS

    sep = sep_before + 1 if (s_pos and s_neg) else sep_before
    mem_bytes, one_limb = stage_bytes(new_vertices, d, carried if state.one_limb else 0)
    stats = state.stats
    stats.stages.append(Stage(
        k, carried, len(s_pos), s_neg.bit_count(), compatible_count,
        tested, witness_hits, sep, len(new_vertices), mem_bytes,
    ))
    remaining = state.remaining[:position] + state.remaining[position + 1:]
    processed = state.processed + [k]
    return EngineState(
        problem, cfg, new_vertices, processed, remaining, sep, stats, one_limb, state.group_table
    )


def recover(problem: EnumerationProblem, mask: int, rows: Optional[Sequence[Row]] = None) -> Ray:
    """Coordinates of the unique ray whose final zero set is `mask`.

    Solves the equations together with the facet conditions v_j = 0 for
    j in the zero set; equivalently, the equations restricted to the
    complementary columns must have a one-dimensional nullspace, and its
    generator must be positive on every one of them.  `rows` are the
    equations as `sparse_row`s (built from the problem when omitted); each
    is `restrict`ed by testing the zero-set bits of the columns it holds, so
    the sparse reduction in `nullspace_generator` sees only the entries on
    free columns.
    """
    d = problem.dim
    if mask >> d:
        raise InternalError("zero set has bits outside the problem dimension")
    if rows is None:
        rows = [sparse_row(row) for row in problem.equations]
    restricted, free_cols = restrict(rows, mask, d)
    gen = nullspace_generator(restricted, len(free_cols))
    if gen is None:
        raise InternalError("recovery system does not have a one-dimensional solution space")
    if min(gen) <= 0:
        raise InternalError("recovered vector does not match its zero set")
    coords = [0] * d
    for col, value in zip(free_cols, gen):
        coords[col] = value
    return Ray(tuple(coords))


def run(
    problem: EnumerationProblem,
    config: Optional[RunConfig] = None,
    *,
    pair_audit: Optional[PairAudit] = None,
    stage_hook: Optional[Callable[[EngineState], None]] = None,
) -> tuple[list[Ray], RunStats]:
    """Enumerate the extreme rays of the problem cone.

    Returns the final rays (admissible ones only when filtering is on),
    gcd-normalized, deduplicated and sorted lexicographically, together with
    the per-stage statistics.
    """
    if config is None:
        config = RunConfig()
    start = time.perf_counter()
    d = problem.dim
    vertices = init_vertices(problem, config.representation)
    mem_bytes, one_limb = stage_bytes(vertices, d)
    stats = RunStats((len(vertices), mem_bytes))
    remaining = list(range(len(problem.equations)))
    state = EngineState(problem, config, vertices, [], remaining, 0, stats, one_limb)

    # Config and problem are validated by now: a ValueError from here on is
    # a broken invariant (say, a zero nullspace generator), not bad input.
    try:
        order = None if config.ordering.kind == "dynamic" else iter(order_static(problem, config.ordering))
        while state.remaining:
            if order is None:
                k = choose_dynamic(state.remaining, lambda j: hyperplane_values(state, j))
            else:
                k = next(order)
            state = step(state, k, pair_audit=pair_audit)
            if stage_hook is not None:
                stage_hook(state)

        if config.representation == "inner":
            rows = [sparse_row(row) for row in problem.equations]
            finals = [recover(problem, v.mask, rows) for v in state.vertices]
        else:
            finals = [Ray(tuple(v.values)) for v in state.vertices]
    except LimitError:
        raise
    except ValueError as exc:
        raise InternalError(f"invariant failed during the run: {exc}") from exc
    rays = [Ray(c) for c in sorted({r.coords for r in finals})]

    stats.elapsed_s = time.perf_counter() - start
    stats.final_count = len(rays)
    return rays, stats
