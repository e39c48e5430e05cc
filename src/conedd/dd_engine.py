"""Incremental extreme-ray enumeration with admissibility filtering.

The engine maintains the extreme rays of the cone cut out by the coordinate
non-negativity constraints and a growing set of equation hyperplanes.  Each
step partitions the current rays by their sign against the next hyperplane,
keeps the rays on the hyperplane, and combines adjacent rays from opposite
sides.  With filtering enabled, only pairs whose combination can still meet
the group constraints are considered, so inadmissible rays never enter the
working sets.

A stage is a list and one flat store, with no object per vertex:
`EngineState.masks` holds each working vertex's zero set as an int bitmask,
and `EngineState.store` the vertices' integer values row-major, in the same
order (`EngineState.vertices` is a read-only view of its rows).  The bare
mask is the only zero-set type; recovery takes it too, and the pair loop
reads the masks of a stage straight from the state.  The representation
switch decides only what the values are.  Under `full` they are the
coordinates, and a hyperplane value is a dot product.  Under `inner` they
are the inner products with the hyperplanes not yet processed, in the order
of `EngineState.remaining`; a hyperplane's values are one extended slice
of the store, and each step deletes that column, so the rows shrink as the
run goes on.  Compatibility, the prefilter and the combinatorial adjacency
test read only the masks.  At the end, `full` vertices already hold their
coordinates and `inner` ones are resolved by `recover` from their zero-set
masks.  `run` brings the equations to reduced row echelon form once
(`recovery_kernel`), over the columns that are not zero on every final
vertex; that form gives each pivot coordinate in terms of the free ones.
A ray's unknowns are then the free columns outside its
zero set, and only the pivot rows inside the zero set constrain them.  So
the columns most final rays are non-zero on should be pivots: when the
counts of rays non-zero on each column show that this pays,
`final_recovery_kernel` pivots on those columns first.  That leaves 3.8
unknowns a ray on average on loop12 (d = 84; 9 in the input order), about
4.6 on loop15, 5.5 on the unfiltered n = 6 loop (input order kept) and
about 2 on random closed 8-tetrahedron triangulations.  A ray is solved from one inside
row per lowest unknown, already in echelon form, when that gives n - 1
rows for n unknowns; the walk that gives its pivot coordinates checks the
other rows (see `recover`).  `Ray`, the output type, holds the
coordinates only.

The pair loop of a step asks one index, built for the stage over the zero
sets of V_{i-1}: `zero_index` gives the bitset of the positions whose zero
set contains a key, and both pair filters, the group filter and the
combinatorial adjacency test, are that query (see `step`).  It keeps a
`bytes` column per 8-bit chunk of the problem's d coordinates and answers
a miss in C, with `bytes.translate` and `int(_, 2)`.  The same columns
answer a second query, the positions whose zero set avoids a key,
which drives bulk elimination: once a witness p rules out the pair (u, w),
every partner w' of u not yet walked with Z(u) & Z(w') inside Z(p) has the
witness p too, and all of them are the partners avoiding Z(u) & ~Z(p),
save p itself.  So one query removes them before they reach the prefilter
or the adjacency test.  The adjacency test returns the highest witness,
which tends to be the newest vertex and to share the most zeros with u, so
its query removes the most: on loop12 68,462 of the 85,622 compatible
pairs, leaving 16,200 tested.
Most tested pairs need no query at all: a pair whose zero sets differ in
one coordinate on either side is adjacent, by a dimension count (see
`step`), and that decides 9,701 of the 16,200, so 6,499 are queried.  The
answer stays exact because the zero sets of V_{i-1} are pairwise
distinct: they belong to distinct extreme rays, and `step` checks that
they are at every stage that forms pairs.  The dimensional prefilter is
one threshold per stage (`prefilter_need`) that a pair's common zero count
must reach.
The group filter's tables (`GroupTable`) depend only on the problem's
groups, so they are built once per run and handed from state to state.

An adjacent pair (u, w), with values a > 0 and b < 0 on the hyperplane,
gives the row a*w - b*u over the gcd of its values.  When a = 1 and the
stage's store holds signed bytes, `lane_rows` builds it as w + k*u, k =
-b, lane-wise on the rows' bytes, reading u once and each multiple k*u
once for all of u's partners, and certifies its gcd by a value of +-1
after halving.  That builds 10,976 of loop12's 11,103 combinations, 4,132
of the unfiltered n = 6 loop's 4,406 and 143,320 of the 156,127 of a
census8 batch (seed 0; there a = 1 in 93% of them, and k is 2 or 3 in
18%).  `combine` builds the rest as lists.

Each step appends one `Stage` record to `RunStats.stages`, with the
compatible, bulk-removed and tested pairs next to |S_0|, |S_+|, |S_-|,
|V_i| and the bytes V_i holds (`stage_bytes`).  The pairs of S_+ x S_-, the
adjacent pairs and `RunStats`'s run-wide figures are derived from the
records.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from math import gcd, lcm
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Sequence, Union

from .cone_problem import EnumerationProblem
from .errors import InternalError, LimitError
from .exact_linalg import IntVector, Row, nullspace_generator, rank, rref, vector_gcd
from .ordering import OrderingStrategy, choose_dynamic, order_static

ADJACENCY_MODES = ("comb", "alg")
REPRESENTATIONS = ("full", "inner")
PREFILTER_MODES = ("off", "basic", "extended")


@dataclass(frozen=True)
class Ray:
    """Output ray: non-negative integer coordinates at gcd 1.

    The slot is declared by hand: `slots=True` rebuilds the class, and the
    frozen `__setattr__` then raises `TypeError` for a name that is not a
    field.  `__reduce__` rebuilds a `Ray` through its constructor for pickle
    and `deepcopy`, which would otherwise set the slot through that
    `__setattr__`."""

    __slots__ = ("coords",)
    coords: IntVector

    def __reduce__(self):
        return Ray, (self.coords,)


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
    (all of them with filtering off), `bulk` those a witness of an earlier
    pair of the same u removed before the prefilter (0 under `alg`), and
    `tested` those that passed the prefilter and reached the adjacency
    test; the rest, `compatible - bulk - tested`, failed the prefilter.
    `certified` counts the tested pairs the zero-count certificate found
    adjacent with no index query (see `step`; 0 under `alg`), so `tested -
    certified` witness queries were made.
    `sep` is the pseudo-separating stage count after this stage, `size` is
    |V_i| and `mem_bytes` the bytes V_i holds in its masks and value store
    (`stage_bytes`)."""

    hyperplane: int
    s0: int
    s_pos: int
    s_neg: int
    compatible: int
    tested: int
    bulk: int
    certified: int
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
    """One `Stage` per processed hyperplane, plus |V_0| and the bytes V_0
    holds (`stage_bytes`) in `initial`.  The other per-run figures are
    read-only views over these."""

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
            members = sum(1 << j for j in group)
            for j in group:
                rest[1 << j] = members ^ (1 << j)
        return cls(rest, sum(rest))  # the keys are distinct single bits


Store = Union[array, list[int]]  # signed bytes while every value fits, else a list


class ValueRows(Sequence[list[int]]):
    """Read-only view of a value store's rows: `len()` is the number of
    vertices, and row j, `store[j*width:(j+1)*width]`, reads as a list."""

    __slots__ = ("store", "width", "count")

    def __init__(self, store: Store, width: int, count: int) -> None:
        self.store, self.width, self.count = store, width, count

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, j: int) -> list[int]:
        if not 0 <= j < self.count:
            raise IndexError("vertex index out of range")
        lo = j * self.width
        return list(self.store[lo : lo + self.width])


@dataclass
class EngineState:
    """V_i with its bookkeeping: `masks` holds the zero sets and `store`
    the values, row-major, vertex j being `masks[j]` and row j of `store`
    (`vertices[j]`).  A row holds the coordinates under `full`, and the
    products with the unprocessed hyperplanes under `inner`, so it is
    `width` values long.  `processed` lists the hyperplanes in the order
    they were handled; `remaining` lists the others, in the order of the
    values of an `inner` row.

    The store is one of two kinds a stage: an `array` of signed bytes
    ('b') while every value fits, else a list of Python ints, so the
    arithmetic stays exact.  V_0 is a byte array when its largest |x| is
    below 128, and a value that does not fit turns the store into a list.
    A store never narrows within a run: each step starts its store as the
    kind of the one before.  Every value of loop12 (max |x| 19), loop18
    (31), the unfiltered n = 6 loop (16) and census8 (70) fits in a signed
    byte, and loop12's largest stage, 1,585 rows of 10 values, takes 15.5
    KiB, where a list a row took about 228 KiB.

    `group_table` is the group filter's `GroupTable`, of the problem's
    groups with filtering on and empty with it off; it is built with the
    first state of a run and handed on by `step`."""

    problem: EnumerationProblem
    config: RunConfig
    masks: list[int]
    store: Store
    processed: list[int]
    remaining: list[int]
    sep: int
    stats: RunStats
    group_table: Optional[GroupTable] = None

    def __post_init__(self) -> None:
        if self.group_table is None:
            self.group_table = GroupTable.of(self.problem.groups if self.config.filtering else ())

    @property
    def width(self) -> int:
        """The number of values a vertex stores."""
        return self.problem.dim if self.config.representation == "full" else len(self.remaining)

    @property
    def vertices(self) -> ValueRows:
        return ValueRows(self.store, self.width, len(self.masks))


# Pair audit callback: (processed_count, sep_before, zero_count, adjacent).
PairAudit = Callable[[int, int, int, bool], None]

# Partner bitsets span V_{i-1}; they are walked 30 bits at a time, so that
# the bit tricks run on one-digit ints (CPython's digit is 30 bits).
_CHUNK_BITS = 30
_CHUNK = (1 << _CHUNK_BITS) - 1
# _SUPERSETS[b] translates a chunk value v to b"1" if v contains b, else b"0".
_SUPERSETS = [bytes(b"01"[v & b == b] for v in range(256)) for b in range(256)]
# _DISJOINT[b] translates v to b"1" if v & b == 0: entry v of _SUPERSETS[b]
# reversed is entry 255 - v, and 255 - v contains b iff v misses it.
_DISJOINT = [table[::-1] for table in _SUPERSETS]


def stage_bytes(masks: Sequence[int], store: Store, dim: int) -> int:
    """The bytes a stage holds: (dim + 7) // 8 a zero-set mask, plus its
    value store, `itemsize` bytes a value for an `array`, which reads no
    value, and 8 bytes per 64-bit limb of each value for a list."""
    if type(store) is array:
        values = len(store) * store.itemsize
    else:
        values = 8 * sum((abs(x).bit_length() + 63) // 64 or 1 for x in store)
    return len(masks) * ((dim + 7) // 8) + values


def init_vertices(problem: EnumerationProblem, representation: str) -> tuple[list[int], Store]:
    """V_0, the d unit rays in the requested representation: their zero
    sets and their value store.

    Under `full` the store holds the d unit rows, as signed bytes.  Under
    `inner` row j holds column j of the equations: as signed bytes when
    the largest |coefficient| is below 128, else in a list."""
    d = problem.dim
    full_bits = (1 << d) - 1
    masks = [full_bits ^ (1 << j) for j in range(d)]
    if representation == "full":
        store = array("b", bytes(d * d))
        store[:: d + 1] = array("b", b"\x01" * d)
        return masks, store
    g = len(problem.equations)
    bound = max((abs(x) for row in problem.equations for x in row.values()), default=0)
    store = array("b", bytes(d * g)) if bound < 128 else [0] * (d * g)
    for k, row in enumerate(problem.equations):
        for j, x in row.items():
            store[j * g + k] = x
    return masks, store


def hyperplane_values(state: EngineState, k: int) -> list[int]:
    """Value of each vertex of the state against hyperplane k, in order;
    `InternalError` if k is processed already."""
    try:
        position = state.remaining.index(k)  # where an `inner` row holds k's product
    except ValueError:
        raise InternalError(f"no stored product for hyperplane {k}") from None
    store, width = state.store, state.width
    if state.config.representation == "full":
        values = [0] * len(state.masks)
        for j, x in state.problem.equations[k].items():
            values = [t + x * v for t, v in zip(values, store[j::width])]
        return values
    return list(store[position::width])


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


class ZeroIndex(NamedTuple):
    """The two queries of `zero_index` over the zero sets of V_{i-1}, each
    giving a bitset of positions: `containing(key)` those whose mask
    contains `key`, and `avoiding(key)` those whose mask shares no bit with
    it."""

    containing: Callable[[int], int]
    avoiding: Callable[[int], int]


def mask_columns(masks: Sequence[int], dim: int) -> list[bytes]:
    """The zero sets `masks` as (dim + 7) // 8 byte columns, the width
    `stage_bytes` charges: column c holds bits 8c to 8c + 7 of each mask,
    one byte a mask, the last mask first."""
    width = (dim + 7) // 8
    rows = b"".join(map(int.to_bytes, reversed(masks), repeat(width), repeat("little")))
    return [rows[c::width] for c in range(width)]


def zero_index(masks: Sequence[int], dim: int) -> ZeroIndex:
    """Subset index over `masks`, the zero sets of V_{i-1}.

    `containing(key)` is the bitset of the positions i with `masks[i] & key
    == key`, key 0 being in every mask, and `avoiding(key)` that of the
    positions i with `masks[i] & key == 0`.  `masks` must not be empty and
    every key must lie in `range(1 << dim)`, as in `step`: its keys are
    sub-masks of zero sets and group keys, whose coordinates
    `EnumerationProblem` checks are below `dim`.

    The masks are split into 8-bit chunks, one `bytes` column per chunk
    (`mask_columns`).  A query keeps, for each non-zero chunk of the key,
    the positions whose chunk passes: the column `translate`d to 0s and 1s
    and read by `int(_, 2)`, so that position i is bit i.  These are
    memoised per (chunk, key), one memo per query, so both pair filters
    share the misses of `containing`.
    """
    everything = (1 << len(masks)) - 1
    columns = mask_columns(masks, dim)
    width = len(columns)
    # memo[chunk << 8 | key]: the positions whose chunk contains key (sup)
    # or shares no bit with it (dis).  Few (chunk, key) reach `avoiding`, so
    # its memo is a dict.
    sup_memo: list[Optional[int]] = [None] * (width << 8)
    dis_memo: dict[int, int] = {}
    slots = range(0, width << 8, 256)

    def containing(key: int) -> int:
        cand = everything
        for slot, byte in zip(slots, key.to_bytes(width, "little")):
            if byte:
                slot |= byte
                sup = sup_memo[slot]
                if sup is None:
                    sup = sup_memo[slot] = int(columns[slot >> 8].translate(_SUPERSETS[byte]), 2)
                cand &= sup
        return cand

    def avoiding(key: int) -> int:
        cand = everything
        for slot, byte in zip(slots, key.to_bytes(width, "little")):
            if byte:
                slot |= byte
                dis = dis_memo.get(slot)
                if dis is None:
                    dis = dis_memo[slot] = int(columns[slot >> 8].translate(_DISJOINT[byte]), 2)
                cand &= dis
        return cand

    return ZeroIndex(containing, avoiding)


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
    u: int, w: int, common: int, containing: Callable[[int], int]
) -> Optional[int]:
    """Combinatorial adjacency test for the vertices at positions u and w
    of V_{i-1}, given `common`, their common zero set Z(u) & Z(w): the
    highest position of a witness, a third vertex whose zero set contains
    `common`, or None when there is none and the pair is adjacent.
    `containing` is the `zero_index` query of the zero sets of V_{i-1}.

    Any witness decides the pair; the highest is returned because `step`
    removes, with one query, the later partners w' of u with Z(u) & Z(w')
    inside Z(p), and the larger Z(u) & Z(p) is the more it removes.  V_{i-1}
    lists the vertices carried from the stage before first and those that
    stage created last, and the newest witness tends to share more zeros
    with u: over the non-adjacent pairs a lowest-witness walk tests on
    loop12, more than the lowest witness in 58% and fewer in 36%, and its
    query returns 310 positions against 179.

    The zero sets of V_{i-1} are pairwise distinct, since they belong to
    distinct extreme rays, so the only copies of Z(u) and Z(w) are at u and
    w.  A witness can be at position 0, so test the result with `is None`."""
    cand = containing(common) ^ (1 << u | 1 << w)  # both contain the key
    if not cand:
        return None
    return cand.bit_length() - 1


def adjacent_algebraic(common: int, rows: Sequence[Row], dim: int) -> bool:
    """Rank test: the processed rows `rows` plus unit rows for the common
    zero set `common`, Z(u) & Z(w), span dim - 2 dimensions.

    The unit rows span |common| dimensions of their own and clear common's
    columns from every other row, so the test adds that count to the rank
    of the rows without those columns.  `rank` reads any column labels, so
    no column is renumbered."""
    rest = ({j: x for j, x in row.items() if not common >> j & 1} for row in rows)
    return common.bit_count() + rank(rest) == dim - 2


def zero_mask(vector: Sequence[int]) -> int:
    """Bitmask with bit k set iff vector[k] == 0."""
    return sum(1 << k for k, x in enumerate(vector) if x == 0)


def lane_rows(data: bytes, width: int) -> Callable[[int, int, int], Optional[bytes]]:
    """The combinations w + k*u of a stage whose values are signed bytes,
    built lane-wise on the bytes of its rows: `data` holds the rows,
    row-major, `width` values each.

    Returns `row(u, k, w)`: for the rows at positions u and w and k >= 1,
    the bytes of w + k*u divided by the gcd of its values, or None when
    the lanes cannot certify that gcd.  Row u must not be all zeros (in
    `step` its value on the hyperplane is 1), so that k*u leaves the byte
    range by k = 129.  A row is read as one int, each byte
    a lane: two rows are added by adding the low seven bits of every byte
    and putting the sign bits back by an exclusive or, so no carry crosses
    a byte, and a byte whose inputs share a sign that the sum lacks has
    overflowed.  The multiples k*u are built by repeated adds, once for
    each u and k, while calls with one u follow each other.  While every
    value of the sum is even and one is not 0, each byte is halved
    (shifted right, its sign bit kept); then a value of +-1, a byte 0x01 or
    0xff, certifies that the gcd is 1, and a row of zeros is returned as it
    is.  None means a byte of k*u or of the sum overflowed, or no value is
    +-1 after halving; the row is then for `combine` to build.
    """
    high = int.from_bytes(b"\x80" * width, "little")  # the sign bit of each byte
    low = (high >> 7) * 0x7F  # the seven bits below it
    ones = high >> 7  # the lowest bit of each byte
    at = -1  # the position of the u whose multiples are held
    multiples: list[Optional[int]] = []  # j*u at j - 1, up to the first that overflows (None)

    def lane_add(x: int, y: int) -> Optional[int]:
        signs = (x ^ y) & high
        s = ((x & low) + (y & low)) ^ signs
        return None if (s ^ x) & (signs ^ high) else s

    def row(u: int, k: int, w: int) -> Optional[bytes]:
        nonlocal at, multiples
        if u != at:
            at = u
            multiples = [int.from_bytes(data[u * width : (u + 1) * width], "little")]
        if k > len(multiples):
            while len(multiples) < k and multiples[-1] is not None:
                multiples.append(lane_add(multiples[-1], multiples[0]))
            if k > len(multiples):
                return None
        y = multiples[k - 1]
        if y is None:
            return None
        s = lane_add(int.from_bytes(data[w * width : (w + 1) * width], "little"), y)
        if s is None:
            return None
        while s and not s & ones:  # every value even: halve each
            s = (s >> 1) & low | s & high
        out = s.to_bytes(width, "little")
        return out if not s or 1 in out or 255 in out else None

    return row


def combine(u: Store, w: Store, a: int, b: int, out: Store) -> Store:
    """Append to the value store `out` the row a*w - b*u, divided by the gcd
    of its values, and return the store: a list, if `out` held signed
    bytes and a value does not fit in one.

    u and w are the value rows of V_{i-1} with values a > 0 and b < 0 on
    the hyperplane being processed, as slices of its store.  The row holds
    a zero at that hyperplane's column, a*b - b*a, which `step` deletes
    with the rest of the column under `inner`.

    The row is built as a list, checked for +-1 and normalised by
    `vector_gcd`.  `step` calls it for the combinations `lane_rows` does
    not build: those with a != 1 (0.6% of loop12's and about 7% of
    census8's), those on a list store, and those whose lanes overflow or
    hold no +-1 after halving.
    """
    if a <= 0 or b >= 0:
        raise InternalError("combine requires u on the positive side and w on the negative side")
    values = [a * x - b * y for x, y in zip(w, u)]
    if not (1 in values or -1 in values):
        g = vector_gcd(values)
        if g > 1:
            values = [x // g for x in values]
    if type(out) is array:
        try:
            out.fromlist(values)  # all or nothing
            return out
        except OverflowError:
            out = out.tolist()
    out += values
    return out


def step(state: EngineState, k: int, pair_audit: Optional[PairAudit] = None) -> EngineState:
    """Process hyperplane k: V_i from V_{i-1}.

    The new vertex list is S_0 plus the combinations of compatible,
    prefiltered, adjacent pairs from S_+ x S_-, taken in ascending S_-
    position as in a plain double loop.  The new store starts as the same
    kind as the old one, S_0's masks and rows are copied as runs of
    consecutive vertices, and each combination is appended at the old width:
    the row of the stage's `lane_rows` when a = 1, both stores hold signed
    bytes and its lanes certify the row, else `combine`'s.  Under `full`
    the zero set of every combined row, whichever built it, must equal
    Z(u) & Z(w) (`InternalError` if not).  Under `inner` one `del` of an
    extended slice then drops the processed hyperplane's column.  S_- is a
    bitset of V_{i-1} positions, and one `zero_index` over V_{i-1} serves
    both the group filter (`group_partners`) and the adjacency test
    (`adjacent_combinatorial`; the rank test under `alg`).  `sep` grows by
    one exactly when both sides are non-empty.

    Under `comb` a witness p of the pair (u, w) is a witness of every pair
    (u, w') with Z(u) & Z(w') inside Z(p), save w' = p, so each one removes
    those partners of u not walked yet: `avoiding(Z(u) & ~Z(p))`, one index
    query, in the current 30-bit chunk and in the rest.  That is exact
    because the zero sets of V_{i-1} are pairwise distinct, which is checked
    first (`InternalError` if not), and it keeps the walk ascending, so V_i
    keeps its order.  The removed partners are counted in `bulk`.  The walk
    takes the partners 30 bits at a time and jumps over chunks left empty,
    by the filters or by bulk elimination, straight to the chunk of the
    lowest partner left.  On loop12 a walk through every chunk would meet
    43,734 empty ones in 48,999; this walk takes the other 5,265.

    Z(u) & Z(w) is taken once per walked pair: its count is the prefilter's,
    it is the adjacency test's key, and it is the zero set of the
    combination, appended to the new masks beside its row.

    Under `comb` that count decides most adjacent pairs before any query
    (Fukuda and Prodon, *Double description method revisited*, 1996).  Let
    u and w be extreme rays of the cone so far, {x >= 0, M x = 0} over the
    processed rows M, and S = supp(u) | supp(w).  The smallest face holding
    both is the part of the cone zero off S, of dimension at most |S| -
    rank(M_S).  As u is extreme, rank(M_supp(u)) = |supp(u)| - 1, and M_S
    holds those columns.  So when Z(u) has a single zero outside Z(u) &
    Z(w), |S| = |supp(u)| + 1 and the face has dimension at most 2, so
    exactly 2 as it holds both rays: the pair is adjacent, and no third
    vertex holds its common zeros.  The same goes
    with u and w swapped.  A pair whose common zero count reaches |Z(u)| - 1
    or |Z(w)| - 1 is therefore adjacent with no index query, and is counted
    in `certified`: 9,701 of loop12's 16,200 tested pairs, leaving 6,499
    queries.  The precondition is that V_{i-1} holds extreme rays of the
    cone so far (with filtering on, the compatible ones), as every state
    `run` builds does; on a hand-built state with a vertex that is not
    extreme, the count can call a pair adjacent that a witness rules out.

    `pair_audit` hears every pair that passes the prefilter, those removed
    in bulk too, in the order of a plain double loop.  The stream is rebuilt
    after the walk, which does only pair work: a pair is adjacent exactly
    when its Z(u) & Z(w) is a zero set the stage made, since a second pair
    with the zero set C of an adjacent one would hold a witness containing C
    (under `alg` too: the rank test reads C alone).

    The group filter relies on every vertex being compatible on its own.
    With filtering on this always holds: the unit rays have one non-zero
    each, S_0 carries over, and only compatible pairs are combined.

    The step's counts and the bytes V_i holds (`stage_bytes`) go into one
    `Stage`, appended to `state.stats`.
    """
    problem, cfg = state.problem, state.config
    d = problem.dim
    masks, store, width = state.masks, state.store, state.width
    values = hyperplane_values(state, k)
    position = state.remaining.index(k)
    full = cfg.representation == "full"
    processed_count = len(state.processed)
    sep_before = state.sep

    new_masks: list[int] = []  # S_0, then the combinations
    out = store[:0]  # their values, in a store of the same kind
    s_pos: list[int] = []  # V_{i-1} positions
    s_neg = 0  # bitset of V_{i-1} positions
    start = 0  # where the current run of S_0 began
    for i, t in enumerate(values):
        if t:
            if start < i:
                new_masks += masks[start:i]
                out += store[start * width : i * width]
            start = i + 1
            if t > 0:
                s_pos.append(i)
            else:
                s_neg |= 1 << i
    new_masks += masks[start:]
    out += store[start * width :]

    carried = len(new_masks)
    compatible_count = 0
    tested = 0
    bulk = 0
    certified = 0
    if s_pos and s_neg:
        if len(set(masks)) != len(masks):
            raise InternalError(f"two vertices share a zero set before hyperplane {k}")
        containing, avoiding = zero_index(masks, d)
        partners_of = group_partners(containing, s_neg, state.group_table)
        comb = cfg.adjacency == "comb"
        rows = None if comb else [problem.equations[j] for j in state.processed]
        need = prefilter_need(cfg.dim_prefilter, processed_count, sep_before, d)
        lanes = lane_rows(store.tobytes(), width) if type(store) is array else None

        for ui in s_pos:
            u_mask, a = masks[ui], values[ui]
            u_least = u_mask.bit_count() - 1  # a partner sharing this many zeros is adjacent
            partners = partners_of(u_mask)
            compatible_count += partners.bit_count()
            base = -1
            while partners:  # ascending positions, one chunk at a time
                chunk = partners & _CHUNK
                if not chunk:  # jump to the chunk of the lowest partner left
                    skip = ((partners & -partners).bit_length() - 1) // _CHUNK_BITS * _CHUNK_BITS
                    partners >>= skip
                    base += skip
                    chunk = partners & _CHUNK
                partners >>= _CHUNK_BITS
                while chunk:
                    low = chunk & -chunk
                    chunk ^= low
                    i = base + low.bit_length()
                    w_mask = masks[i]
                    common = u_mask & w_mask
                    zeros = common.bit_count()
                    if zeros < need:
                        continue
                    tested += 1
                    if not comb:
                        adjacent = adjacent_algebraic(common, rows, d)
                    elif zeros >= u_least or zeros >= w_mask.bit_count() - 1:
                        adjacent = True  # the pair spans a 2-face: no witness to look for
                        certified += 1
                    else:
                        p = adjacent_combinatorial(ui, i, common, containing)
                        adjacent = p is None
                        if not adjacent and (chunk or partners):
                            # Every partner w' left with Z(u) & Z(w') inside Z(p),
                            # but p itself, has the witness p too.
                            dead = (avoiding(u_mask & ~masks[p]) ^ (1 << p)) >> (base + 1)
                            gone = chunk & dead
                            rest = partners & (dead >> _CHUNK_BITS)
                            chunk ^= gone
                            partners ^= rest
                            bulk += gone.bit_count() + rest.bit_count()
                    if adjacent:
                        new_masks.append(common)
                        b = values[i]
                        row = lanes(ui, -b, i) if a == 1 and lanes is not None else None
                        if row is not None:
                            out.frombytes(row)
                        else:
                            u_row = store[ui * width : (ui + 1) * width]
                            out = combine(u_row, store[i * width : (i + 1) * width], a, b, out)
                            if type(out) is not array:  # now a list: no lane row fits it
                                lanes = None
                        if full and zero_mask(out[-width:]) != common:
                            raise InternalError("combined ray zero set does not match its coordinates")
                base += _CHUNK_BITS

        if pair_audit is not None:  # the plain double loop's stream, from V_i
            made = set(new_masks[carried:])
            for ui in s_pos:
                u_mask = masks[ui]
                partners = partners_of(u_mask)
                while partners:
                    low = partners & -partners
                    partners ^= low
                    common = u_mask & masks[low.bit_length() - 1]
                    zero_count = common.bit_count()
                    if zero_count >= need:
                        pair_audit(processed_count, sep_before, zero_count, common in made)

    if not full:
        del out[position::width]
    sep = sep_before + 1 if (s_pos and s_neg) else sep_before
    remaining = state.remaining[:position] + state.remaining[position + 1:]
    stats = state.stats
    stats.stages.append(Stage(
        k, carried, len(s_pos), s_neg.bit_count(), compatible_count,
        tested, bulk, certified, sep, len(new_masks), stage_bytes(new_masks, out, d),
    ))
    processed = state.processed + [k]
    return EngineState(
        problem, cfg, new_masks, out, processed, remaining, sep, stats, state.group_table,
    )


class RecoveryKernel(NamedTuple):
    """The equations in reduced row echelon form over the columns outside
    `zeros`, for `recover`.

    Pivot row p reads den[p]*x_p + sum(c*x_f) = 0 over free columns f, and
    holds no other pivot column.  `pivots` is the bitset of the pivot
    columns, `den` maps each to its entry, and `free` maps each free column
    f, in ascending order, to the (p, c) of the pivot rows that hold it."""

    zeros: int
    pivots: int
    den: dict[int, int]
    free: dict[int, list[tuple[int, int]]]


def recovery_kernel(
    problem: EnumerationProblem, zeros: int = 0, order: Optional[Sequence[int]] = None
) -> RecoveryKernel:
    """The `RecoveryKernel` of the problem's equations restricted to the
    columns outside `zeros`, keeping their indices; one exact Gauss-Jordan
    pass (`rref`) over the rows not left empty.

    `rref` pivots on the lowest columns it can.  `order`, a permutation of
    the columns outside `zeros`, makes it pivot on the earliest columns of
    that order instead: the columns are relabelled by their place in it for
    the pass and mapped back after, and a sequence that is not such a
    permutation raises `ValueError`.  Any order gives the same rays, since
    every echelon form of the restricted equations has the same solutions."""
    cols = [j for j in range(problem.dim) if not zeros >> j & 1]
    label = None
    if order is not None:
        if sorted(order) != cols:
            raise ValueError("order is not a permutation of the columns outside zeros")
        label = dict(zip(order, range(len(order))))
    rows = []
    for equation in problem.equations:
        row = {j: x for j, x in equation.items() if not zeros >> j & 1}
        if row:
            rows.append(row if label is None else {label[j]: x for j, x in row.items()})
    reduced = rref(rows)
    if order is not None:
        reduced = {order[p]: {order[j]: x for j, x in row.items()} for p, row in reduced.items()}
    free: dict[int, list[tuple[int, int]]] = {j: [] for j in cols if j not in reduced}
    for p, row in reduced.items():
        for j, c in row.items():
            if j != p:
                free[j].append((p, c))
    pivots = sum(1 << p for p in reduced)
    return RecoveryKernel(zeros, pivots, {p: row[p] for p, row in reduced.items()}, free)


def final_recovery_kernel(problem: EnumerationProblem, masks: Sequence[int]) -> RecoveryKernel:
    """The `recovery_kernel` `run` recovers the final vertices from, given
    their zero sets `masks`: over the columns outside the zero set every
    mask contains.  On census8 those columns left out are a third of them,
    and the rays per instance are few, so a pass over every column would
    cost more than it saves.

    A ray's unknowns are the free columns it is non-zero on, so the columns
    most rays are non-zero on should be pivots.  With n_j the number of
    masks that miss column j, the columns left out are those with n_j = 0,
    and the input-order kernel's free columns F give U = sum of n_f over F
    unknowns in all; no order can give fewer than L, the sum of the |F|
    smallest n_j.  When 2L < U the kernel pivots on the columns by n_j
    instead, largest first, ties by index.
    """
    d = problem.dim
    # n_j in C: the byte column of bit j, translated to b"1" where a mask
    # misses it.
    columns = mask_columns(masks, d)
    misses = [columns[j >> 3].translate(_DISJOINT[1 << (j & 7)]).count(b"1") for j in range(d)]
    zeros = sum(1 << j for j, n in enumerate(misses) if not n)
    counts = {j: n for j, n in enumerate(misses) if n}
    kernel = recovery_kernel(problem, zeros)
    unknowns = sum(map(counts.__getitem__, kernel.free))
    least = sum(sorted(counts.values())[: len(kernel.free)])
    if 2 * least >= unknowns:
        return kernel
    return recovery_kernel(problem, zeros, sorted(counts, key=counts.__getitem__, reverse=True))


def recover(problem: EnumerationProblem, mask: int, kernel: Optional[RecoveryKernel] = None) -> Ray:
    """Coordinates of the unique ray whose final zero set is `mask`.

    The ray solves the equations with v_j = 0 for j in the zero set; it
    must be the only solution up to scale and positive on every other
    column, or `InternalError` is raised.  `kernel` is the
    `recovery_kernel` of the run, whose `zeros` the mask must contain;
    without one, one is built over every column.

    The unknowns y are the kernel's free columns outside the mask, the free
    ones inside being 0.  A pivot p inside the mask gives the constraint
    sum(c*y_f) = 0, and a pivot outside gives x_p = -sum(c*y_f) / den[p].
    The solutions y match those of the equations with the mask's
    coordinates 0 one to one, so the ray is the one a restricted
    elimination of all the equations gives.

    A walk over the unknowns' column lists, in order, builds the inside
    constraints and keeps the first one met at each unknown.  Those rows
    have distinct lowest unknowns, so they are in echelon form already:
    when there are n - 1 of them for n unknowns, `nullspace_generator`
    solves them alone, by back-substitution with no elimination.
    Otherwise every inside row goes in, those first.  A second walk, at
    the generator, sums every touched pivot's row: each inside sum must be
    0, which checks the rows the generator was not solved from, and the
    outside sums give the pivot coordinates.  The vector is then scaled to
    integers and divided by its gcd.  Every ray of loop12, loop15 and
    loop18 takes the first path.  On the unfiltered n = 6 loop 85 of the
    393 rays do, and the others make 1,675 eliminations in all.
    """
    d = problem.dim
    if mask >> d:
        raise InternalError("zero set has bits outside the problem dimension")
    if kernel is None:
        kernel = recovery_kernel(problem)
    elif kernel.zeros & ~mask:
        raise InternalError("zero set misses a column the recovery kernel left out")
    unknowns = [f for f in kernel.free if not mask >> f & 1]
    inside: dict[int, Row] = {}  # pivot in the mask -> its constraint on y
    echelon: list[Row] = []  # the first inside row met at each unknown
    rest: list[Row] = []  # the other inside rows
    for i, f in enumerate(unknowns):
        lowest = True
        for p, c in kernel.free[f]:
            if mask >> p & 1:
                row = inside.get(p)
                if row is None:
                    inside[p] = row = {i: c}
                    (echelon if lowest else rest).append(row)
                    lowest = False
                else:
                    row[i] = c
    n = len(unknowns)
    gen = nullspace_generator(echelon if len(echelon) >= n - 1 else echelon + rest, n)
    if gen is None:
        raise InternalError("recovery system does not have a one-dimensional solution space")
    sums: dict[int, int] = {}  # pivot -> -sum(c*y_f) at the generator
    get = sums.get
    for f, y in zip(unknowns, gen):
        for p, c in kernel.free[f]:
            sums[p] = get(p, 0) - c * y
    if any(sums.pop(p) for p in inside):  # an inside row the generator misses
        raise InternalError("recovery system does not have a one-dimensional solution space")
    if len(sums) != (kernel.pivots & ~mask).bit_count():
        raise InternalError("recovered vector does not match its zero set")  # a pivot is 0
    den = kernel.den
    scale = 1
    for p, s in sums.items():
        scale = lcm(scale, abs(den[p]) // gcd(s, den[p]))
    cols = unknowns + list(sums)
    values = [scale * y for y in gen] if scale != 1 else list(gen)
    values += [scale * s // den[p] for p, s in sums.items()]
    if min(values) <= 0:  # `gen` has a positive entry, so no multiple is positive
        raise InternalError("recovered vector does not match its zero set")
    g = vector_gcd(values)
    coords = [0] * d
    for j, x in zip(cols, values):
        coords[j] = x // g
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
    gcd-normalized and sorted lexicographically, together with the
    per-stage statistics.  Distinct extreme rays have distinct zero sets,
    so the final vertices give one ray each; two with one zero set raise
    `InternalError`.  Under `inner` the coordinates come from the
    `final_recovery_kernel` of the final zero sets and one `recover` call
    per final vertex; `nullspace_generator` is called only inside those.
    """
    if config is None:
        config = RunConfig()
    start = time.perf_counter()
    d = problem.dim
    masks, store = init_vertices(problem, config.representation)
    remaining = list(range(len(problem.equations)))
    stats = RunStats(initial=(d, stage_bytes(masks, store, d)))
    state = EngineState(problem, config, masks, store, [], remaining, 0, stats)
    del masks, store  # V_0 is freed with the first stage, not held to the end

    # Config and problem are validated by now: a ValueError from here on is
    # a broken invariant (say, a recovery order that is not a permutation of
    # the kernel's columns), not bad input.
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

        if len(set(state.masks)) != len(state.masks):
            raise InternalError("two final vertices share a zero set")
        if config.representation == "inner":
            kernel = final_recovery_kernel(problem, state.masks)
            rays = [recover(problem, mask, kernel) for mask in state.masks]
        else:
            rays = [Ray(tuple(v)) for v in state.vertices]
    except LimitError:
        raise
    except ValueError as exc:
        raise InternalError(f"invariant failed during the run: {exc}") from exc
    rays.sort(key=attrgetter("coords"))

    stats.elapsed_s = time.perf_counter() - start
    stats.final_count = len(rays)
    return rays, stats
