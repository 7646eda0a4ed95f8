"""Dense finite functions and brute-force ground truth.

Everything here works from raw value tables, with no knowledge of
lattice structure or coefficient tables, so it can serve as an
independent oracle for the closed-form machinery elsewhere in the
package. Essentiality is decided by scanning point pairs, and the arity
gap by building every identification minor and counting its essential
variables.

Points are encoded little-endian: position 1 is the fastest-moving
digit of the table index, so the digit of position k repeats in runs of
stride_k = |A_1|...|A_{k-1}| entries. A table is a `bytes` object, one
byte per entry, so a codomain has at most MAX_CODOMAIN = 256 values and
values are checked in C with one `bytes.translate`.

Essentiality reads the whole table as one big-endian integer T, entry 0
in the most significant byte. Shifting T left by 8*stride_k bits lines
every entry up with the entry one digit higher at position k, so k is
inessential exactly when ((T << 8*stride_k) ^ T) vanishes on the
entries whose digit at k is not the last. Those shifts and masks, one
pair per position, form the plan of a shape, kept in a bounded cache
for tables of at most KEPT_PLAN_ENTRIES entries and built one position
at a time, as a scan reads it, beyond.

Identification minors are integers too, one per pair i < j of
essential positions in `gap_bruteforce`. A minor is built by shifts
alone, with a doubling fill (the parallel prefix of W. D. Hillis and
G. L. Steele, "Data parallel algorithms", CACM 1986).
The diagonal mask keeps, in each fibre along i (the |A| points that
differ only at i), the entry whose digit at i equals its digit at j.
The gather ORs the masked T >> s into itself over the plan's fill
shifts s = d*8*stride_i, d = 1, 2, 4, ... (the last cut short) adding
up to |A| - 1, so each entry collects a window of exactly |A| digits at
and below its own: the last digit of a fibre holds the kept entry and
nothing from the fibre before. The not-last mask clears the rest, and
the broadcast ORs T << s over the same shifts, down the fibre and never
past digit 0. The diagonals are cached by the size rule of plans.

Two batch oracles answer the same questions for many tables at once,
on one private core. It reads one big integer per point, a column
whose lane f, counted from the top, is table f's value there.
`boolean_gap_codes` takes every Boolean function of one arity in 1-bit
lanes, bit-sliced (E. Biham, "A fast new DES implementation in
software", FSE 1997). `lane_gap_codes` takes a chunk of tables of one
shape in 8-bit lanes (L. Lamport, "Multiple byte processing with
full-word instructions", CACM 1975), which the core folds to their
lowest bit. XOR and OR never carry between lanes, so each neighbour
pair of points costs one XOR and one OR for the whole chunk. The core
reads each minor (i, j), i < j, on the points whose digits at i and j
agree, and one encoder turns its planes, widened to byte lanes, into
mask and code bytes. `table_gap_codes` cuts whole tables into columns.
Both batch oracles read values only, and `gap_bruteforce` stays the
reference for single functions.

`enumerate_monotone_maps` builds the monotone maps {0,1}^n -> L by
doubling: a table of arity j is monotone exactly when its two halves
are monotone tables A <= B of arity j - 1. It refuses an arity below n
whose tables could pass DEFAULT_BUDGET entries before building the
arity under it, and one whose tables, rank dicts and index lists would
pass MONOTONE_BYTES before building it.

This module imports no other latgap module at run time, so the oracle
knows only value tables.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .lattice import Lattice


class EnumerationBudgetError(ValueError):
    """An exhaustive sweep would exceed the configured budget."""


DEFAULT_BUDGET = 10_000_000

# enumerate_monotone_maps refuses a shape whose lower arities would take
# more than this many bytes as the Python objects it builds them into.
MONOTONE_BYTES = 64 << 20

# A table stores one value per byte.
MAX_CODOMAIN = 256

# _BYTES[:c] lists the values of a codomain of c values; deleting them
# from a table leaves the values outside it.
_BYTES = bytes(range(MAX_CODOMAIN))

# The plan of a shape (its n not-last-digit masks, each as long as the
# table) and its diagonal masks are kept when the table has at most
# this many entries, so a plan pins at most 15 * 2^15 bytes, the 32
# kept plans at most 15 MiB and the 128 kept diagonals at most 4 MiB.
# Larger tables get each mask built as it is read, which costs about
# one more pass over the table per mask.
KEPT_PLAN_ENTRIES = 1 << 15


def _check_codomain(codomain: int) -> None:
    if codomain > MAX_CODOMAIN:
        raise ValueError(f"codomain of {codomain} values exceeds the bound of "
                         f"{MAX_CODOMAIN} (one byte per table entry)")


def _as_bytes(values: Sequence[int]) -> bytes:
    # Through an iterator: bytes() of an int n makes n zero bytes, and of
    # a buffer with wider items it copies raw memory.
    try:
        return bytes(iter(values))
    except (TypeError, ValueError):
        bad = next(v for v in values if not isinstance(v, int) or not 0 <= v < 256)
        raise ValueError(f"value {bad!r} out of codomain range") from None


@dataclass(frozen=True)
class FiniteFn:
    """A total function between finite sets, as a dense value table.

    `sizes[k-1]` is the alphabet size of position k, `codomain` the
    number of output values (at most MAX_CODOMAIN), and `table[i]` the
    value at the point with little-endian mixed-radix index i. `sizes`
    may be given as any sequence and is stored as a tuple, `table` as
    any sequence of ints and is stored as `bytes`.
    """

    sizes: tuple[int, ...]
    codomain: int
    table: bytes

    def __post_init__(self):
        if not isinstance(self.codomain, int) or self.codomain < 1:
            raise ValueError("codomain size must be at least 1")
        _check_codomain(self.codomain)
        if type(self.sizes) is not tuple:
            object.__setattr__(self, "sizes", tuple(self.sizes))
        for a in self.sizes:
            if not isinstance(a, int) or a < 2:
                raise ValueError(f"alphabet sizes must be at least 2, got {a!r}")
        table = self.table
        if type(table) is not bytes:
            table = _as_bytes(table)
            object.__setattr__(self, "table", table)
        if len(table) != math.prod(self.sizes):
            raise ValueError(
                f"table has {len(table)} entries, expected {math.prod(self.sizes)}")
        if table.translate(None, _BYTES[:self.codomain]):
            bad = next(v for v in table if v >= self.codomain)
            raise ValueError(f"value {bad!r} out of codomain range")

    @property
    def arity(self) -> int:
        return len(self.sizes)

    def __call__(self, point: Sequence[int]) -> int:
        return self.table[point_index(self.sizes, point)]


def _proven_finfun(sizes: tuple[int, ...], codomain: int, table: bytes) -> FiniteFn:
    # A FiniteFn whose shape, codomain and values the caller has already
    # proved, built without the constructor's re-check.
    f = object.__new__(FiniteFn)
    f.__dict__.update(sizes=sizes, codomain=codomain, table=table)
    return f


def point_index(sizes: tuple[int, ...], point: Sequence[int]) -> int:
    if len(point) != len(sizes):
        raise ValueError(f"point has {len(point)} digits, expected {len(sizes)}")
    idx = 0
    stride = 1
    for digit, size in zip(point, sizes):
        if not 0 <= digit < size:
            raise ValueError(f"digit {digit!r} out of range for alphabet size {size}")
        idx += digit * stride
        stride *= size
    return idx


def _not_last_digit(sizes: tuple[int, ...], pos: int) -> int:
    # 0xff on every entry whose digit at `pos` is not the last, as a
    # big-endian integer the length of the table.
    stride = math.prod(sizes[:pos - 1])
    block = stride * sizes[pos - 1]
    pattern = b"\xff" * (block - stride) + bytes(stride)
    return int.from_bytes(pattern * (math.prod(sizes) // block), "big")


def _build_diagonal(sizes: tuple[int, ...], i: int, j: int) -> int:
    # 0xff on every entry whose digits at i < j are equal, as a
    # big-endian integer the length of the table. Within the run where
    # digit j is v, the entries with digit v at i recur every si*size.
    size = sizes[i - 1]
    si, sj = math.prod(sizes[:i - 1]), math.prod(sizes[:j - 1])
    repeat = sj // (si * size)
    block = b"".join([(bytes(v * si) + b"\xff" * si + bytes((size - 1 - v) * si)) * repeat
                      for v in range(size)])
    return int.from_bytes(block * (math.prod(sizes) // (sj * size)), "big")


_kept_diagonal = functools.lru_cache(maxsize=128)(_build_diagonal)


def _diagonal(sizes: tuple[int, ...], i: int, j: int) -> int:
    # The diagonal mask of i < j, kept by the same rule as plans.
    if math.prod(sizes) <= KEPT_PLAN_ENTRIES:
        return _kept_diagonal(sizes, i, j)
    return _build_diagonal(sizes, i, j)


# Per position k of a shape: the shift 8*stride_k, _not_last_digit's
# mask and _minor's fill shifts.
_PlanEntry = tuple[int, int, tuple[int, ...]]
_Plan = Sequence[_PlanEntry]


def _plan_entry(sizes: tuple[int, ...], pos: int) -> _PlanEntry:
    stride, size = math.prod(sizes[:pos - 1]), sizes[pos - 1]
    # Steps d = 1, 2, 4, ... that add up to |A_k| - 1, so that the
    # windows they fill grow to exactly |A_k| digits.
    fills = []
    width = 1
    while width < size:
        step = min(width, size - width)
        fills.append(8 * stride * step)
        width += step
    return 8 * stride, _not_last_digit(sizes, pos), tuple(fills)


@functools.lru_cache(maxsize=32)
def _kept_plan(sizes: tuple[int, ...]) -> _Plan:
    return tuple(_plan_entry(sizes, pos) for pos in range(1, len(sizes) + 1))


class _FreshPlan:
    # The plan of a shape too large to keep. Each entry is built when it
    # is read, so a scan holds one or two not-last masks, not n.
    def __init__(self, sizes: tuple[int, ...]):
        self.sizes = sizes

    def __getitem__(self, index: int) -> _PlanEntry:
        return _plan_entry(self.sizes, range(1, len(self.sizes) + 1)[index])


def _plan(sizes: tuple[int, ...], entries: int) -> _Plan:
    # The plan of a shape whose table has `entries` entries: kept when
    # that is at most KEPT_PLAN_ENTRIES, built as it is read beyond.
    return _kept_plan(sizes) if entries <= KEPT_PLAN_ENTRIES else _FreshPlan(sizes)


def _essential(t: int, plan: _Plan) -> list[int]:
    # The essential positions of the table read as T, in increasing order.
    return [pos for pos, (shift, mask, _) in enumerate(plan, 1) if ((t << shift) ^ t) & mask]


def _minor(t: int, sizes: tuple[int, ...], i: int, j: int, plan: _Plan) -> int:
    # The table of minor (i, j) as an integer, from the table as the
    # integer T. Entry p of the minor is the entry of its fibre along i
    # (the points that differ from p only at i) whose digit at i equals
    # its digit at j, the one entry of that fibre the diagonal keeps.
    if sizes[j - 1] != sizes[i - 1]:
        raise ValueError("positions to identify must share an alphabet size")
    _, not_last, fills = plan[i - 1]
    minor = t & _diagonal(sizes, min(i, j), max(i, j))
    # Gather each fibre's entry into its last digit, keep only those ...
    for shift in fills:
        minor |= minor >> shift
    minor ^= minor & not_last
    # ... and copy it back down the fibre.
    for shift in fills:
        minor |= minor << shift
    return minor


def ess_bruteforce(f: FiniteFn) -> frozenset[int]:
    """Definitional essentiality: position k is essential when two points
    differing only at k get different values. Points one digit apart at
    k sit stride_k entries apart; comparing every such pair covers all
    pairs that differ only at k."""
    return frozenset(_essential(int.from_bytes(f.table, "big"), _plan(f.sizes, len(f.table))))


def identify_table(f: FiniteFn, i: int, j: int) -> FiniteFn:
    """The minor with position i forced to copy position j.

    Raises ValueError for positions that are not ints (or are bools),
    lie outside 1..arity, are equal, or have different alphabet sizes.
    """
    for pos in (i, j):
        if not isinstance(pos, int) or isinstance(pos, bool):
            raise ValueError(f"positions must be ints, got {pos!r}")
    n = f.arity
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"positions must be in 1..{n}, got ({i}, {j})")
    if i == j:
        raise ValueError("identify needs two distinct positions")
    minor = _minor(int.from_bytes(f.table, "big"), f.sizes, i, j,
                   _plan(f.sizes, len(f.table)))
    return FiniteFn(f.sizes, f.codomain, minor.to_bytes(len(f.table), "big"))


@dataclass(frozen=True)
class GapReport:
    """Ground-truth essentiality and gap for one function.

    `essl` is the largest essential-variable count over all minors that
    identify one essential position with another (one order per pair);
    `gap` is `ess - essl` and is always at least 1, because the
    identified position goes inessential in its minor. Below two
    essential positions the gap is undefined and `essl` and `gap` are
    None.
    """

    essential: frozenset[int]
    ess: int
    essl: int | None
    gap: int | None


def gap_bruteforce(f: FiniteFn) -> GapReport:
    """Compute the essential positions and the arity gap, the latter by
    exhausting identification minors.

    Minors (i, j) are tried for each pair i < j of essential positions
    in increasing order, until one keeps all but one essential position;
    (j, i) differs only by swapping x_i and x_j, so it keeps as many.
    Raises ValueError ("positions to identify must share an alphabet
    size") when the search reaches a pair of essential positions whose
    alphabet sizes differ, such as positions 1 and 2 of
    (x1 + x2) mod 3 over alphabets of sizes 2 and 3.
    """
    t = int.from_bytes(f.table, "big")
    plan = _plan(f.sizes, len(f.table))
    positions = _essential(t, plan)
    ess = frozenset(positions)
    if len(positions) < 2:
        return GapReport(ess, len(ess), None, None)
    best = 0
    for i, j in itertools.combinations(positions, 2):
        best = max(best, len(_essential(_minor(t, f.sizes, i, j, plan), plan)))
        if best == len(positions) - 1:
            break
    return GapReport(ess, len(ess), best, len(ess) - best)


def _build_lane_plan(sizes: tuple[int, ...]) -> tuple[Iterable, Iterable]:
    # Per position k, the points whose digit at k is not the last and
    # their neighbours one digit up there; per pair i < j of positions,
    # the points whose digits at i and j are equal, in the index order
    # of the shape without position i. All lazily, from ranges.
    total = math.prod(sizes)
    strides = [math.prod(sizes[:k]) for k in range(len(sizes) + 1)]

    def runs(first: int, last: int, block: int) -> Iterator[int]:
        return itertools.chain.from_iterable(range(b + first, b + last)
                                             for b in range(0, total, block))

    def diagonal(i: int, j: int) -> Iterator[int]:
        a, si, sj = sizes[i], strides[i], strides[j] // sizes[i]
        return (r % si + (r // si * a + r // sj % a) * si for r in range(total // a))

    return (((runs(0, b - s, b), runs(s, b, b)) for s, b in zip(strides, strides[1:])),
            (diagonal(i, j) for i, j in itertools.combinations(range(len(sizes)), 2)))


@functools.lru_cache(maxsize=16)
def _kept_lane_plan(sizes: tuple[int, ...]) -> tuple[Iterable, Iterable]:
    pairs, diagonals = _build_lane_plan(sizes)
    return tuple((tuple(lo), tuple(hi)) for lo, hi in pairs), tuple(map(tuple, diagonals))


def _lane_plan(sizes: tuple[int, ...]) -> tuple[Iterable, Iterable]:
    # A lane plan holds about (n + 1)^2 indices per table entry: kept
    # while that is at most KEPT_PLAN_ENTRIES, read from ranges beyond.
    if (len(sizes) + 1) ** 2 * math.prod(sizes) <= KEPT_PLAN_ENTRIES:
        return _kept_lane_plan(sizes)
    return _build_lane_plan(sizes)


def _lane_planes(columns: Sequence[int], pairs: Iterable, ones: int,
                 folds: tuple[int, ...]) -> list[int]:
    # Per position, the integer whose lane f is 1 when the position is
    # essential for table f: some neighbour pair differs there.
    get = columns.__getitem__
    planes = []
    for lo, hi in pairs:
        plane = functools.reduce(operator.or_, map(operator.xor, map(get, lo), map(get, hi)), 0)
        for shift in folds:  # OR each lane's bits into its lowest
            plane |= plane >> shift
        planes.append(plane & ones)
    return planes


def _gap_planes(sizes: tuple[int, ...], columns: Sequence[int], ones: int,
                folds: tuple[int, ...]) -> tuple[list[int], tuple[int, int, int]]:
    # The essential plane of each position, and three code planes whose
    # lanes add up to the gap code, for the tables in the lanes of the
    # point columns; `ones` is 1 in every lane, and `folds` the shifts
    # that fold a lane into its lowest bit. A minor (i, j), i < j, is
    # read on the diagonal points as a table of the shape without i.
    # Per pair, "lost one" and "lost two" mark the lanes whose minor
    # drops one, or two, essential positions besides i.
    pairs, diagonals = _lane_plan(sizes)
    ess = _lane_planes(columns, pairs, ones, folds)
    seen = analysed = gap1 = at_most2 = 0
    for plane in ess:
        analysed |= seen & plane
        seen |= plane
    for (i, j), points in zip(itertools.combinations(range(len(sizes)), 2), diagonals):
        both = ess[i] & ess[j]
        if not both:
            continue
        minor = _lane_planes(list(map(columns.__getitem__, points)),
                             _lane_plan(sizes[1:])[0], ones, folds)
        lost_one = lost_two = 0
        for k, plane in enumerate(ess):
            if k != i:
                lost = plane & ~minor[k - (k > i)]
                lost_two |= lost_one & lost
                lost_one |= lost
        gap1 |= both & ~lost_one
        at_most2 |= both & ~lost_two
    return ess, (analysed, analysed & ~gap1, analysed & ~at_most2)


def _lane_bytes(ess: Iterable[int], code_planes: Iterable[int], count: int,
                width: int) -> tuple[bytes, bytes]:
    # The masks, `width` bytes per table, and the gap code bytes of
    # `count` tables, from their byte-lane planes, each read once.
    ess = iter(ess)
    masks = bytearray(count * width)
    for b in range(width):
        masks[b::width] = sum(plane << k for k, plane in enumerate(itertools.islice(ess, 8))
                              ).to_bytes(count, "big")
    return bytes(masks), sum(code_planes).to_bytes(count, "big")


# Turns the text digits of a plane into bytes of value 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def boolean_gap_codes(n: int) -> tuple[bytes, bytes]:
    """Essential positions and arity gap of every Boolean function of
    arity n, bit-sliced.

    Returns two `bytes` of length 2**(2**n), indexed like
    `enumerate_all_functions(n, 2, 2)`: byte F of the first is the mask
    of function F's essential positions (bit k-1 for position k), and
    byte F of the second its gap code: 0 below two essential positions
    (gap undefined), 1, 2, or 3 for a gap of 3 or more.

    Entry p of table F is bit 2**n-1-p of F, so the column of point p,
    the integer whose bit 2**(2**n)-1-F is F's value at p, is a periodic
    bit pattern. The columns go through lane_gap_codes' core in 1-bit
    lanes, minors (i, j) on the diagonals of pairs i < j, and each plane
    is widened to one byte per function once, one plane at a time.

    Raises ValueError for a negative or non-int n, and
    EnumerationBudgetError, before building anything, when the
    2**(2**n) functions exceed DEFAULT_BUDGET.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("arity must be a nonnegative int")
    # 2**points > DEFAULT_BUDGET exactly when points >= limit; decided
    # from n first, so that a large n builds no large integer.
    limit = DEFAULT_BUDGET.bit_length()
    if n >= limit.bit_length() or 1 << n >= limit:
        raise EnumerationBudgetError(
            f"2**(2**{n}) functions exceed the budget of {DEFAULT_BUDGET}")
    points = 1 << n
    total = 1 << points
    # Read from the top, column p runs through blocks of total >> (p + 1)
    # zeros and ones; XOR with itself shifted by half a block halves them.
    columns = [(1 << total // 2) - 1]
    for p in range(1, points):
        columns.append(columns[-1] ^ columns[-1] << (total >> (p + 1)))
    ess, code_planes = _gap_planes((2,) * n, columns, (1 << total) - 1, ())
    del columns
    digits = f"0{total}b"

    def widened(planes: Iterable[int]) -> Iterator[int]:
        return (int.from_bytes(format(plane, digits).encode().translate(_DIGIT_VALUES), "big")
                for plane in planes)

    return _lane_bytes(widened(ess), widened(code_planes), total, 1)


def _lane_total(sizes: tuple[int, ...]) -> int:
    # The number of points of a lane shape, once the shape is checked.
    for a in sizes:
        if not isinstance(a, int) or a < 2:
            raise ValueError(f"alphabet sizes must be at least 2, got {a!r}")
    if len(set(sizes)) > 1:
        raise ValueError("positions must share one alphabet size")
    total = math.prod(sizes)
    if total > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"tables of {total} entries exceed the budget of {DEFAULT_BUDGET}")
    return total


def lane_gap_codes(sizes: Sequence[int], columns: Sequence[bytes]) -> tuple[bytes, bytes]:
    """Essential positions and arity gap of each of a chunk of tables of
    one shape, given in columns: byte f of column p is table f's value
    at point p, one column per point in index order.

    Returns the masks, w = max(1, ceil(n / 8)) bytes per table: bytes
    f*w to f*w+w-1, read little-endian, have bit k-1 set when position k
    of table f is essential. And one gap code byte per table, as
    boolean_gap_codes gives them: 0 below two essential positions (gap
    undefined), 1, 2, or 3 for a gap of 3 or more.

    The columns go through the core that boolean_gap_codes shares, in
    byte lanes. A minor (i, j), i < j, is read on the diagonal points,
    where digits i and j are equal, as a table of the shape without
    position i; both orders of a pair give one minor up to renaming.

    Raises ValueError for a size that is not an int of at least 2, for
    positions of more than one alphabet size and for columns that are
    not one per point or not of one length, and EnumerationBudgetError
    for tables of more than DEFAULT_BUDGET entries.
    """
    sizes = tuple(sizes)
    total = _lane_total(sizes)
    if len(columns) != total or len(set(map(len, columns))) > 1:
        raise ValueError(f"need {total} columns of one length")
    count = len(columns[0])
    ess, code_planes = _gap_planes(sizes, [int.from_bytes(column, "big") for column in columns],
                                   int.from_bytes(b"\x01" * count, "big"), (4, 2, 1))
    return _lane_bytes(ess, code_planes, count, max(1, -(-len(sizes) // 8)))


def table_gap_codes(sizes: Sequence[int], tables: Sequence[bytes]) -> tuple[bytes, bytes]:
    """lane_gap_codes on a chunk of whole tables, cut into columns.
    Raises its errors, and ValueError for a table of the wrong length."""
    total = _lane_total(tuple(sizes))
    if any(len(table) != total for table in tables):
        raise ValueError(f"every table must have {total} entries")
    blob = b"".join(tables)
    return lane_gap_codes(sizes, [blob[p::total] for p in range(total)])


def salomaa_function(k: int) -> FiniteFn:
    """The k-ary function on a k-letter alphabet that is 1 exactly at the
    point (0, 1, ..., k-1) and 0 elsewhere.

    Every variable is essential, yet identifying any two makes the
    distinguished repetition-free point unreachable and the minor
    constant, so the arity gap is the full k.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError("need an integer alphabet size of at least 2")
    if k > 8:
        raise ValueError("table size k**k is unreasonable beyond k = 8")
    total = k ** k
    special = sum(t * k ** t for t in range(k))
    table = bytearray(total)
    table[special] = 1
    return FiniteFn((k,) * k, k, bytes(table))


def _double(tables: list[tuple[int, ...]], above: list[list[int]]
            ) -> tuple[list[tuple[int, ...]], Iterator[list[int]]]:
    # From the tables of one arity, each with the ascending indices of
    # the tables above it, the same for one arity more: the pairs A <= B
    # as A + B, in lexicographic order, the indices lazily. (C, D) lies
    # above (A, B) when C >= A and D >= B; rank[C][D] indexes (C, D).
    start = itertools.accumulate(map(len, above), initial=0)
    rank = [dict(zip(up, itertools.count(first))) for up, first in zip(above, start)]
    return ([tables[a] + tables[b] for a, up in enumerate(above) for b in up],
            ([i for c in up for i in map(rank[c].get, above[b]) if i is not None]
             for up in above for b in up))


def _doubling_bytes(j: int, below: int, tables: int) -> int:
    # An upper estimate of the bytes that _double holds while it builds
    # `tables` tables of arity j from `below` of arity j - 1. Per table
    # of arity j: its tuple (40 + 8 * 2^j bytes) and list slot, its rank
    # dict entry with a fresh int, and its slot in an index list, 160
    # bytes beyond the entries. Per table of arity j - 1: its tuple and
    # list slot, its rank dict and its index list, 350 beyond the
    # entries. Measured with tracemalloc to the first map drawn, the
    # peak is 0.5 to 0.86 of this.
    return tables * ((8 << j) + 160) + below * ((4 << j) + 350)


def enumerate_monotone_maps(n: int, lattice: "Lattice") -> Iterator[tuple[int, ...]]:
    """Yield every monotone map {0,1}^n -> L exactly once, as a coefficient
    table (element indices by subset mask), in lexicographic order of
    the tables, a_0 first.

    A table of arity j is monotone exactly when its halves, the masks
    without and with position j, are monotone tables A <= B of arity
    j - 1 (the recursion behind the Dedekind numbers). Every arity
    below n is built whole, each table with the indices of the tables
    above it, and the maps are drawn as the pairs A <= B of arity n - 1.

    Checks its arguments and builds those arities when called: an arity
    that is not an int in 0..16 raises ValueError. An arity j < n whose
    tables could hold more than DEFAULT_BUDGET entries, judged as
    |M(j - 1)|^2 * 2^j, raises EnumerationBudgetError as soon as the
    count |M(j - 1)| is known, before arity j - 1 is built; so does one
    whose tables, rank dicts and index lists would take more than
    MONOTONE_BYTES at their CPython cost, judged from the exact count
    |M(j)| that the index lists of arity j - 1 give.
    """
    if not isinstance(n, int) or not 0 <= n <= 16:
        raise ValueError("arity must be an int in 0..16")
    k, up = lattice.size, lattice._up
    tables, count = [(v,) for v in range(k)], k
    if n == 0:
        return iter(tables)
    above = ([w for w in range(k) if up[v] >> w & 1] for v in range(k))
    for j in range(1, n):
        # count is |M(j - 1)|: arity j's entries are judged before arity
        # j - 1 is built.
        if count ** 2 << j > DEFAULT_BUDGET:
            raise EnumerationBudgetError(
                f"monotone maps of arity {n} need all those of arity {j}: up to "
                f"{count}^2 tables of 2^{j} entries, more than the budget of "
                f"{DEFAULT_BUDGET}")
        if j > 1:
            tables, above = _double(tables, above)
        above = list(above)
        count = sum(map(len, above))
        cost = _doubling_bytes(j, len(tables), count)
        if cost > MONOTONE_BYTES:
            raise EnumerationBudgetError(
                f"monotone maps of arity {n} need all those of arity {j}: {count} tables "
                f"of 2^{j} entries, about {cost} bytes as Python objects, more than the "
                f"budget of {MONOTONE_BYTES} bytes")
    if n > 1:
        tables, above = _double(tables, above)
    return (table + tables[b] for table, up in zip(tables, above) for b in up)


def _power_within_budget(base: int, exponent: int) -> int | None:
    # base**exponent for a base of at least 2, or None once it passes
    # DEFAULT_BUDGET: multiplied up with an early exit, so that a large
    # exponent never builds a large integer.
    power = 1
    for _ in range(exponent):
        power *= base
        if power > DEFAULT_BUDGET:
            return None
    return power


def enumerate_all_functions(n: int, a: int, b: int) -> Iterator[FiniteFn]:
    """Yield all b**(a**n) functions from {0..a-1}^n to {0..b-1}.

    Checks its arguments when called, before the first function is
    drawn: an n, a or b that is not an int (or is a bool), a negative
    n, an a or b below 2 and a codomain above MAX_CODOMAIN raise
    ValueError, and a count above DEFAULT_BUDGET EnumerationBudgetError.
    Every table drawn is then valid by construction, so the functions
    are built without FiniteFn's re-check. The order is deterministic
    (the last table entry varies fastest) and every function appears
    exactly once.
    """
    for name, value in (("arity", n), ("alphabet size", a), ("codomain size", b)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    _check_codomain(b)
    if n < 0:
        raise ValueError("arity must be a nonnegative int")
    if a < 2 or b < 2:
        raise ValueError("alphabet sizes must be at least 2")
    points = _power_within_budget(a, n)
    if points is None or _power_within_budget(b, points) is None:
        raise EnumerationBudgetError(
            f"{b}**({a}**{n}) functions exceed the budget of {DEFAULT_BUDGET}")
    sizes = (a,) * n
    return (_proven_finfun(sizes, b, bytes(tab))
            for tab in itertools.product(range(b), repeat=points))


def parse_finite_fn(text: str) -> FiniteFn:
    """A FiniteFn from its text form: a header 'arity a_size b_size', then
    the values in point order; '#' comments and blank lines allowed."""
    tokens: list[str] = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if len(tokens) < 3:
        raise ValueError("expected a header: arity a_size b_size")
    try:
        n, a, b = (int(t) for t in tokens[:3])
    except ValueError:
        raise ValueError(f"bad header {' '.join(tokens[:3])!r}") from None
    if n < 1 or a < 2 or b < 2:
        raise ValueError(f"bad header values arity={n} a_size={a} b_size={b}")
    _check_codomain(b)
    points = _power_within_budget(a, n)
    if points is None:
        raise ValueError(f"header arity={n} a_size={a} b_size={b} asks for more "
                         f"than {DEFAULT_BUDGET} values")
    body = tokens[3:]
    if len(body) != points:
        raise ValueError(f"expected {points} values, got {len(body)}")
    values = []
    for t in body:
        try:
            v = int(t)
        except ValueError:
            raise ValueError(f"bad value {t!r}") from None
        if not 0 <= v < b:
            raise ValueError(f"value {v} out of range 0..{b - 1}")
        values.append(v)
    return FiniteFn((a,) * n, b, bytes(values))
