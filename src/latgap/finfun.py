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

Identification minors are integers too. `gap_bruteforce` and
`ess_bruteforce` are thin wrappers over the private `_gap_search` and
`_ess_scan`, which take a shape and a byte table, so a caller that made
and checked a table itself searches it with no FiniteFn at all. A minor
is built by shifts alone, with a doubling fill (the parallel prefix of
W. D. Hillis and G. L. Steele, "Data parallel algorithms", CACM 1986).
The diagonal mask keeps, in each fibre along i (the |A| points that
differ only at i), the entry whose digit at i equals its digit at j.
The gather ORs the masked T >> s into itself over the plan's fill
shifts s = d*8*stride_i, d = 1, 2, 4, ... (the last cut short) adding
up to |A| - 1, so each entry collects a window of exactly |A| digits at
and below its own: the last digit of a fibre holds the kept entry and
nothing from the fibre before. The not-last mask clears the rest, and
the broadcast ORs T << s over the same shifts, down the fibre and never
past digit 0. The diagonals are cached by the size rule of plans.

Two batch oracles answer the same questions for many tables at once.
`boolean_gap_codes` takes every Boolean function of one arity,
bit-sliced (E. Biham, "A fast new DES implementation in software", FSE
1997): one big integer per point, whose bit F is function F's value
there. `lane_gap_codes` takes a chunk of tables of one shape in byte
lanes (L. Lamport, "Multiple byte processing with full-word
instructions", CACM 1975): one big integer per point, whose byte f is
table f's value there. XOR and OR never carry between lanes, so each
neighbour pair of points costs one XOR and one OR for the whole chunk.
It reads columns, one per point with one byte per table, and
`table_gap_codes` cuts whole tables into them. Both batch oracles read
values only, and `gap_bruteforce` stays the reference for single
functions.

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


def _ess_scan(sizes: tuple[int, ...], table: bytes) -> frozenset[int]:
    # The essential positions of a table of the given shape. Points one
    # digit apart at k sit stride_k entries apart; comparing every such
    # pair covers all pairs that differ only at k.
    return frozenset(_essential(int.from_bytes(table, "big"), _plan(sizes, len(table))))


def ess_bruteforce(f: FiniteFn) -> frozenset[int]:
    """Definitional essentiality: position k is essential when two points
    differing only at k get different values."""
    return _ess_scan(f.sizes, f.table)


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
    identify one essential position with another (both orders tried);
    `gap` is `ess - essl` and is always at least 1, because the
    identified position goes inessential in its minor. Below two
    essential positions the gap is undefined and `essl` and `gap` are
    None.
    """

    essential: frozenset[int]
    ess: int
    essl: int | None
    gap: int | None


def _gap_search(sizes: tuple[int, ...], table: bytes) -> GapReport:
    # gap_bruteforce on a table of the given shape.
    t = int.from_bytes(table, "big")
    plan = _plan(sizes, len(table))
    positions = _essential(t, plan)
    ess = frozenset(positions)
    if len(positions) < 2:
        return GapReport(ess, len(ess), None, None)
    best = 0
    limit = len(positions) - 1
    for i in positions:
        for j in positions:
            if i == j:
                continue
            count = len(_essential(_minor(t, sizes, i, j, plan), plan))
            if count > best:
                best = count
                if best == limit:
                    break
        if best == limit:
            break
    return GapReport(ess, len(ess), best, len(ess) - best)


def gap_bruteforce(f: FiniteFn) -> GapReport:
    """Compute the essential positions and the arity gap, the latter by
    exhausting identification minors.

    Minors are tried for each ordered pair of essential positions in
    increasing order, until one keeps all but one essential position.
    Raises ValueError ("positions to identify must share an alphabet
    size") when the search reaches a pair of essential positions whose
    alphabet sizes differ, such as positions 1 and 2 of
    (x1 + x2) mod 3 over alphabets of sizes 2 and 3.
    """
    return _gap_search(f.sizes, f.table)


def _periodic(block: int, total: int) -> int:
    # Over `total` bits, the bits whose index has bit log2(block) set:
    # bit F set exactly when (F // block) is odd. Built by doubling.
    pattern = ((1 << block) - 1) << block
    width = 2 * block
    while width < total:
        pattern |= pattern << width
        width *= 2
    return pattern


def _essential_planes(columns: Sequence[int], n: int) -> list[int]:
    # Plane k-1 has bit F set when position k is essential for function
    # F: some two points differing only at k get different values.
    planes = []
    for k in range(n):
        bit = 1 << k
        plane = 0
        for p, column in enumerate(columns):
            if not p & bit:
                plane |= column ^ columns[p | bit]
        planes.append(plane)
    return planes


# Turns the text digits of a plane into bytes of value 0 and 1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _byte_per_bit(plane: int, total: int) -> int:
    # An integer whose little-endian byte F is bit F of `plane`.
    return int.from_bytes(format(plane, f"0{total}b").encode().translate(_DIGIT_VALUES),
                          "big")


def boolean_gap_codes(n: int) -> tuple[bytes, bytes]:
    """Essential positions and arity gap of every Boolean function of
    arity n, bit-sliced.

    Returns two `bytes` of length 2**(2**n), indexed like
    `enumerate_all_functions(n, 2, 2)`: byte F of the first is the mask
    of function F's essential positions (bit k-1 for position k), and
    byte F of the second its gap code: 0 below two essential positions
    (gap undefined), 1, 2, or 3 for a gap of 3 or more.

    Entry p of table F is bit 2**n-1-p of F, so the column of point p,
    the integer whose bit F is F's value at p, is a periodic bit
    pattern. Identifying position i with j re-indexes the columns, and
    per pair two accumulators over the positions other than i, "lost
    one" and "lost two", mark the functions whose minor drops no further
    essential position (gap 1) or at most one (gap at most 2).

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
    columns = [_periodic(1 << (points - 1 - p), total) for p in range(points)]
    ess = _essential_planes(columns, n)
    seen = analysed = 0  # at least one, at least two essential positions
    for plane in ess:
        analysed |= seen & plane
        seen |= plane
    gap1 = at_most2 = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            # Point p of the minor reads point sigma(p) of f: bit i set to bit j.
            minor = [columns[(p & ~(1 << i)) | ((p >> j & 1) << i)]
                     for p in range(points)]
            lost_one = lost_two = 0
            for k, kept in enumerate(_essential_planes(minor, n)):
                if k != i:
                    lost = ess[k] & ~kept
                    lost_two |= lost_one & lost
                    lost_one |= lost
            both = ess[i] & ess[j]
            gap1 |= both & ~lost_one
            at_most2 |= both & ~lost_two
    masks = sum(_byte_per_bit(plane, total) << k for k, plane in enumerate(ess))
    codes = sum(_byte_per_bit(plane, total)
                for plane in (analysed, analysed & ~gap1, analysed & ~at_most2))
    return masks.to_bytes(total, "little"), codes.to_bytes(total, "little")


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


def _lane_planes(columns: Sequence[int], pairs: Iterable, ones: int) -> list[int]:
    # Per position, the integer whose byte lane f is 1 when the position
    # is essential for table f: some neighbour pair differs there.
    get = columns.__getitem__
    planes = []
    for lo, hi in pairs:
        plane = functools.reduce(operator.or_, map(operator.xor, map(get, lo), map(get, hi)), 0)
        for shift in (4, 2, 1):  # OR each lane's 8 bits into its lowest
            plane |= plane >> shift
        planes.append(plane & ones)
    return planes


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

    A minor (i, j) is read on the diagonal points, where digits i and j
    are equal, as a table of the shape without position i; both orders
    of a pair give one minor up to renaming. Per pair, "lost one" and
    "lost two" mark the lanes whose minor drops one, or two, essential
    positions besides i.

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
    columns = [int.from_bytes(column, "big") for column in columns]
    ones = int.from_bytes(b"\x01" * count, "big")
    pairs, diagonals = _lane_plan(sizes)
    ess = _lane_planes(columns, pairs, ones)
    seen = analysed = gap1 = at_most2 = 0
    for plane in ess:
        analysed |= seen & plane
        seen |= plane
    for (i, j), points in zip(itertools.combinations(range(len(sizes)), 2), diagonals):
        both = ess[i] & ess[j]
        if not both:
            continue
        minor = _lane_planes(list(map(columns.__getitem__, points)),
                             _lane_plan(sizes[1:])[0], ones)
        lost_one = lost_two = 0
        for k, plane in enumerate(ess):
            if k != i:
                lost = plane & ~minor[k - (k > i)]
                lost_two |= lost_one & lost
                lost_one |= lost
        gap1 |= both & ~lost_one
        at_most2 |= both & ~lost_two
    width = max(1, -(-len(sizes) // 8))
    masks = bytearray(count * width)
    for b in range(width):
        masks[b::width] = sum(plane << k for k, plane in enumerate(ess[8 * b:8 * b + 8])
                              ).to_bytes(count, "big")
    codes = analysed + (analysed & ~gap1) + (analysed & ~at_most2)
    return bytes(masks), codes.to_bytes(count, "big")


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


def enumerate_monotone_maps(n: int, lattice: "Lattice") -> Iterator[tuple[int, ...]]:
    """Yield every monotone map {0,1}^n -> L exactly once, as a coefficient
    table (element indices by subset mask).

    Backtracks over masks in numeric order, which linearly extends the
    subset order, so pruning only needs the immediate sub-subsets: each
    candidate value must sit above the join of their values. The
    backtracking is one loop: left[mask] is the bitmask of the
    candidates at `mask` not tried yet, lowest index first.
    """
    if not isinstance(n, int) or not 0 <= n <= 16:
        raise ValueError("arity must be an int in 0..16")
    size = 1 << n
    join_t = lattice._join
    up = lattice._up
    bottom = lattice.bottom_index

    def maps() -> Iterator[tuple[int, ...]]:
        subsets = [tuple(mask ^ (1 << k) for k in range(n) if mask >> k & 1)
                   for mask in range(size)]
        coeffs = [bottom] * size
        left = [0] * size
        left[0] = up[bottom]
        last = size - 1
        mask = 0
        while mask >= 0:
            rest = left[mask]
            if not rest:
                mask -= 1
                continue
            low = rest & -rest
            left[mask] = rest ^ low
            coeffs[mask] = low.bit_length() - 1
            if mask == last:
                yield tuple(coeffs)
                continue
            mask += 1
            floor = bottom
            for sub in subsets[mask]:
                floor = join_t[floor][coeffs[sub]]
            left[mask] = up[floor]

    return maps()


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
    # b**(a**n) multiplied up with an early exit, so that a large n
    # never builds a large integer.
    points = 1
    for _ in range(n):
        points *= a
        if points > DEFAULT_BUDGET:
            break
    total = 1
    for _ in range(points):
        total *= b
        if total > DEFAULT_BUDGET:
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
    # Multiplied up with an early exit, so a huge header never becomes a
    # huge integer.
    points = 1
    for _ in range(n):
        points *= a
        if points > DEFAULT_BUDGET:
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
