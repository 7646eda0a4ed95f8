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
the inner loops run in C: minors are built from slices of those runs,
and values are checked with one `bytes.translate`.

Essentiality reads the whole table as one big-endian integer T, entry 0
in the most significant byte. Shifting T left by 8*stride_k bits lines
every entry up with the entry one digit higher at position k, so k is
inessential exactly when ((T << 8*stride_k) ^ T) vanishes on the
entries whose digit at k is not the last. Those byte masks are the only
memoised data, in a bounded cache keyed on the alphabet sizes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

if TYPE_CHECKING:
    from .lattice import Lattice


class GapUndefinedError(ValueError):
    """The arity gap needs at least two essential variables."""


class EnumerationBudgetError(ValueError):
    """An exhaustive sweep would exceed the configured budget."""


DEFAULT_BUDGET = 10_000_000

# A table stores one value per byte.
MAX_CODOMAIN = 256

# _BYTES[:c] lists the values of a codomain of c values; deleting them
# from a table leaves the values outside it.
_BYTES = bytes(range(MAX_CODOMAIN))


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
    number of output labels (at most MAX_CODOMAIN), and `table[i]` the
    value at the point with little-endian mixed-radix index i. `table`
    may be given as any sequence of ints and is stored as `bytes`.
    `labels` is optional display text for the codomain and never takes
    part in equality.
    """

    sizes: tuple[int, ...]
    codomain: int
    table: bytes
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.codomain, int) or self.codomain < 1:
            raise ValueError("codomain size must be at least 1")
        _check_codomain(self.codomain)
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
        if self.labels is not None and len(self.labels) != self.codomain:
            raise ValueError("labels must cover the codomain exactly")

    @property
    def arity(self) -> int:
        return len(self.sizes)

    def label(self, value: int) -> str:
        return self.labels[value] if self.labels is not None else str(value)

    def __call__(self, point: Sequence[int]) -> int:
        return self.table[point_index(self.sizes, point)]


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


def point_at(sizes: tuple[int, ...], index: int) -> tuple[int, ...]:
    point = []
    for size in sizes:
        point.append(index % size)
        index //= size
    return tuple(point)


def _slab(table: bytes, stride: int, size: int, v: int) -> bytes:
    # The entries whose digit at `stride` (alphabet `size`) is v, in index
    # order: the table of the remaining positions with that digit pinned.
    if stride == 1:
        return table[v::size]
    return b"".join([table[base:base + stride]
                     for base in range(v * stride, len(table), stride * size)])


def _interleave(slabs: Sequence[bytes], stride: int) -> bytes:
    # Inverse of _slab: slabs[v] becomes the entries with digit v at `stride`.
    if stride == 1:
        out = bytearray(len(slabs) * len(slabs[0]))
        for v, slab in enumerate(slabs):
            out[v::len(slabs)] = slab
        return bytes(out)
    return b"".join([slab[base:base + stride]
                     for base in range(0, len(slabs[0]), stride) for slab in slabs])


@functools.lru_cache(maxsize=128)
def _not_last_digit(sizes: tuple[int, ...], pos: int) -> int:
    # 0xff on every entry whose digit at `pos` is not the last, as a
    # big-endian integer the length of the table.
    stride = math.prod(sizes[:pos - 1])
    block = stride * sizes[pos - 1]
    pattern = b"\xff" * (block - stride) + bytes(stride)
    return int.from_bytes(pattern * (math.prod(sizes) // block), "big")


def ess_bruteforce(f: FiniteFn) -> frozenset[int]:
    """Definitional essentiality: position k is essential when two points
    differing only at k get different values."""
    # Points one digit apart at k sit stride_k entries apart; comparing
    # every such pair covers all pairs that differ only at k.
    t = int.from_bytes(f.table, "big")
    ess = []
    stride = 1
    for pos, size in enumerate(f.sizes, 1):
        if ((t << 8 * stride) ^ t) & _not_last_digit(f.sizes, pos):
            ess.append(pos)
        stride *= size
    return frozenset(ess)


def identify_table(f: FiniteFn, i: int, j: int) -> FiniteFn:
    """The minor with position i forced to copy position j."""
    n = f.arity
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"positions must be in 1..{n}, got ({i}, {j})")
    if i == j:
        raise ValueError("identify needs two distinct positions")
    if f.sizes[i - 1] != f.sizes[j - 1]:
        raise ValueError("positions to identify must share an alphabet size")
    size = f.sizes[i - 1]
    si = math.prod(f.sizes[:i - 1])
    # Stride of position j once position i is sliced away.
    sj = math.prod(f.sizes[:j - 1]) // (size if j > i else 1)
    diagonal = _interleave([_slab(_slab(f.table, si, size, v), sj, size, v)
                            for v in range(size)], sj)
    table = _interleave([diagonal] * size, si)
    return FiniteFn(f.sizes, f.codomain, table, f.labels)


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


def gap_bruteforce(f: FiniteFn) -> GapReport:
    """Compute the essential positions and the arity gap, the latter by
    exhausting identification minors."""
    ess = ess_bruteforce(f)
    if len(ess) < 2:
        return GapReport(ess, len(ess), None, None)
    positions = sorted(ess)
    best = 0
    limit = len(ess) - 1
    for i in positions:
        for j in positions:
            if i == j:
                continue
            count = len(ess_bruteforce(identify_table(f, i, j)))
            if count > best:
                best = count
                if best == limit:
                    break
        if best == limit:
            break
    return GapReport(ess, len(ess), best, len(ess) - best)


def reduce_table(f: FiniteFn) -> tuple[FiniteFn, tuple[int, ...]]:
    """Drop inessential positions by pinning them at digit 0.

    Returns the reduced function and the original positions kept, in
    increasing order (positions[t-1] is now position t).
    """
    return _reduce_to(f, ess_bruteforce(f))


def _reduce_to(f: FiniteFn, ess: frozenset[int]) -> tuple[FiniteFn, tuple[int, ...]]:
    # reduce_table for the essential positions `ess`, already known.
    table = f.table
    # Last position first, so the strides of the ones before stay valid.
    for pos in range(f.arity, 0, -1):
        if pos not in ess:
            table = _slab(table, math.prod(f.sizes[:pos - 1]), f.sizes[pos - 1], 0)
    positions = tuple(sorted(ess))
    new_sizes = tuple(f.sizes[p - 1] for p in positions)
    return FiniteFn(new_sizes, f.codomain, table, f.labels), positions


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
    candidate value must sit above the join of their values.
    """
    if not isinstance(n, int) or not 0 <= n <= 16:
        raise ValueError("arity must be an int in 0..16")
    size = 1 << n
    k = lattice.size
    join_t = lattice._join
    up = lattice._up
    bottom = lattice.bottom_index
    coeffs = [0] * size

    def rec(mask: int) -> Iterator[tuple[int, ...]]:
        if mask == size:
            yield tuple(coeffs)
            return
        floor = bottom
        mm = mask
        while mm:
            bit = mm & -mm
            mm ^= bit
            floor = join_t[floor][coeffs[mask ^ bit]]
        allowed = up[floor]
        for v in range(k):
            if (allowed >> v) & 1:
                coeffs[mask] = v
                yield from rec(mask + 1)

    return rec(0)


def enumerate_all_functions(n: int, a: int, b: int,
                            budget: int = DEFAULT_BUDGET) -> Iterator[FiniteFn]:
    """Yield all b**(a**n) functions from {0..a-1}^n to {0..b-1}.

    Checks its arguments when called, before the first function is
    drawn: a codomain above MAX_CODOMAIN raises ValueError, and a count
    above the budget EnumerationBudgetError. The order is deterministic
    (the last table entry varies fastest) and every function appears
    exactly once.
    """
    _check_codomain(b)
    if not isinstance(n, int) or n < 0:
        raise ValueError("arity must be a nonnegative int")
    if a < 2 or b < 2:
        raise ValueError("alphabet sizes must be at least 2")
    points = a ** n
    total = b ** points
    if total > budget:
        raise EnumerationBudgetError(
            f"{total} functions exceed the budget of {budget}")
    sizes = (a,) * n
    return (FiniteFn(sizes, b, bytes(tab))
            for tab in itertools.product(range(b), repeat=points))


def format_finite_fn(f: FiniteFn) -> str:
    """Text form: header 'arity a_size b_size', then values in point order."""
    if f.arity == 0:
        raise ValueError("the text format needs at least one position")
    if len(set(f.sizes)) != 1:
        raise ValueError("the text format needs one shared alphabet size")
    header = f"{f.arity} {f.sizes[0]} {f.codomain}"
    return header + "\n" + " ".join(str(v) for v in f.table) + "\n"


def parse_finite_fn(text: str) -> FiniteFn:
    """Inverse of format_finite_fn; '#' comments and blank lines allowed."""
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
    body = tokens[3:]
    if len(body) != a ** n:
        raise ValueError(f"expected {a ** n} values, got {len(body)}")
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
