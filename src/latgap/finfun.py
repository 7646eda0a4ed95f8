"""Dense finite functions and brute-force ground truth.

Everything here works from raw value tables, with no knowledge of
lattice structure or coefficient tables, so it can serve as an
independent oracle for the closed-form machinery elsewhere in the
package. Essentiality is decided by scanning point pairs, and the arity
gap by building every identification minor and counting its essential
variables.

Points are encoded little-endian: position 1 is the fastest-moving
digit of the table index, so the digit of position k repeats in runs of
stride_k = |A_1|...|A_{k-1}| entries. Tables are read through slices of
those runs, computed afresh on each call; no index tables are memoised.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class FiniteFn:
    """A total function between finite sets, as a dense value table.

    `sizes[k-1]` is the alphabet size of position k, `codomain` the
    number of output labels, and `table[i]` the value at the point with
    little-endian mixed-radix index i. `labels` is optional display text
    for the codomain and never takes part in equality.
    """

    sizes: tuple[int, ...]
    codomain: int
    table: tuple[int, ...]
    labels: tuple[str, ...] | None = field(default=None, compare=False)

    def __post_init__(self):
        for a in self.sizes:
            if not isinstance(a, int) or a < 2:
                raise ValueError(f"alphabet sizes must be at least 2, got {a!r}")
        if not isinstance(self.codomain, int) or self.codomain < 1:
            raise ValueError("codomain size must be at least 1")
        if len(self.table) != math.prod(self.sizes):
            raise ValueError(
                f"table has {len(self.table)} entries, expected {math.prod(self.sizes)}")
        for v in self.table:
            if not isinstance(v, int) or not 0 <= v < self.codomain:
                raise ValueError(f"value {v!r} out of codomain range")
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


def _slab(table: Sequence[int], stride: int, size: int, v: int) -> Sequence[int]:
    # The entries whose digit at `stride` (alphabet `size`) is v, in index
    # order: the table of the remaining positions with that digit pinned.
    if stride == 1:
        return table[v::size]
    out: list[int] = []
    for base in range(v * stride, len(table), stride * size):
        out += table[base:base + stride]
    return out


def _interleave(slabs: Sequence[Sequence[int]], stride: int) -> list[int]:
    # Inverse of _slab: slabs[v] becomes the entries with digit v at `stride`.
    if stride == 1:
        out = [0] * (len(slabs) * len(slabs[0]))
        for v, slab in enumerate(slabs):
            out[v::len(slabs)] = slab
        return out
    out = []
    for base in range(0, len(slabs[0]), stride):
        for slab in slabs:
            out += slab[base:base + stride]
    return out


def ess_bruteforce(f: FiniteFn) -> frozenset[int]:
    """Definitional essentiality: position k is essential when two points
    differing only at k get different values."""
    # Within one block of stride*size entries, the entries at digit v of
    # position k sit `stride` places before those at digit v+1, so k is
    # inessential iff every block equals itself shifted by one digit.
    table = f.table
    ess = []
    stride = 1
    for pos, size in enumerate(f.sizes, 1):
        block = stride * size
        shift = block - stride
        for base in range(0, len(table), block):
            if table[base:base + shift] != table[base + stride:base + block]:
                ess.append(pos)
                break
        stride = block
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
    return FiniteFn(f.sizes, f.codomain, tuple(table), f.labels)


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
    ess = ess_bruteforce(f)
    table = f.table
    # Last position first, so the strides of the ones before stay valid.
    for pos in range(f.arity, 0, -1):
        if pos not in ess:
            table = _slab(table, math.prod(f.sizes[:pos - 1]), f.sizes[pos - 1], 0)
    positions = tuple(sorted(ess))
    new_sizes = tuple(f.sizes[p - 1] for p in positions)
    return FiniteFn(new_sizes, f.codomain, tuple(table), f.labels), positions


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
    table = [0] * total
    table[special] = 1
    return FiniteFn((k,) * k, k, tuple(table))


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

    Raises EnumerationBudgetError up front when the count exceeds the
    budget. The order is deterministic (the last table entry varies
    fastest) and every function appears exactly once.
    """
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
    for tab in itertools.product(range(b), repeat=points):
        yield FiniteFn(sizes, b, tab)


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
    return FiniteFn((a,) * n, b, tuple(values))
