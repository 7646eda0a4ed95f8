"""Lattice polynomial functions in canonical coefficient form.

A polynomial function f of arity n over a bounded distributive lattice
is stored as its coefficient table a_I = f(e_I), indexed by subset mask,
where e_I is 1 on the positions in I and 0 elsewhere. The function is
recovered pointwise as the join over all subsets I of

    a_I  meet  (meet of x_i for i in I)

and this representation is unique: two polynomial functions agree
everywhere exactly when they agree on the 0/1 points. A table extends to
a polynomial function exactly when it is monotone (I subset of J implies
a_I below a_J), and PolyFn enforces that at construction.

Subset masks use bit k-1 for position k; point tables are little-endian
(position 1 is the fastest-moving digit).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .finfun import _BYTES, DEFAULT_BUDGET, MAX_CODOMAIN, EnumerationBudgetError, FiniteFn
from .lattice import Elem, Lattice

if TYPE_CHECKING:
    from .terms import Term

MAX_ARITY = 16

# _jump_positions keeps its masks up to this arity: those of every
# arity up to it take 18,434 bytes at 8 bits per entry and 36,868 at 16.
# classify keeps its Moebius plans, 2n + 1 masks of 2^n bits, by the
# same rule: 4,965 bytes for every arity up to it.
KEPT_JUMP_ARITY = 10


class MonotonicityError(ValueError):
    """A coefficient table is not monotone; carries a witness pair."""

    def __init__(self, subset: int, superset: int, lower: str, upper: str):
        super().__init__(
            f"table not monotone: a[{_mask_str(subset)}] = {lower} "
            f"is not below a[{_mask_str(superset)}] = {upper}")
        self.subset = subset
        self.superset = superset


def _mask_str(mask: int) -> str:
    return "{" + ",".join(str(p) for p in _positions(mask)) + "}"


def _positions(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length())
        mask ^= bit
    return tuple(out)


def _check_arity(arity) -> None:
    if not isinstance(arity, int) or not 0 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be an int in 0..{MAX_ARITY}, got {arity!r}")


@dataclass(frozen=True)
class PolyFn:
    """Canonical form of a polynomial function: lattice, arity, coefficients.

    `table[mask]` is the element index of the coefficient for the subset
    encoded by `mask`. Construction validates the arity cap, table shape,
    and monotonicity, so every PolyFn in existence is a genuine
    polynomial function.
    """

    lattice: Lattice
    arity: int
    table: tuple[int, ...]

    def __post_init__(self):
        _check_arity(self.arity)
        if not isinstance(self.table, tuple) or len(self.table) != 1 << self.arity:
            raise ValueError(f"coefficient table must be a tuple of length {1 << self.arity}")
        size = self.lattice.size
        for v in self.table:
            if not isinstance(v, int) or not 0 <= v < size:
                raise ValueError(f"coefficient index {v!r} out of range")
        table = self.table
        up = self.lattice._up
        # Every cover (mask - bit, mask) of the subset order, masks
        # ascending and bits low first, so the witness is the first
        # failing cover.
        for mask in range(1, len(table)):
            v = table[mask]
            mm = mask
            while mm:
                bit = mm & -mm
                mm ^= bit
                if not (up[table[mask ^ bit]] >> v) & 1:
                    raise self._not_monotone(mask ^ bit, mask)

    def _not_monotone(self, sub: int, mask: int) -> MonotonicityError:
        names = self.lattice.names
        return MonotonicityError(sub, mask, names[self.table[sub]], names[self.table[mask]])

    def coefficient(self, mask: int) -> Elem:
        """Coefficient a_I as an element, for the subset mask I."""
        if not 0 <= mask < len(self.table):
            raise ValueError(f"subset mask {mask:#x} out of range for arity {self.arity}")
        return self.lattice.elements[self.table[mask]]

    def dump(self) -> list[tuple[tuple[int, ...], str]]:
        """(sorted positions, coefficient name) pairs in mask order."""
        names = self.lattice.names
        return [(_positions(mask), names[v]) for mask, v in enumerate(self.table)]


def _proven_polyfn(lattice: Lattice, arity: int, table: tuple[int, ...]) -> PolyFn:
    # A PolyFn whose arity, shape and monotonicity the caller has
    # already proved, built without the constructor's re-walk.
    f = object.__new__(PolyFn)
    f.__dict__.update(lattice=lattice, arity=arity, table=table)
    return f


def canonicalize(term: "Term") -> PolyFn:
    """Coefficient table of a term: evaluate it at every 0/1 point.

    Raises PolyFn's arity error before evaluating anything, so an arity
    above MAX_ARITY never starts the 2^n evaluations.
    """
    lat = term.lattice
    n = term.arity
    _check_arity(n)
    bot, top = lat.bottom_index, lat.top_index
    vals = []
    for mask in range(1 << n):
        point = tuple(top if (mask >> k) & 1 else bot for k in range(n))
        vals.append(term.eval_indices(point))
    return PolyFn(lat, n, tuple(vals))


def _check_table_budget(lattice: Lattice, arity: int) -> None:
    _check_arity(arity)
    k = lattice.size
    if k ** arity > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"a value table of {k}^{arity} entries exceeds the budget "
            f"of {DEFAULT_BUDGET}")
    if k > MAX_CODOMAIN:
        raise ValueError(f"a value table over {k} elements exceeds the bound of "
                         f"{MAX_CODOMAIN} values")


def _extend_table(lattice: Lattice, low: bytes, high: bytes) -> bytes:
    # One value_table pass: the tables A = low and B = high, of equal
    # length, become the table of A or (x and B) with x as a new slowest
    # digit, that is the blocks A or (v and B) for each element v in
    # index order. The block for v = bottom is A itself.
    k = lattice.size
    bottom = lattice.bottom_index
    half = len(low)
    if k <= 16:
        packed = (int.from_bytes(low, "big") * k
                  + int.from_bytes(high, "big")).to_bytes(half, "big")
        return b"".join([low if v == bottom else packed.translate(row)
                         for v, row in enumerate(lattice._pair_rows())])
    out = bytearray(k * half)
    join_t = lattice._join
    for v, mt in enumerate(lattice._meet):
        if v == bottom:
            out[v * half:(v + 1) * half] = low
        else:
            out[v * half:(v + 1) * half] = [join_t[a][mt[b]] for a, b in zip(low, high)]
    return bytes(out)


def value_table(f: PolyFn) -> FiniteFn:
    """Dense table of f over all of L^n, as a FiniteFn.

    One pass per variable, fastest coefficient bit first. A pass splits
    the table into the entries with that bit clear and set, A = T[0::2]
    and B = T[1::2], so that f = A or (x and B) on that variable x, and
    writes the blocks A or (v and B) for each element v contiguously,
    which adds x as the slowest digit; the block for v = bottom is A
    itself. After n passes position n is the slowest digit and position
    1 the fastest, the little-endian point order. Each pass moves one
    variable from the coefficient side to the point side; since meet
    distributes over join, the variables do not interact and the pass
    order does not change the result. Agrees at every point with the
    DNF that the coefficient table spells out. A pass works byte by
    byte, so value_columns runs it on many tables at once.

    For |L| = k <= 16 a block is broadword: A and B, read as big-endian
    integers, pack into one byte string A*k + B whose bytes are the pairs
    a*k + b (no byte carries, since a*k + b < k*k <= 256), and the block
    is that string run through one `bytes.translate` table of the
    lattice. For k > 16 each block is built entry by entry from the meet
    and join tables.

    Raises EnumerationBudgetError, before allocating, when |L|^n exceeds
    finfun.DEFAULT_BUDGET entries, and ValueError when |L| exceeds
    finfun.MAX_CODOMAIN, the most values a table holds.
    """
    lat = f.lattice
    _check_table_budget(lat, f.arity)
    table = bytes(f.table)
    for _ in range(f.arity):
        table = _extend_table(lat, table[0::2], table[1::2])
    return FiniteFn(sizes=(lat.size,) * f.arity, codomain=lat.size, table=table)


def value_columns(lattice: Lattice, arity: int, maps: Sequence[tuple[int, ...]]
                  ) -> tuple[Sequence[tuple[int, ...]], list[bytes], list[bytes]]:
    """A chunk of m coefficient tables over `lattice`, proved monotone,
    with their coefficient and value tables in columns of m bytes: byte f
    of coefficient column c is a_c of map f, and byte f of value column p
    is entry p of its value_table. The maps come back as given.

    The maps, joined map after map, run through value_table's n passes
    as one table: each pass reads A and B as the even and odd bytes of
    the whole blob, so it takes the lowest coefficient bit left of every
    map at once and puts the new digit above the maps. After n passes
    the blob is point after point, m bytes each, and is cut into the
    value columns once. A pass's block for v = top, A or B, equals B
    exactly when A <= B entrywise, as a monotone table has it; and once
    the passes before j proved a_I <= a_{I+i} for i < j, pass j reads
    a_{I+J} and a_{I+J+j} at the point that is top on J and bottom
    elsewhere. If shape, range (read as `bytes` reads it) or a pass
    fails, the PolyFn constructor runs on each map in order, and the
    first bad map raises its own error. The last output gets FiniteFn's
    checks, and raises FiniteFn's error for the first map whose table
    fails them.

    Raises value_table's errors, and PolyFn's for a bad arity, before
    reading a map.
    """
    _check_table_budget(lattice, arity)
    k, size, m = lattice.size, 1 << arity, len(maps)
    try:
        if not all(isinstance(coeffs, tuple) and len(coeffs) == size for coeffs in maps):
            raise ValueError("a map of the wrong shape")
        out = bytes(itertools.chain.from_iterable(maps))
        if out.translate(None, _BYTES[:k]):
            raise ValueError("a value out of range")
        columns = [out[c::size] for c in range(size)]
        for _ in range(arity):
            high = out[1::2]
            out = _extend_table(lattice, out[0::2], high)
            top = lattice.top_index * len(high)
            if out[top:top + len(high)] != high:
                raise ValueError("a map not monotone")
    except (TypeError, ValueError):
        for coeffs in maps:
            PolyFn(lattice, arity, coeffs)  # the first bad map raises
        raise
    if len(out) != k ** arity * m or out.translate(None, _BYTES[:k]):
        for f in range(m):
            FiniteFn((k,) * arity, k, out[f::m])
    return maps, columns, [out[p * m:(p + 1) * m] for p in range(k ** arity)]


def _jump_plan(n: int, bits: int) -> tuple[tuple[int, int, int], ...]:
    # Per position k of a table of 2**n entries of `bits` bits: k, the
    # shift s = bits * 2^(k-1) from an entry to the one with k added, and
    # the mask that is all ones on the entries without k, by doubling.
    plan = []
    for k in range(1, n + 1):
        shift = bits << (k - 1)
        mask, width = (1 << shift) - 1, 2 * shift
        while width < bits << n:
            mask, width = mask | mask << width, 2 * width
        plan.append((k, shift, mask))
    return tuple(plan)


_kept_jump_plan = functools.lru_cache(maxsize=22)(_jump_plan)


def _jump_positions(f: PolyFn | FiniteFn) -> tuple[int, ...]:
    # essential_variables in increasing order. The table is one
    # little-endian integer t, w = 8 bits per entry, or 16 past 256
    # values; position k is essential when t shifted down by w * 2^(k-1)
    # differs from t on an entry whose mask lacks k.
    try:
        t, bits = int.from_bytes(bytes(f.table), "little"), 8
    except ValueError:
        t, bits = int.from_bytes(b"".join(v.to_bytes(2, "little") for v in f.table),
                                 "little"), 16
    plan = (_kept_jump_plan if f.arity <= KEPT_JUMP_ARITY else _jump_plan)(f.arity, bits)
    return tuple([k for k, shift, mask in plan if ((t >> shift) ^ t) & mask])


def essential_variables(f: PolyFn | FiniteFn) -> frozenset[int]:
    """Positions j with a strict coefficient increase a_J < a_{J + j}.

    Because the table is monotone, strictness is simply inequality of
    the two coefficients. This matches the definitional test over all of
    L^n: a variable is essential exactly when some pair of points
    differing only there gets different values.

    Only `f.table` and `f.arity` are read, so the same test decides
    essentiality of any FiniteFn over {0,1}^n, monotone or not.
    """
    return frozenset(_jump_positions(f))


def identify(f: PolyFn, i: int, j: int) -> PolyFn:
    """The minor of f obtained by substituting x_j for x_i.

    Coefficientwise: the new a_I is a_{I + i} when j is in I and
    a_{I - i} otherwise. Pointwise this equals evaluating f with
    component i replaced by component j.
    """
    n = f.arity
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"positions must be in 1..{n}, got ({i}, {j})")
    if i == j:
        raise ValueError("identify needs two distinct positions")
    bi, bj = 1 << (i - 1), 1 << (j - 1)
    table = f.table
    new = tuple(table[mask | bi] if mask & bj else table[mask & ~bi]
                for mask in range(len(table)))
    return PolyFn(f.lattice, n, new)


def simple_substitution(f: PolyFn, sigma, arity: int) -> PolyFn:
    """g(x_1..x_arity) = f(x_sigma(1), ..., x_sigma(m)) for m = f.arity.

    `sigma` is a sequence (sigma[k-1] is the target of position k) or a
    mapping with keys 1..m; targets must lie in 1..arity. The new
    coefficient at J is the old coefficient at sigma^{-1}(J).
    """
    m = f.arity
    if isinstance(sigma, Mapping):
        if sorted(sigma) != list(range(1, m + 1)):
            raise ValueError(f"substitution must be total on 1..{m}")
        sig = tuple(sigma[k] for k in range(1, m + 1))
    else:
        sig = tuple(sigma)
        if len(sig) != m:
            raise ValueError(f"substitution has {len(sig)} entries, expected {m}")
    if not isinstance(arity, int) or not 0 <= arity <= MAX_ARITY:
        raise ValueError(f"target arity must be in 0..{MAX_ARITY}")
    for t in sig:
        if not isinstance(t, int) or not 1 <= t <= arity:
            raise ValueError(f"substitution target {t!r} out of range 1..{arity}")
    table = f.table
    new = []
    for j_mask in range(1 << arity):
        pre = 0
        for k in range(m):
            if (j_mask >> (sig[k] - 1)) & 1:
                pre |= 1 << k
        new.append(table[pre])
    return PolyFn(f.lattice, arity, tuple(new))


def reduce_to_essential(f: PolyFn) -> tuple[PolyFn, tuple[int, ...]]:
    """Drop inessential positions; returns (reduced, original positions).

    positions[t-1] is the original position now playing position t, in
    increasing order. Substituting the positions back (simple_substitution
    with this very tuple) reproduces f's coefficient table, because an
    inessential position never changes a coefficient.
    """
    positions = _jump_positions(f)
    k = len(positions)
    table = f.table
    new = []
    for r in range(1 << k):
        mask = 0
        for t, p in enumerate(positions):
            if (r >> t) & 1:
                mask |= 1 << (p - 1)
        new.append(table[mask])
    return PolyFn(f.lattice, k, tuple(new)), positions


def equivalent(f: PolyFn, g: PolyFn) -> bool:
    """True when f and g coincide up to inessential positions and renaming.

    Both are reduced to their essential positions; the reduced functions
    must then be equal up to a permutation of positions. The search is
    capped at 8 essential positions.
    """
    if f.lattice is not g.lattice:
        raise ValueError("equivalence needs two functions over the same lattice")
    rf, _ = reduce_to_essential(f)
    rg, _ = reduce_to_essential(g)
    if rf.arity != rg.arity:
        return False
    k = rf.arity
    if k > 8:
        raise ValueError("equivalence search is capped at 8 essential positions")
    if rf.table == rg.table:
        return True
    return any(simple_substitution(rf, perm, k).table == rg.table
               for perm in itertools.permutations(range(1, k + 1)))
