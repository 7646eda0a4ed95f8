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

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from .finfun import DEFAULT_BUDGET, MAX_CODOMAIN, EnumerationBudgetError, FiniteFn
from .lattice import Elem, Lattice

if TYPE_CHECKING:
    from .terms import Term

MAX_ARITY = 16


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
        if not isinstance(self.arity, int) or not 0 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be an int in 0..{MAX_ARITY}, got {self.arity!r}")
        if not isinstance(self.table, tuple) or len(self.table) != 1 << self.arity:
            raise ValueError(f"coefficient table must be a tuple of length {1 << self.arity}")
        size = self.lattice.size
        for v in self.table:
            if not isinstance(v, int) or not 0 <= v < size:
                raise ValueError(f"coefficient index {v!r} out of range")
        up = self.lattice._up
        for mask in range(1, len(self.table)):
            v = self.table[mask]
            mm = mask
            while mm:
                bit = mm & -mm
                mm ^= bit
                u = self.table[mask ^ bit]
                if not (up[u] >> v) & 1:
                    names = self.lattice.names
                    raise MonotonicityError(mask ^ bit, mask, names[u], names[v])

    def coefficient(self, mask: int) -> Elem:
        """Coefficient a_I as an element, for the subset mask I."""
        if not 0 <= mask < len(self.table):
            raise ValueError(f"subset mask {mask:#x} out of range for arity {self.arity}")
        return self.lattice.elements[self.table[mask]]

    def dump(self) -> list[tuple[tuple[int, ...], str]]:
        """(sorted positions, coefficient name) pairs in mask order."""
        names = self.lattice.names
        return [(_positions(mask), names[v]) for mask, v in enumerate(self.table)]


def characteristic_vector(mask: int, arity: int, lattice: Lattice) -> tuple[Elem, ...]:
    """The 0/1 point e_I: top on the positions in `mask`, bottom elsewhere."""
    if not 0 <= mask < (1 << arity):
        raise ValueError(f"subset mask {mask:#x} out of range for arity {arity}")
    bot, top = lattice.bottom, lattice.top
    return tuple(top if (mask >> k) & 1 else bot for k in range(arity))


def canonicalize(term: "Term") -> PolyFn:
    """Coefficient table of a term: evaluate it at every 0/1 point."""
    lat = term.lattice
    n = term.arity
    bot, top = lat.bottom_index, lat.top_index
    vals = []
    for mask in range(1 << n):
        point = tuple(top if (mask >> k) & 1 else bot for k in range(n))
        vals.append(term.eval_indices(point))
    return PolyFn(lat, n, tuple(vals))


def from_monotone_table(table, arity: int, lattice: Lattice) -> PolyFn:
    """Build a PolyFn from a 0/1-point value table.

    `table` is either a mapping from subset mask to value or a sequence
    in mask order; values may be elements of `lattice` or raw indices.
    Raises MonotonicityError (with a witness pair) if the table does not
    extend to a polynomial function.
    """
    size = 1 << arity
    if isinstance(table, Mapping):
        missing = [m for m in range(size) if m not in table]
        if missing:
            raise ValueError(f"table is missing subset {_mask_str(missing[0])}")
        if len(table) != size:
            extra = next(k for k in table if not (isinstance(k, int) and 0 <= k < size))
            raise ValueError(f"table has an unexpected key {extra!r}")
        seq = [table[m] for m in range(size)]
    else:
        seq = list(table)
        if len(seq) != size:
            raise ValueError(f"table has {len(seq)} entries, expected {size}")
    vals = []
    for v in seq:
        if isinstance(v, Elem):
            vals.append(lattice.require_member(v))
        elif isinstance(v, int) and 0 <= v < lattice.size:
            vals.append(v)
        else:
            raise ValueError(f"bad table value {v!r}")
    return PolyFn(lattice, arity, tuple(vals))


def eval_dnf(f: PolyFn, point: Sequence[Elem]) -> Elem:
    """Evaluate f at a point of L^n through its coefficient table."""
    lat = f.lattice
    if len(point) != f.arity:
        raise ValueError(f"point has {len(point)} components, arity is {f.arity}")
    idx = tuple(lat.require_member(x) for x in point)
    return lat.elements[_eval_indices(f, idx)]


def _eval_indices(f: PolyFn, point: Sequence[int]) -> int:
    lat = f.lattice
    meet_t, join_t = lat._meet, lat._join
    bottom, top = lat.bottom_index, lat.top_index
    table = f.table
    acc = table[0]
    for mask in range(1, len(table)):
        if acc == top:
            break
        v = table[mask]
        if v == bottom:
            continue
        mm = mask
        while mm and v != bottom:
            bit = mm & -mm
            mm ^= bit
            v = meet_t[v][point[bit.bit_length() - 1]]
        acc = join_t[acc][v]
    return acc


def value_table(f: PolyFn) -> FiniteFn:
    """Dense table of f over all of L^n, as a FiniteFn.

    One pass per variable, slowest coefficient bit first. A pass splits
    the table into halves A and B (that bit clear and set), so that
    f = A or (x and B) on that variable x, and writes A or (v and B) for
    each element v as the new fastest digit; the row for v = bottom is A
    itself. After n passes position 1 is the fastest digit again, the
    little-endian point order. Each pass moves one variable from the
    coefficient side to the point side; since meet distributes over
    join, the variables do not interact and the pass order does not
    change the result. Agrees with eval_dnf at every point.

    For |L| = k <= 16 a pass is broadword: A and B, read as big-endian
    integers, pack into one byte string A*k + B whose bytes are the pairs
    a*k + b (no byte carries, since a*k + b < k*k <= 256), and each row
    is that string run through one `bytes.translate` table of the
    lattice. For k > 16 each row is built entry by entry from the meet
    and join tables.

    Raises EnumerationBudgetError, before allocating, when |L|^n exceeds
    finfun.DEFAULT_BUDGET entries, and ValueError when |L| exceeds
    finfun.MAX_CODOMAIN, the most values a table holds.
    """
    lat = f.lattice
    k = lat.size
    if k ** f.arity > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"a value table of {k}^{f.arity} entries exceeds the budget "
            f"of {DEFAULT_BUDGET}")
    if k > MAX_CODOMAIN:
        raise ValueError(f"a value table over {k} elements exceeds the bound of "
                         f"{MAX_CODOMAIN} values")
    bottom = lat.bottom_index
    table = bytes(f.table)
    for _ in range(f.arity):
        half = len(table) // 2
        low, high = table[:half], table[half:]
        out = bytearray(k * half)
        out[bottom::k] = low
        if k <= 16:
            packed = (int.from_bytes(low, "big") * k
                      + int.from_bytes(high, "big")).to_bytes(half, "big")
            for v, row in enumerate(lat._pair_rows()):
                if v != bottom:
                    out[v::k] = packed.translate(row)
        else:
            join_t = lat._join
            for v, mt in enumerate(lat._meet):
                if v != bottom:
                    out[v::k] = [join_t[a][mt[b]] for a, b in zip(low, high)]
        table = out
    return FiniteFn(sizes=(k,) * f.arity, codomain=k, table=bytes(table), labels=lat.names)


def essential_variables(f: PolyFn | FiniteFn) -> frozenset[int]:
    """Positions j with a strict coefficient increase a_J < a_{J + j}.

    Because the table is monotone, strictness is simply inequality of
    the two coefficients. This matches the definitional test over all of
    L^n: a variable is essential exactly when some pair of points
    differing only there gets different values.

    Only `f.table` and `f.arity` are read, so the same test decides
    essentiality of any FiniteFn over {0,1}^n, monotone or not.
    """
    table = f.table
    ess = set()
    for j in range(1, f.arity + 1):
        bit = 1 << (j - 1)
        for mask in range(len(table)):
            if mask & bit:
                continue
            if table[mask] != table[mask | bit]:
                ess.add(j)
                break
    return frozenset(ess)


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
    positions = tuple(sorted(essential_variables(f)))
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


def restrict_to_01(f: PolyFn) -> FiniteFn:
    """f restricted to the 0/1 points, as a FiniteFn over {0,1}^n.

    The little-endian point index equals the subset mask, so the value
    table is the coefficient table itself; the codomain is the whole
    element set of the lattice.
    """
    return FiniteFn(sizes=(2,) * f.arity, codomain=f.lattice.size,
                    table=bytes(f.table), labels=f.lattice.names)


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
