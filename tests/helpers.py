"""Shared test utilities: random term generation and independent oracles."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections.abc import Mapping, Sequence

from latgap import Elem, FiniteFn, Lattice, PolyFn, point_index
from latgap.polyfn import _mask_str
from latgap.terms import Const, Join, Meet, Term, Var

M3_NAMES = ("0", "x", "y", "z", "1")
M3_COVERS = (("0", "x"), ("0", "y"), ("0", "z"),
             ("x", "1"), ("y", "1"), ("z", "1"))

N5_NAMES = ("0", "p", "q", "r", "1")
N5_COVERS = (("0", "p"), ("p", "1"), ("0", "q"), ("q", "r"), ("r", "1"))


def point_at(sizes: tuple[int, ...], index: int) -> tuple[int, ...]:
    """The digits of table index `index` of a shape, position 1 first:
    the inverse of point_index."""
    point = []
    for size in sizes:
        point.append(index % size)
        index //= size
    return tuple(point)


def characteristic_vector(mask: int, arity: int, lattice: Lattice) -> tuple[Elem, ...]:
    """The 0/1 point e_I: top on the positions in `mask`, bottom elsewhere."""
    if not 0 <= mask < (1 << arity):
        raise ValueError(f"subset mask {mask:#x} out of range for arity {arity}")
    bot, top = lattice.bottom, lattice.top
    return tuple(top if (mask >> k) & 1 else bot for k in range(arity))


# Construction, evaluation and formatting that only the tests use.

def leq(lattice: Lattice, x: Elem, y: Elem) -> bool:
    """x <= y in `lattice`; raises LatticeError for an element of
    another lattice."""
    i = lattice.require_member(x)
    j = lattice.require_member(y)
    return bool((lattice._up[i] >> j) & 1)


def format_lattice(lat: Lattice) -> str:
    """Canonical text for a lattice; parse_lattice inverts this exactly."""
    lines = ["elements: " + " ".join(lat.names)]
    for i, j in lat.covers:
        lines.append(f"{lat.names[i]} < {lat.names[j]}")
    return "\n".join(lines) + "\n"


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


def restrict_to_01(f: PolyFn) -> FiniteFn:
    """f restricted to the 0/1 points, as a FiniteFn over {0,1}^n.

    The little-endian point index equals the subset mask, so the value
    table is the coefficient table itself; the codomain is the whole
    element set of the lattice.
    """
    return FiniteFn(sizes=(2,) * f.arity, codomain=f.lattice.size,
                    table=bytes(f.table))


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


def eval_term(term: Term, point: Sequence[Elem]) -> Elem:
    """Evaluate a term at a point of the lattice.

    The point must have exactly `term.arity` components, all elements of
    the term's lattice. Evaluation is monotone in every component by
    construction (only meets and joins occur).
    """
    lat = term.lattice
    if len(point) != term.arity:
        raise ValueError(f"point has {len(point)} components, term arity is {term.arity}")
    idx = tuple(lat.require_member(x) for x in point)
    return lat.elements[term.eval_indices(idx)]


def format_finite_fn(f: FiniteFn) -> str:
    """Text form: header 'arity a_size b_size', then values in point order."""
    if f.arity == 0:
        raise ValueError("the text format needs at least one position")
    if len(set(f.sizes)) != 1:
        raise ValueError("the text format needs one shared alphabet size")
    header = f"{f.arity} {f.sizes[0]} {f.codomain}"
    return header + "\n" + " ".join(str(v) for v in f.table) + "\n"


def zhegalkin_evaluate(poly, point: Sequence[int]) -> int:
    """A ZhegalkinPoly's value at a 0/1 point, position 1 first: the
    parity of the monomials whose positions are all 1 there."""
    mask = 0
    for k, bit in enumerate(point):
        if bit not in (0, 1):
            raise ValueError(f"bad Boolean digit {bit!r}")
        mask |= bit << k
    acc = 0
    for m in poly.monomials:
        if m & ~mask == 0:
            acc ^= 1
    return acc


def random_term(rng: random.Random, arity: int, max_depth: int,
                lattice: Lattice) -> Term:
    def node(depth: int):
        if depth >= max_depth or rng.random() < 0.3:
            if rng.random() < 0.7:
                return Var(rng.randrange(1, arity + 1))
            return Const(lattice.elements[rng.randrange(lattice.size)])
        left = node(depth + 1)
        right = node(depth + 1)
        return Meet(left, right) if rng.random() < 0.5 else Join(left, right)

    return Term(node(0), arity, lattice)


def monotone_tables_by_filter(n: int, lattice: Lattice) -> list[tuple[int, ...]]:
    """Enumerate ALL value tables on subset masks and keep the monotone
    ones, testing every subset pair directly. Deliberately naive, so it
    is independent of both the backtracking enumerator and the cover
    based PolyFn validation."""
    size = 1 << n
    els = lattice.elements
    keep = []
    for tab in itertools.product(range(lattice.size), repeat=size):
        ok = True
        for i in range(size):
            for j in range(size):
                if i & j == i and not leq(lattice, els[tab[i]], els[tab[j]]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            keep.append(tab)
    return keep


def essential_by_mask_loop(f) -> frozenset[int]:
    """Positions j with a_J != a_{J + j} for some J, found mask by mask:
    the coefficient-jump test before it read the table as one integer."""
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


def essential_by_full_scan(lattice: Lattice, arity: int, fn) -> set[int]:
    """Definitional essentiality of a callable point -> Elem over L^n,
    written with explicit point tuples rather than table indexing."""
    els = lattice.elements
    ess = set()
    for pos in range(1, arity + 1):
        found = False
        for point in itertools.product(els, repeat=arity):
            base = fn(point)
            for replacement in els:
                changed = list(point)
                changed[pos - 1] = replacement
                if fn(tuple(changed)) != base:
                    ess.add(pos)
                    found = True
                    break
            if found:
                break
        if found:
            continue
    return ess


def _points(sizes: tuple[int, ...]):
    return itertools.product(*(range(a) for a in sizes))


# The references below walk point tuples once per shape and keep the
# index lists they find, so that sweeping many tables stays cheap.

@functools.lru_cache(maxsize=None)
def _neighbours(sizes: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    # Per position k, the index pairs of points that differ only at k.
    out = []
    for k, size in enumerate(sizes):
        pairs = []
        for point in _points(sizes):
            for digit in range(point[k] + 1, size):
                other = point[:k] + (digit,) + point[k + 1:]
                pairs.append((point_index(sizes, point), point_index(sizes, other)))
        out.append(tuple(pairs))
    return tuple(out)


def essential_by_points(sizes: tuple[int, ...], table) -> set[int]:
    """Positions k where changing only digit k of some point changes the
    value, found by trying every pair of such points."""
    return {k + 1 for k, pairs in enumerate(_neighbours(sizes))
            if any(table[a] != table[b] for a, b in pairs)}


@functools.lru_cache(maxsize=None)
def _identify_sources(sizes: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    out = [0] * math.prod(sizes)
    for point in _points(sizes):
        source = list(point)
        source[i - 1] = point[j - 1]
        out[point_index(sizes, point)] = point_index(sizes, source)
    return tuple(out)


def identify_by_points(sizes: tuple[int, ...], table, i: int, j: int) -> tuple:
    """The table of the minor whose digit i is replaced by digit j."""
    return tuple(table[s] for s in _identify_sources(sizes, i, j))


@functools.lru_cache(maxsize=None)
def _reduce_sources(sizes: tuple[int, ...], keep: tuple[int, ...]) -> tuple[int, ...]:
    kept_sizes = tuple(sizes[p - 1] for p in keep)
    out = [0] * math.prod(kept_sizes)
    for sub in _points(kept_sizes):
        point = [0] * len(sizes)
        for p, digit in zip(keep, sub):
            point[p - 1] = digit
        out[point_index(kept_sizes, sub)] = point_index(sizes, point)
    return tuple(out)


def reduce_by_points(sizes: tuple[int, ...], table, keep: tuple[int, ...]) -> tuple:
    """The table over the positions in `keep`, every other digit at 0."""
    return tuple(table[s] for s in _reduce_sources(sizes, keep))


def gap_by_points(sizes: tuple[int, ...], table) -> tuple[set[int], int | None]:
    """The essential positions and the arity gap: their number less the
    most essential positions left by a minor that identifies two of them
    (equal alphabets only). The gap is None below two essential positions."""
    ess = essential_by_points(sizes, table)
    if len(ess) < 2:
        return ess, None
    essl = max(len(essential_by_points(sizes, identify_by_points(sizes, table, i, j)))
               for i in ess for j in ess if i != j and sizes[i - 1] == sizes[j - 1])
    return ess, len(ess) - essl


def monotone_maps_recursive(n: int, lattice: Lattice):
    """Every monotone map {0,1}^n -> L as a coefficient tuple, by
    recursive backtracking: masks in numeric order, candidates by
    increasing index above the join of the values on the immediate
    sub-subsets. That is lexicographic order, enumerate_monotone_maps'
    order, and the maps stream at any size, where that one refuses
    shapes whose lower arities would not fit its budget."""
    size = 1 << n
    coeffs = [0] * size

    def rec(mask: int):
        if mask == size:
            yield tuple(coeffs)
            return
        floor = lattice.bottom_index
        for k in range(n):
            if mask >> k & 1:
                floor = lattice._join[floor][coeffs[mask ^ (1 << k)]]
        for v in range(lattice.size):
            if lattice._up[floor] >> v & 1:
                coeffs[mask] = v
                yield from rec(mask + 1)

    return rec(0)
