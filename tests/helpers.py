"""Shared test utilities: random term generation and independent oracles."""

from __future__ import annotations

import functools
import itertools
import math
import random

from latgap import Lattice, point_index
from latgap.terms import Const, Join, Meet, Term, Var

M3_NAMES = ("0", "x", "y", "z", "1")
M3_COVERS = (("0", "x"), ("0", "y"), ("0", "z"),
             ("x", "1"), ("y", "1"), ("z", "1"))

N5_NAMES = ("0", "p", "q", "r", "1")
N5_COVERS = (("0", "p"), ("p", "1"), ("0", "q"), ("q", "r"), ("r", "1"))


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
                if i & j == i and not lattice.leq(els[tab[i]], els[tab[j]]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            keep.append(tab)
    return keep


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
