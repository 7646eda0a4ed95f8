"""Finite bounded distributive lattices presented by cover relations.

A lattice is given as a list of element names plus the covering pairs of
its Hasse diagram. Construction derives the full order by transitive
closure, locates the bounds, computes meet and join tables, and rejects
any presentation that is not a bounded distributive lattice (so M3 and
N5 never get through; the error message carries a witness triple).

All query operations are lookups into immutable tables, so a Lattice
and its elements are safe for unrestricted concurrent reads. The one
table filled lazily, for value tables, is computed whole and then
stored, so a race only computes it twice.
"""

from __future__ import annotations

import re
import string
from collections import deque
from dataclasses import dataclass
from typing import Iterable


class LatticeError(ValueError):
    """A lattice presentation is invalid or an element is misused."""


# Names must survive both the line-based file format and the expression
# grammar, so they are restricted to word characters.
_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


@dataclass(frozen=True)
class Elem:
    """An element of a specific lattice, identified by its ordinal index.

    Elements remember their owning lattice. Mixing elements of two
    different lattices in one operation is a hard error, never a silent
    coercion.
    """

    lattice: "Lattice"
    index: int

    @property
    def name(self) -> str:
        return self.lattice.names[self.index]

    def __repr__(self) -> str:
        return f"Elem({self.name!r})"


class Lattice:
    """A finite bounded distributive lattice with precomputed tables.

    Do not call the constructor directly; build instances with
    ``lattice_from_covers``, ``chain``, ``boolean_cube``, ``product``,
    ``builtin_lattice``, or ``parse_lattice``. Those paths
    validate the presentation; the constructor only stores tables.

    Low-level attributes used by sibling modules:

    - ``_up[i]`` / ``_down[i]``: bitmask of ``{j: i <= j}`` / ``{j: j <= i}``
    - ``_meet[i][j]`` / ``_join[i][j]``: index-level operation tables
    - ``_pair_rows()``: byte translation tables for packed pairs
    """

    __slots__ = ("names", "size", "bottom_index", "top_index",
                 "_index", "_up", "_down", "_meet", "_join",
                 "_cover_pairs", "_elems", "_pair_rows_cache")

    def __init__(self, names, up, down, meet, join, bottom, top, cover_pairs):
        self.names: tuple[str, ...] = names
        self.size: int = len(names)
        self._index = {nm: i for i, nm in enumerate(names)}
        self._up = up
        self._down = down
        self._meet = meet
        self._join = join
        self.bottom_index: int = bottom
        self.top_index: int = top
        self._cover_pairs = cover_pairs
        self._elems = tuple(Elem(self, i) for i in range(self.size))
        self._pair_rows_cache: tuple[bytes, ...] | None = None

    def _pair_rows(self) -> tuple[bytes, ...]:
        """For |L| = k <= 16: row v is a `bytes.translate` table taking the
        byte a*k + b (a pair of element indices) to join(a, meet(v, b)).
        Built on first use and kept."""
        if self._pair_rows_cache is None:
            k = self.size
            join_t = self._join
            self._pair_rows_cache = tuple(
                bytes([join_t[a][mt[b]] for a in range(k) for b in range(k)]).ljust(256, b"\0")
                for mt in self._meet)
        return self._pair_rows_cache

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        b = self.names[self.bottom_index]
        t = self.names[self.top_index]
        return f"<Lattice |L|={self.size} bottom={b!r} top={t!r}>"

    @property
    def elements(self) -> tuple[Elem, ...]:
        return self._elems

    @property
    def bottom(self) -> Elem:
        return self._elems[self.bottom_index]

    @property
    def top(self) -> Elem:
        return self._elems[self.top_index]

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Hasse diagram edges as (lower index, upper index) pairs."""
        return self._cover_pairs

    def element(self, name: str) -> Elem:
        try:
            return self._elems[self._index[name]]
        except KeyError:
            raise LatticeError(f"unknown element {name!r}") from None

    def require_member(self, x: Elem) -> int:
        """Return x's index, or raise if x is not an element of this lattice."""
        if not isinstance(x, Elem) or x.lattice is not self:
            raise LatticeError(f"{x!r} is not an element of this lattice")
        return x.index

    def leq(self, x: Elem, y: Elem) -> bool:
        i = self.require_member(x)
        j = self.require_member(y)
        return bool((self._up[i] >> j) & 1)

    def meet(self, x: Elem, y: Elem) -> Elem:
        return self._elems[self._meet[self.require_member(x)][self.require_member(y)]]

    def join(self, x: Elem, y: Elem) -> Elem:
        return self._elems[self._join[self.require_member(x)][self.require_member(y)]]


def _toposort(above: list[set[int]], names: tuple[str, ...]) -> list[int]:
    n = len(above)
    indeg = [0] * n
    for ups in above:
        for j in ups:
            indeg[j] += 1
    queue = deque(i for i in range(n) if indeg[i] == 0)
    order: list[int] = []
    while queue:
        i = queue.popleft()
        order.append(i)
        for j in sorted(above[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                queue.append(j)
    if len(order) != n:
        stuck = next(names[i] for i in range(n) if indeg[i] > 0)
        raise LatticeError(f"cycle in covers involving {stuck!r}")
    return order


def _pick_bound(row: list[int], candidates: int, names, x: int, y: int, kind: str) -> int:
    # The bound is the candidate z whose row covers all candidates: with
    # row = down (meet) z sits above every common lower bound, with
    # row = up (join) z sits below every common upper bound.
    mm = candidates
    while mm:
        bit = mm & -mm
        z = bit.bit_length() - 1
        mm ^= bit
        if candidates & ~row[z] == 0:
            return z
    raise LatticeError(f"elements {names[x]!r} and {names[y]!r} have no {kind}")


def lattice_from_covers(names: Iterable[str],
                        covers: Iterable[tuple[str, str]]) -> Lattice:
    """Build and fully validate a lattice from names and cover pairs.

    ``covers`` holds (lower, upper) name pairs. The order is the
    reflexive transitive closure of the pairs. Raises LatticeError for
    duplicate or malformed names, unknown names in covers, cycles,
    missing unique bottom/top, a pair without a meet or join, or a
    distributivity violation (with a witness triple in the message).
    """
    names = tuple(names)
    if len(names) < 2:
        raise LatticeError("a bounded lattice needs at least two elements")
    seen: set[str] = set()
    for nm in names:
        if not isinstance(nm, str) or not _NAME.match(nm):
            raise LatticeError(
                f"invalid element name {nm!r} (use letters, digits, underscores)")
        if nm in seen:
            raise LatticeError(f"duplicate element name {nm!r}")
        seen.add(nm)
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}

    above: list[set[int]] = [set() for _ in range(n)]
    for a, b in covers:
        for nm in (a, b):
            if nm not in index:
                raise LatticeError(f"unknown name {nm!r} in cover ({a!r}, {b!r})")
        if a == b:
            raise LatticeError(f"cover ({a!r}, {b!r}) is a cycle")
        above[index[a]].add(index[b])

    order = _toposort(above, names)

    up = [0] * n
    for i in reversed(order):
        row = 1 << i
        for j in above[i]:
            row |= up[j]
        up[i] = row
    down = [0] * n
    for i in range(n):
        row = up[i]
        while row:
            bit = row & -row
            down[bit.bit_length() - 1] |= 1 << i
            row ^= bit

    full = (1 << n) - 1
    bottoms = [i for i in range(n) if up[i] == full]
    if len(bottoms) != 1:
        raise LatticeError("no bottom element (exactly one element must lie below all others)")
    tops = [i for i in range(n) if down[i] == full]
    if len(tops) != 1:
        raise LatticeError("no top element (exactly one element must lie above all others)")

    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x, n):
            m = _pick_bound(down, down[x] & down[y], names, x, y, "meet")
            j = _pick_bound(up, up[x] & up[y], names, x, y, "join")
            meet_t[x][y] = meet_t[y][x] = m
            join_t[x][y] = join_t[y][x] = j

    for x in range(n):
        mx = meet_t[x]
        for y in range(n):
            for z in range(n):
                lhs = mx[join_t[y][z]]
                rhs = join_t[mx[y]][mx[z]]
                if lhs != rhs:
                    raise LatticeError(
                        f"not distributive: witness ({names[x]}, {names[y]}, {names[z]}): "
                        f"{names[x]} & ({names[y]} | {names[z]}) = {names[lhs]} but "
                        f"({names[x]} & {names[y]}) | ({names[x]} & {names[z]}) = {names[rhs]}")

    cover_pairs: list[tuple[int, int]] = []
    for i in range(n):
        strict = up[i] & ~(1 << i)
        mm = strict
        while mm:
            bit = mm & -mm
            j = bit.bit_length() - 1
            mm ^= bit
            if strict & down[j] & ~bit == 0:
                cover_pairs.append((i, j))
    cover_pairs.sort()

    return Lattice(names,
                   tuple(up),
                   tuple(down),
                   tuple(tuple(r) for r in meet_t),
                   tuple(tuple(r) for r in join_t),
                   bottoms[0],
                   tops[0],
                   tuple(cover_pairs))


def _chain_names(size: int) -> list[str]:
    inner = size - 2
    if inner <= len(string.ascii_lowercase):
        mids = list(string.ascii_lowercase[:inner])
    else:
        mids = [f"m{i}" for i in range(1, inner + 1)]
    return ["0", *mids, "1"]


def chain(size: int) -> Lattice:
    """Total order with `size` elements, named 0 < a < b < ... < 1."""
    if not isinstance(size, int) or size < 2:
        raise LatticeError("a chain needs an integer size of at least 2")
    names = _chain_names(size)
    return lattice_from_covers(names, [(names[i], names[i + 1]) for i in range(size - 1)])


def boolean_cube(dim: int) -> Lattice:
    """Powerset of `dim` atoms; element names are membership bitstrings.

    Character k of a name (0-based) is '1' exactly when atom k+1 is in
    the subset, so for dim=2 the elements are 00, 10, 01, 11.
    """
    if not isinstance(dim, int) or dim < 1:
        raise LatticeError("a boolean cube needs an integer dimension of at least 1")
    names = ["".join("1" if (m >> k) & 1 else "0" for k in range(dim))
             for m in range(1 << dim)]
    covers = [(names[m], names[m | (1 << k)])
              for m in range(1 << dim) for k in range(dim) if not (m >> k) & 1]
    return lattice_from_covers(names, covers)


def product(left: Lattice, right: Lattice) -> Lattice:
    """Direct product; component names joined with an underscore."""
    if not isinstance(left, Lattice) or not isinstance(right, Lattice):
        raise LatticeError("product expects two Lattice operands")
    names = [f"{a}_{b}" for a in left.names for b in right.names]
    covers: list[tuple[str, str]] = []
    for i, a in enumerate(left.names):
        for j, b in enumerate(right.names):
            for i2, j2 in left.covers:
                if i2 == i:
                    covers.append((f"{a}_{b}", f"{left.names[j2]}_{b}"))
            for j2, k2 in right.covers:
                if j2 == j:
                    covers.append((f"{a}_{b}", f"{a}_{right.names[k2]}"))
    return lattice_from_covers(names, covers)


# Builtin names are checked against this cap before anything is built:
# construction does O(|L|^3) work and an N-element chain needs N names.
MAX_BUILTIN_SIZE = 64

_CHAIN = re.compile(r"chain([0-9]+)\Z")
_CUBE = re.compile(r"cube([0-9]+)\Z")
_GRID = re.compile(r"([0-9]+)x([0-9]+)\Z")


def _count(digits: str) -> int:
    # More than three significant digits is over the cap anyway; capping
    # here keeps a huge digit string from ever becoming a huge integer.
    digits = digits.lstrip("0") or "0"
    return int(digits) if len(digits) <= 3 else MAX_BUILTIN_SIZE + 1


def _check_size(spec: str, size: int) -> None:
    if size > MAX_BUILTIN_SIZE:
        raise LatticeError(f"builtin lattice {spec!r} has more than "
                           f"{MAX_BUILTIN_SIZE} elements")


def builtin_lattice(spec: str) -> Lattice | None:
    """The lattice a builtin name stands for, or None for any other spec.

    ``chainN`` is a chain on N elements, ``cubeN`` the subsets of an
    N-element set and ``NxM`` the product of two chains. A name whose
    lattice would have more than MAX_BUILTIN_SIZE elements raises
    LatticeError before anything is built.
    """
    if m := _CHAIN.match(spec):
        n = _count(m[1])
        _check_size(spec, n)
        return chain(n)
    if m := _CUBE.match(spec):
        dim = _count(m[1])
        _check_size(spec, 1 << dim)
        return boolean_cube(dim)
    if m := _GRID.match(spec):
        rows, cols = _count(m[1]), _count(m[2])
        _check_size(spec, rows * cols)
        return product(chain(rows), chain(cols))
    return None


def parse_lattice(text: str) -> Lattice:
    """Parse the line-based lattice format.

    The first significant line is ``elements: n1 n2 ...`` (index order);
    every following line is one cover ``a < b``. ``#`` starts a comment,
    blank lines are ignored.
    """
    names: list[str] | None = None
    covers: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if names is None:
            if not line.startswith("elements:"):
                raise LatticeError(f"line {lineno}: expected 'elements:' header, got {line!r}")
            names = line[len("elements:"):].split()
            if not names:
                raise LatticeError(f"line {lineno}: 'elements:' header lists no names")
            continue
        lhs, sep, rhs = line.partition("<")
        a, b = lhs.strip(), rhs.strip()
        if not sep or not a or not b or "<" in b or " " in a or " " in b:
            raise LatticeError(f"line {lineno}: expected one cover 'a < b', got {line!r}")
        covers.append((a, b))
    if names is None:
        raise LatticeError("missing 'elements:' header")
    return lattice_from_covers(names, covers)


def format_lattice(lat: Lattice) -> str:
    """Canonical text for a lattice; parse_lattice inverts this exactly."""
    lines = ["elements: " + " ".join(lat.names)]
    for i, j in lat.covers:
        lines.append(f"{lat.names[i]} < {lat.names[j]}")
    return "\n".join(lines) + "\n"
