from __future__ import annotations

import functools
import itertools
import random
import re

import pytest

from latgap import (Elem, LatticeError, boolean_cube, chain, lattice_from_covers,
                    parse_lattice, product)
from helpers import M3_COVERS, M3_NAMES, N5_COVERS, N5_NAMES, format_lattice, leq


def fixture_lattices():
    return [chain(2), chain(3), chain(4), boolean_cube(2), boolean_cube(3),
            product(chain(2), chain(3))]


def test_chain_basics(c3):
    assert c3.names == ("0", "a", "1")
    assert len(c3) == 3
    assert c3.bottom.name == "0"
    assert c3.top.name == "1"
    a = c3.element("a")
    assert leq(c3, c3.bottom, a)
    assert not leq(c3, a, c3.bottom)
    assert leq(c3, a, a)


def test_chain_four_names(c4):
    assert c4.names == ("0", "a", "b", "1")


def test_meet_join_on_chain(c3):
    zero, a, one = c3.elements
    assert c3.meet(a, one) == a
    assert c3.join(a, zero) == a
    assert c3.meet(zero, one) == zero
    assert c3.join(zero, one) == one


def test_square_incomparable_atoms(square):
    x = square.element("10")
    y = square.element("01")
    assert not leq(square, x, y)
    assert not leq(square, y, x)
    assert square.meet(x, y) == square.bottom
    assert square.join(x, y) == square.top


def test_unknown_element_name(c3):
    with pytest.raises(LatticeError, match="unknown element"):
        c3.element("zzz")


def test_lattice_axioms_by_exhaustion():
    for lat in fixture_lattices():
        els = lat.elements
        for x in els:
            assert lat.meet(x, x) == x
            assert lat.join(x, x) == x
            assert leq(lat, lat.bottom, x)
            assert leq(lat, x, lat.top)
            for y in els:
                assert lat.meet(x, y) == lat.meet(y, x)
                assert lat.join(x, y) == lat.join(y, x)
                assert lat.join(x, lat.meet(x, y)) == x
                assert lat.meet(x, lat.join(x, y)) == x
                assert leq(lat, x, y) == (lat.meet(x, y) == x)
                assert leq(lat, x, y) == (lat.join(x, y) == y)


def test_meet_join_are_greatest_and_least_bounds():
    for lat in fixture_lattices():
        els = lat.elements
        for x, y in itertools.product(els, repeat=2):
            m = lat.meet(x, y)
            assert leq(lat, m, x) and leq(lat, m, y)
            j = lat.join(x, y)
            assert leq(lat, x, j) and leq(lat, y, j)
            for z in els:
                if leq(lat, z, x) and leq(lat, z, y):
                    assert leq(lat, z, m)
                if leq(lat, x, z) and leq(lat, y, z):
                    assert leq(lat, j, z)


def test_distributivity_by_exhaustion():
    for lat in fixture_lattices():
        els = lat.elements
        for x, y, z in itertools.product(els, repeat=3):
            assert lat.meet(x, lat.join(y, z)) == \
                lat.join(lat.meet(x, y), lat.meet(x, z))
            assert lat.join(x, lat.meet(y, z)) == \
                lat.meet(lat.join(x, y), lat.join(x, z))


def test_duplicate_name_rejected():
    with pytest.raises(LatticeError, match="duplicate"):
        lattice_from_covers(("0", "a", "a"), (("0", "a"),))


def test_invalid_name_rejected():
    with pytest.raises(LatticeError, match="invalid element name"):
        lattice_from_covers(("0", "a b"), (("0", "a b"),))
    with pytest.raises(LatticeError, match="invalid element name"):
        lattice_from_covers(("0", "x<y"), ())


def test_unknown_cover_name_rejected():
    with pytest.raises(LatticeError, match="unknown name"):
        lattice_from_covers(("0", "1"), (("0", "one"),))


def test_cycle_rejected():
    with pytest.raises(LatticeError, match="cycle"):
        lattice_from_covers(("0", "a", "1"),
                            (("0", "a"), ("a", "0"), ("a", "1")))
    with pytest.raises(LatticeError, match="cycle"):
        lattice_from_covers(("0", "1"), (("1", "1"),))


def test_single_element_rejected():
    with pytest.raises(LatticeError, match="at least two"):
        lattice_from_covers(("0",), ())


def test_missing_bottom_rejected():
    with pytest.raises(LatticeError, match="bottom"):
        lattice_from_covers(("a", "b", "1"), (("a", "1"), ("b", "1")))


def test_missing_top_rejected():
    with pytest.raises(LatticeError, match="top"):
        lattice_from_covers(("0", "a", "b"), (("0", "a"), ("0", "b")))


def test_missing_join_rejected():
    # a and b share the incomparable upper bounds c and d, so they have
    # no least upper bound (and c, d dually have no meet).
    names = ("0", "a", "b", "c", "d", "1")
    covers = (("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"),
              ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1"))
    with pytest.raises(LatticeError, match="no (meet|join)"):
        lattice_from_covers(names, covers)


class _BrutePoset:
    """Order-theoretic mini oracle built straight from cover pairs: the
    reference for construction, and the check that rejection witnesses
    really violate distributivity."""

    def __init__(self, names, covers):
        self.names = list(names)
        n = len(self.names)
        idx = {nm: i for i, nm in enumerate(self.names)}
        rel = [[i == j for j in range(n)] for i in range(n)]
        for a, b in covers:
            rel[idx[a]][idx[b]] = True
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
        self.rel = rel
        self.idx = idx
        self.lower = [{z for z in range(n) if rel[z][x]} for x in range(n)]
        self.upper = [{z for z in range(n) if rel[x][z]} for x in range(n)]

    def _bound(self, x, y, below: bool):
        # The unique greatest common lower (least common upper) bound,
        # or None when there is none.
        sets = self.lower if below else self.upper
        cands = sets[x] & sets[y]
        best = [z for z in cands if cands <= sets[z]]
        return best[0] if len(best) == 1 else None

    def meet(self, x, y):
        return self._bound(x, y, below=True)

    def join(self, x, y):
        return self._bound(x, y, below=False)

    @functools.cached_property
    def tables(self):
        """Meet and join tables, or None when some pair lacks a bound."""
        n = len(self.names)
        meet = [[self.meet(x, y) for y in range(n)] for x in range(n)]
        join = [[self.join(x, y) for y in range(n)] for x in range(n)]
        return None if any(None in row for row in meet + join) else (meet, join)

    def is_distributive_lattice(self):
        """The definition: every pair has a meet and a join, and
        x & (y | z) = (x & y) | (x & z) for every triple."""
        if self.tables is None:
            return False
        meet, join = self.tables
        n = len(self.names)
        return all(meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
                   for x in range(n) for y in range(n) for z in range(n))

    def is_witness(self, x, y, z):
        return self.meet(x, self.join(y, z)) != self.join(self.meet(x, y), self.meet(x, z))


@pytest.mark.parametrize("names,covers", [(M3_NAMES, M3_COVERS),
                                          (N5_NAMES, N5_COVERS)])
def test_nondistributive_rejected_with_genuine_witness(names, covers):
    with pytest.raises(LatticeError, match="not distributive") as err:
        lattice_from_covers(names, covers)
    m = re.search(r"witness \((\w+), (\w+), (\w+)\)", str(err.value))
    assert m, str(err.value)
    oracle = _BrutePoset(names, covers)
    assert oracle.is_witness(*(oracle.idx[nm] for nm in m.groups()))


def _random_presentation(rng):
    """Names and covers of a random family of subsets of a small set,
    ordered by inclusion. The family is closed under intersection and
    holds the empty and the whole set, so it is a lattice; a distributive
    one when it is also closed under union, as two in five are. One
    family in four then loses a member, which may leave pairs without a
    meet or a join, or the order without a bound. Names and covers come
    in random order, with a few redundant pairs added."""
    width = rng.randint(2, 5)
    full = (1 << width) - 1
    family = {0, full}
    for _ in range(rng.randint(1, 10)):
        # Mostly large sets, whose intersections are many.
        family.add(sum(1 << k for k in range(width) if rng.random() < 0.7))
    ring = rng.random() < 0.4
    while True:
        grown = {a & b for a in family for b in family}
        if ring:
            grown |= {a | b for a in family for b in family}
        if grown <= family:
            break
        family |= grown
    family = sorted(family)
    if len(family) > 2 and rng.random() < 0.25:
        family.remove(rng.choice(family))
    strict = [(a, b) for a in family for b in family if a != b and a & b == a]
    hasse = [(a, b) for a, b in strict
             if not any(a & c == a and c & b == c for c in family if c not in (a, b))]
    pairs = hasse + rng.sample(strict, min(len(strict), rng.randint(0, 2)))
    rng.shuffle(pairs)
    order = rng.sample(family, len(family))
    names = [f"e{k}" for k in rng.sample(range(100), len(family))]
    name = dict(zip(order, names))
    return names, [(name[a], name[b]) for a, b in pairs]


def test_construction_matches_brute_force_on_random_presentations():
    rng = random.Random(20240917)
    outcomes = {"accepted": 0, "not distributive": 0, "other": 0}
    for _ in range(2000):
        names, covers = _random_presentation(rng)
        oracle = _BrutePoset(names, covers)
        try:
            lat = lattice_from_covers(names, covers)
        except LatticeError as exc:
            assert not oracle.is_distributive_lattice(), (names, covers, exc)
            m = re.search(r"not distributive: witness \((\w+), (\w+), (\w+)\)", str(exc))
            if m:
                assert oracle.tables is not None, (names, covers, exc)
                assert oracle.is_witness(*(oracle.idx[nm] for nm in m.groups())), \
                    (names, covers, exc)
                outcomes["not distributive"] += 1
                continue
            if m := re.search(r"elements '(\w+)' and '(\w+)' have no (meet|join)", str(exc)):
                bound = oracle.meet if m[3] == "meet" else oracle.join
                assert bound(oracle.idx[m[1]], oracle.idx[m[2]]) is None, (names, covers, exc)
            outcomes["other"] += 1
            continue
        assert oracle.is_distributive_lattice(), (names, covers)
        assert lat.names == tuple(names)
        assert ([list(row) for row in lat._meet],
                [list(row) for row in lat._join]) == oracle.tables
        n = len(names)
        assert all(leq(lat, lat.bottom, x) and leq(lat, x, lat.top) for x in lat.elements)
        assert {(i, j) for i in range(n) for j in range(n) if i != j and oracle.rel[i][j]
                and not any(oracle.rel[i][k] and oracle.rel[k][j]
                            for k in range(n) if k not in (i, j))} == set(lat.covers)
        outcomes["accepted"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_standard_constructors_reject_bad_params():
    with pytest.raises(LatticeError):
        chain(1)
    with pytest.raises(LatticeError):
        chain("3")
    with pytest.raises(LatticeError):
        boolean_cube(0)
    with pytest.raises(LatticeError):
        product(chain(2), "not a lattice")


def test_product_is_componentwise(rect23):
    left, right = chain(2), chain(3)
    for i1, a in enumerate(left.names):
        for j1, b in enumerate(right.names):
            for i2, c in enumerate(left.names):
                for j2, d in enumerate(right.names):
                    x = rect23.element(f"{a}_{b}")
                    y = rect23.element(f"{c}_{d}")
                    expect = (leq(left, left.elements[i1], left.elements[i2])
                              and leq(right, right.elements[j1], right.elements[j2]))
                    assert leq(rect23, x, y) == expect


def test_foreign_element_is_hard_error(c3):
    other = chain(3)
    with pytest.raises(LatticeError, match="not an element"):
        c3.meet(c3.bottom, other.bottom)
    with pytest.raises(LatticeError, match="not an element"):
        leq(c3, other.top, c3.top)
    with pytest.raises(LatticeError, match="not an element"):
        c3.join(c3.top, "0")


def test_elem_identity(c3):
    a = c3.element("a")
    assert a == Elem(c3, 1)
    assert a != Elem(chain(3), 1)
    assert repr(a) == "Elem('a')"


def test_parse_lattice_with_comments():
    text = """
# three element chain
elements: 0 a 1   # index order
0 < a
a < 1  # top cover
"""
    lat = parse_lattice(text)
    assert lat.names == ("0", "a", "1")
    assert leq(lat, lat.element("0"), lat.element("1"))


def test_parse_lattice_errors():
    with pytest.raises(LatticeError, match="missing 'elements:'"):
        parse_lattice("# nothing here\n")
    with pytest.raises(LatticeError, match="expected 'elements:'"):
        parse_lattice("0 < a\n")
    with pytest.raises(LatticeError, match="lists no names"):
        parse_lattice("elements:\n")
    with pytest.raises(LatticeError, match="expected one cover"):
        parse_lattice("elements: 0 1\n0 1\n")
    with pytest.raises(LatticeError, match="expected one cover"):
        parse_lattice("elements: 0 a 1\n0 < a < 1\n")
    with pytest.raises(LatticeError, match="unknown name"):
        parse_lattice("elements: 0 1\n0 < one\n")


def test_format_round_trip_is_bit_exact():
    for lat in fixture_lattices():
        text = format_lattice(lat)
        again = parse_lattice(text)
        assert format_lattice(again) == text
        assert again.names == lat.names


def test_redundant_cover_canonicalized():
    direct = parse_lattice("elements: 0 a 1\n0 < a\na < 1\n")
    padded = parse_lattice("elements: 0 a 1\n0 < a\na < 1\n0 < 1\n")
    assert format_lattice(padded) == format_lattice(direct)
    assert padded.covers == ((0, 1), (1, 2))


def test_covers_are_hasse_edges(square):
    assert square.covers == ((0, 1), (0, 2), (1, 3), (2, 3))
