from __future__ import annotations

import itertools
import re

import pytest

from latgap import (Elem, LatticeError, boolean_cube, chain, format_lattice,
                    lattice_from_covers, parse_lattice, product)
from helpers import M3_COVERS, M3_NAMES, N5_COVERS, N5_NAMES


def fixture_lattices():
    return [chain(2), chain(3), chain(4), boolean_cube(2), boolean_cube(3),
            product(chain(2), chain(3))]


def test_chain_basics(c3):
    assert c3.names == ("0", "a", "1")
    assert len(c3) == 3
    assert c3.bottom.name == "0"
    assert c3.top.name == "1"
    a = c3.element("a")
    assert c3.leq(c3.bottom, a)
    assert not c3.leq(a, c3.bottom)
    assert c3.leq(a, a)


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
    assert not square.leq(x, y)
    assert not square.leq(y, x)
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
            assert lat.leq(lat.bottom, x)
            assert lat.leq(x, lat.top)
            for y in els:
                assert lat.meet(x, y) == lat.meet(y, x)
                assert lat.join(x, y) == lat.join(y, x)
                assert lat.join(x, lat.meet(x, y)) == x
                assert lat.meet(x, lat.join(x, y)) == x
                assert lat.leq(x, y) == (lat.meet(x, y) == x)
                assert lat.leq(x, y) == (lat.join(x, y) == y)


def test_meet_join_are_greatest_and_least_bounds():
    for lat in fixture_lattices():
        els = lat.elements
        for x, y in itertools.product(els, repeat=2):
            m = lat.meet(x, y)
            assert lat.leq(m, x) and lat.leq(m, y)
            j = lat.join(x, y)
            assert lat.leq(x, j) and lat.leq(y, j)
            for z in els:
                if lat.leq(z, x) and lat.leq(z, y):
                    assert lat.leq(z, m)
                if lat.leq(x, z) and lat.leq(y, z):
                    assert lat.leq(j, z)


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
    """Order-theoretic mini oracle built straight from cover pairs, used
    to confirm that rejection witnesses really violate distributivity."""

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

    def _bound(self, x, y, below: bool):
        n = len(self.names)
        if below:
            cands = [z for z in range(n) if self.rel[z][x] and self.rel[z][y]]
            best = [z for z in cands if all(self.rel[w][z] for w in cands)]
        else:
            cands = [z for z in range(n) if self.rel[x][z] and self.rel[y][z]]
            best = [z for z in cands if all(self.rel[z][w] for w in cands)]
        assert len(best) == 1
        return best[0]

    def meet(self, x, y):
        return self._bound(x, y, below=True)

    def join(self, x, y):
        return self._bound(x, y, below=False)


@pytest.mark.parametrize("names,covers", [(M3_NAMES, M3_COVERS),
                                          (N5_NAMES, N5_COVERS)])
def test_nondistributive_rejected_with_genuine_witness(names, covers):
    with pytest.raises(LatticeError, match="not distributive") as err:
        lattice_from_covers(names, covers)
    m = re.search(r"witness \((\w+), (\w+), (\w+)\)", str(err.value))
    assert m, str(err.value)
    oracle = _BrutePoset(names, covers)
    x, y, z = (oracle.idx[nm] for nm in m.groups())
    lhs = oracle.meet(x, oracle.join(y, z))
    rhs = oracle.join(oracle.meet(x, y), oracle.meet(x, z))
    assert lhs != rhs


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
                    expect = (left.leq(left.elements[i1], left.elements[i2])
                              and right.leq(right.elements[j1], right.elements[j2]))
                    assert rect23.leq(x, y) == expect


def test_foreign_element_is_hard_error(c3):
    other = chain(3)
    with pytest.raises(LatticeError, match="not an element"):
        c3.meet(c3.bottom, other.bottom)
    with pytest.raises(LatticeError, match="not an element"):
        c3.leq(other.top, c3.top)
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
    assert lat.leq(lat.element("0"), lat.element("1"))


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
