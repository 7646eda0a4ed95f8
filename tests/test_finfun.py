from __future__ import annotations

import array
import itertools
import math
import random

import pytest

from latgap import (EnumerationBudgetError, FiniteFn, chain,
                    enumerate_all_functions, enumerate_monotone_maps,
                    ess_bruteforce, format_finite_fn, gap_bruteforce,
                    identify_table, parse_finite_fn, point_at, reduce_table,
                    salomaa_function)
from helpers import (essential_by_points, gap_by_points, identify_by_points,
                     monotone_tables_by_filter, reduce_by_points)

XOR = FiniteFn((2, 2), 2, (0, 1, 1, 0))
AND = FiniteFn((2, 2), 2, (0, 0, 0, 1))


def test_call_and_point_order():
    # little-endian: position 1 varies fastest
    assert XOR((1, 0)) == 1
    assert XOR((0, 1)) == 1
    assert AND((1, 1)) == 1
    assert AND((1, 0)) == 0


def test_ess_bruteforce_examples():
    assert ess_bruteforce(XOR) == {1, 2}
    assert ess_bruteforce(FiniteFn((2, 2), 2, (0, 0, 1, 1))) == {2}
    assert ess_bruteforce(FiniteFn((2, 2), 3, (2, 2, 2, 2))) == frozenset()


def test_identify_xor_goes_constant():
    g = identify_table(XOR, 1, 2)
    assert g.table == bytes((0, 0, 0, 0))
    assert ess_bruteforce(g) == frozenset()


def test_identify_and_gives_projection():
    g = identify_table(AND, 1, 2)
    # x1 := x2 turns conjunction into x2
    assert g.table == bytes((0, 0, 1, 1))


def test_identify_errors():
    with pytest.raises(ValueError, match="distinct"):
        identify_table(XOR, 1, 1)
    with pytest.raises(ValueError, match="1..2"):
        identify_table(XOR, 0, 1)
    mixed = FiniteFn((2, 3), 2, (0,) * 6)
    with pytest.raises(ValueError, match="alphabet size"):
        identify_table(mixed, 1, 2)


def test_gap_examples():
    assert gap_bruteforce(XOR).gap == 2
    assert gap_bruteforce(AND).gap == 1
    report = gap_bruteforce(salomaa_function(3))
    assert report.ess == 3 and report.essl == 0 and report.gap == 3


def test_gap_undefined_below_two_essential():
    report = gap_bruteforce(FiniteFn((2, 2), 2, (0, 1, 0, 1)))
    assert report.essential == {1} and report.ess == 1
    assert report.gap is None and report.essl is None
    report = gap_bruteforce(FiniteFn((2, 2), 2, (1, 1, 1, 1)))
    assert report.essential == frozenset() and report.ess == 0
    assert report.gap is None and report.essl is None


def test_gap_bounded_by_alphabet_size():
    # over a two-letter alphabet the gap is 1 or 2, never more
    for f in enumerate_all_functions(2, 2, 2):
        if len(ess_bruteforce(f)) == 2:
            assert gap_bruteforce(f).gap in (1, 2)


def test_gap_report_identity():
    for f in enumerate_all_functions(2, 2, 3):
        if len(ess_bruteforce(f)) == 2:
            report = gap_bruteforce(f)
            assert report.gap == report.ess - report.essl >= 1


def test_reduce_table():
    f = FiniteFn((2, 2, 2), 2, tuple((i >> 1) & 1 for i in range(8)))
    reduced, positions = reduce_table(f)
    assert positions == (2,)
    assert reduced.sizes == (2,)
    assert reduced.table == bytes((0, 1))


def test_reduce_table_keeps_values():
    f = FiniteFn((2, 3), 4, (3, 3, 1, 1, 0, 0))
    reduced, positions = reduce_table(f)
    assert positions == (2,)
    assert reduced.sizes == (3,)
    assert reduced.table == bytes((3, 1, 0))
    assert reduced.codomain == 4


def check_against_points(f: FiniteFn, minors: bool = True) -> None:
    """ess_bruteforce and reduce_table against the point-tuple references
    and, with `minors`, every equal-size identify_table minor and (where
    the essential positions share one alphabet) gap_bruteforce too."""
    sizes = f.sizes
    ess = essential_by_points(sizes, f.table)
    assert ess_bruteforce(f) == ess
    keep = tuple(sorted(ess))
    reduced, positions = reduce_table(f)
    assert positions == keep
    assert reduced.sizes == tuple(sizes[p - 1] for p in keep)
    assert reduced.table == bytes(reduce_by_points(sizes, f.table, keep))
    assert reduced.codomain == f.codomain
    if not minors:
        return
    for i in range(1, f.arity + 1):
        for j in range(1, f.arity + 1):
            if i != j and sizes[i - 1] == sizes[j - 1]:
                minor = identify_table(f, i, j)
                assert minor.sizes == f.sizes
                assert minor.table == bytes(identify_by_points(sizes, f.table, i, j))
    if len({sizes[p - 1] for p in ess}) <= 1:
        report = gap_bruteforce(f)
        assert (report.essential, report.gap) == gap_by_points(sizes, f.table)


def test_stride_arithmetic_matches_point_reference():
    # Random tables over mixed alphabets that ignore some planted
    # positions, checked against references that walk point tuples.
    rng = random.Random(2009)
    shapes = [(2, 3, 3), (3, 2, 3, 2), (3, 3, 2, 3), (4, 4, 4, 4)]
    for sizes, codomain, _ in itertools.product(shapes, (3, 256), range(40)):
        n = len(sizes)
        used = [k for k in range(n) if rng.random() < 0.6]
        values = {}
        table = []
        for idx in range(math.prod(sizes)):
            point = point_at(sizes, idx)
            key = tuple(point[k] for k in used)
            table.append(values.setdefault(key, rng.randrange(codomain)))
        f = FiniteFn(sizes, codomain, tuple(table))
        assert essential_by_points(sizes, f.table) <= {k + 1 for k in used}
        check_against_points(f)


def test_every_small_boolean_function_matches_point_reference():
    # identify_table moves entries without reading them, so at n = 4 one
    # table with 16 distinct values pins down every minor of that shape;
    # criterion 1 already checks gap_bruteforce on all n = 4 functions
    # against the closed-form classifier.
    for n in range(5):
        for f in enumerate_all_functions(n, 2, 2):
            check_against_points(f, minors=n <= 3)
    check_against_points(FiniteFn((2,) * 4, 16, range(16)))


def test_salomaa_function_shape():
    f = salomaa_function(4)
    assert f.sizes == (4, 4, 4, 4)
    assert f((0, 1, 2, 3)) == 1
    assert f((1, 1, 2, 3)) == 0
    assert sum(f.table) == 1
    assert ess_bruteforce(f) == {1, 2, 3, 4}


def test_salomaa_guards():
    with pytest.raises(ValueError, match="at least 2"):
        salomaa_function(1)
    with pytest.raises(ValueError, match="beyond k = 8"):
        salomaa_function(9)


def test_monotone_map_counts(c2, c3):
    assert sum(1 for _ in enumerate_monotone_maps(2, c2)) == 6
    assert sum(1 for _ in enumerate_monotone_maps(3, c2)) == 20
    assert sum(1 for _ in enumerate_monotone_maps(1, c3)) == 6
    assert sum(1 for _ in enumerate_monotone_maps(2, c3)) == 20


def test_monotone_maps_match_naive_filter(c3, square):
    for lat in (c3, square):
        fast = sorted(enumerate_monotone_maps(2, lat))
        slow = sorted(monotone_tables_by_filter(2, lat))
        assert fast == slow
        assert len(set(fast)) == len(fast)


def test_monotone_maps_are_monotone(square):
    up = square._up
    for table in enumerate_monotone_maps(3, square):
        for mask in range(8):
            for b in range(3):
                sub = mask & ~(1 << b)
                if sub != mask:
                    assert (up[table[sub]] >> table[mask]) & 1


def test_enumerate_all_functions_counts():
    assert sum(1 for _ in enumerate_all_functions(1, 2, 2)) == 4
    assert sum(1 for _ in enumerate_all_functions(2, 2, 2)) == 16
    assert sum(1 for _ in enumerate_all_functions(1, 2, 3)) == 9
    tables = [f.table for f in enumerate_all_functions(2, 2, 3)]
    assert len(tables) == 81
    assert len(set(tables)) == 81


def test_enumeration_budget():
    with pytest.raises(EnumerationBudgetError, match="exceed"):
        list(enumerate_all_functions(3, 3, 3, budget=1000))
    # a budget just large enough goes through
    assert sum(1 for _ in enumerate_all_functions(1, 2, 2, budget=4)) == 4
    # the codomain bound is checked on the call, before anything is drawn
    with pytest.raises(ValueError, match="exceeds the bound of 256"):
        enumerate_all_functions(1, 2, 257)


def test_text_format_round_trip():
    text = format_finite_fn(XOR)
    assert text == "2 2 2\n0 1 1 0\n"
    assert parse_finite_fn(text) == XOR
    f = FiniteFn((3, 3), 4, tuple(range(4)) + (0, 1, 2, 3, 0))
    assert parse_finite_fn(format_finite_fn(f)) == f


def test_parse_allows_comments_and_layout():
    text = "# parity\n2 2 2\n0 1\n1 0  # wraps\n"
    assert parse_finite_fn(text) == XOR


def test_text_format_errors():
    with pytest.raises(ValueError, match="header"):
        parse_finite_fn("2 2\n")
    with pytest.raises(ValueError, match="bad header"):
        parse_finite_fn("two 2 2\n0 1 1 0")
    with pytest.raises(ValueError, match="expected 4 values"):
        parse_finite_fn("2 2 2\n0 1 1")
    with pytest.raises(ValueError, match="out of range"):
        parse_finite_fn("2 2 2\n0 1 1 7")
    with pytest.raises(ValueError, match="bad value"):
        parse_finite_fn("2 2 2\n0 1 1 x")
    with pytest.raises(ValueError, match="exceeds the bound of 256"):
        parse_finite_fn("1 2 257\n0 256")
    mixed = FiniteFn((2, 3), 2, (0,) * 6)
    with pytest.raises(ValueError, match="shared alphabet"):
        format_finite_fn(mixed)


def test_constructor_validation():
    with pytest.raises(ValueError, match="at least 2"):
        FiniteFn((1,), 2, (0,))
    with pytest.raises(ValueError, match="expected 4"):
        FiniteFn((2, 2), 2, (0, 1))
    with pytest.raises(ValueError, match="codomain"):
        FiniteFn((2,), 2, (0, 2))
    with pytest.raises(ValueError, match="labels"):
        FiniteFn((2,), 2, (0, 1), labels=("only",))
    with pytest.raises(ValueError, match="exceeds the bound of 256"):
        FiniteFn((2,), 257, (0, 1))
    with pytest.raises(ValueError, match="codomain"):
        FiniteFn((2,), 2, (0, 300))
    with pytest.raises(TypeError):
        FiniteFn((2, 2), 2, 4)
    assert FiniteFn((2,), 256, [0, 255]).table == bytes((0, 255))
    # read as ints, not as the raw memory of a buffer
    assert FiniteFn((2,), 3, array.array("i", (1, 2))).table == bytes((1, 2))


def test_labels_do_not_affect_equality(c3):
    bare = FiniteFn((2,), 3, (0, 2))
    named = FiniteFn((2,), 3, (0, 2), labels=c3.names)
    assert bare == named
    assert named.label(2) == "1"
    assert bare.label(2) == "2"
