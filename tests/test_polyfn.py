from __future__ import annotations

import itertools
import random

import pytest

from latgap import (EnumerationBudgetError, MonotonicityError, PolyFn,
                    builtin_lattice, canonicalize, chain, equivalent,
                    essential_variables,
                    identify, lattice_from_covers, parse_expr,
                    reduce_to_essential, simple_substitution,
                    value_table)
from latgap.polyfn import KEPT_JUMP_ARITY, _jump_positions, value_columns
from latgap.finfun import enumerate_all_functions, ess_bruteforce
from helpers import (characteristic_vector, essential_by_full_scan, essential_by_mask_loop,
                     eval_dnf, from_monotone_table, leq, monotone_tables_by_filter, point_at,
                     random_term, restrict_to_01)

MEDIAN = "(x1 & x2) | (x2 & x3) | (x3 & x1)"


def med(lat):
    return canonicalize(parse_expr(MEDIAN, 3, lat))


def test_characteristic_vector(c2):
    bot, top = c2.bottom, c2.top
    assert characteristic_vector(0b101, 3, c2) == (top, bot, top)
    assert characteristic_vector(0, 2, c2) == (bot, bot)
    assert characteristic_vector(0b11, 2, c2) == (top, top)
    with pytest.raises(ValueError, match="out of range"):
        characteristic_vector(4, 2, c2)


def test_canonicalize_median(c2):
    f = med(c2)
    # coefficient is top exactly on the two-or-more element subsets
    assert f.table == (0, 0, 0, 1, 0, 1, 1, 1)


def test_canonicalize_mixed_constant(c3):
    f = canonicalize(parse_expr("x1 | (a & x2)", 2, c3))
    assert f.dump() == [((), "0"), ((1,), "1"), ((2,), "a"), ((1, 2), "1")]


def test_coefficients_are_values_at_01_points(c3):
    f = canonicalize(parse_expr("x1 | (a & x2)", 2, c3))
    for mask in range(4):
        point = characteristic_vector(mask, 2, c3)
        assert eval_dnf(f, point) == f.coefficient(mask)


def test_coefficient_mask_range(c2):
    f = med(c2)
    with pytest.raises(ValueError, match="out of range"):
        f.coefficient(8)


def test_from_monotone_table_mapping_and_sequence(c3):
    a = c3.element("a")
    by_mask = {0: c3.bottom, 1: a, 2: a, 3: c3.top}
    f = from_monotone_table(by_mask, 2, c3)
    g = from_monotone_table([0, 1, 1, 2], 2, c3)
    assert f == g


def test_from_monotone_table_witness(c3):
    a = c3.element("a")
    with pytest.raises(MonotonicityError) as err:
        from_monotone_table({0: a, 1: c3.bottom}, 1, c3)
    assert "a[{}] = a is not below a[{1}] = 0" in str(err.value)
    assert err.value.subset == 0
    assert err.value.superset == 1


def test_from_monotone_table_shape_errors(c3):
    with pytest.raises(ValueError, match="missing subset"):
        from_monotone_table({0: 0}, 1, c3)
    with pytest.raises(ValueError, match="expected 4"):
        from_monotone_table([0, 0, 0], 2, c3)
    with pytest.raises(ValueError, match="bad table value"):
        from_monotone_table([0, "a"], 1, c3)


def test_essential_variables_examples(c2, c3):
    assert essential_variables(med(c2)) == {1, 2, 3}
    f = canonicalize(parse_expr("x1 | (a & x2)", 2, c3))
    assert essential_variables(f) == {1, 2}
    assert essential_variables(canonicalize(parse_expr("a", 2, c3))) == frozenset()
    # absorption makes x2 inessential
    g = canonicalize(parse_expr("x1 | (x1 & x2)", 2, c3))
    assert essential_variables(g) == {1}


def test_essential_matches_full_domain_scan(c3):
    for table in monotone_tables_by_filter(2, c3):
        f = from_monotone_table(table, 2, c3)
        assert essential_variables(f) == essential_by_full_scan(
            c3, 2, lambda point: eval_dnf(f, point))


def test_identify_median_gives_projection(c2):
    f = med(c2)
    g = identify(f, 1, 2)
    # med(x2, x2, x3) = x2: coefficient is top exactly when 2 is in the subset
    assert g.table == tuple(1 if mask & 0b10 else 0 for mask in range(8))


def test_identify_argument_errors(c2):
    f = med(c2)
    with pytest.raises(ValueError, match="distinct"):
        identify(f, 2, 2)
    with pytest.raises(ValueError, match="1..3"):
        identify(f, 0, 2)
    with pytest.raises(ValueError, match="1..3"):
        identify(f, 1, 4)


def test_identify_is_pointwise_substitution(c2, c3):
    cases = [(c2, 3), (c3, 2)]
    for lat, n in cases:
        for table in monotone_tables_by_filter(n, lat):
            f = from_monotone_table(table, n, lat)
            for i, j in itertools.permutations(range(1, n + 1), 2):
                g = identify(f, i, j)
                for point in itertools.product(lat.elements, repeat=n):
                    moved = list(point)
                    moved[i - 1] = point[j - 1]
                    assert eval_dnf(g, point) == eval_dnf(f, tuple(moved))


def test_simple_substitution_collapse(c2):
    f = med(c2)
    g = simple_substitution(f, (1, 1, 2), 2)
    assert g.table == (0, 1, 0, 1)  # med(x1, x1, x2) = x1


def test_simple_substitution_permutation(c3):
    f = canonicalize(parse_expr("x1 | (a & x2)", 2, c3))
    g = simple_substitution(f, (2, 1), 2)
    assert g.dump() == [((), "0"), ((1,), "a"), ((2,), "1"), ((1, 2), "1")]


def test_simple_substitution_padding(c3):
    f = canonicalize(parse_expr("x1", 1, c3))
    g = simple_substitution(f, (2,), 3)
    for point in itertools.product(c3.elements, repeat=3):
        assert eval_dnf(g, point) == point[1]


def test_simple_substitution_mapping_form(c2):
    f = med(c2)
    assert simple_substitution(f, {1: 1, 2: 1, 3: 2}, 2) == \
        simple_substitution(f, (1, 1, 2), 2)


def test_simple_substitution_errors(c2):
    f = med(c2)
    with pytest.raises(ValueError, match="expected 3"):
        simple_substitution(f, (1, 2), 2)
    with pytest.raises(ValueError, match="out of range"):
        simple_substitution(f, (1, 2, 3), 2)
    with pytest.raises(ValueError, match="total"):
        simple_substitution(f, {1: 1, 3: 2}, 2)


def test_reduce_to_essential(c2):
    f = med(c2)
    padded = simple_substitution(f, (2, 3, 4), 4)
    reduced, positions = reduce_to_essential(padded)
    assert positions == (2, 3, 4)
    assert reduced == f
    assert simple_substitution(reduced, positions, 4) == padded


def test_reduce_round_trip_exhaustive(c3):
    for table in monotone_tables_by_filter(2, c3):
        f = from_monotone_table(table, 2, c3)
        reduced, positions = reduce_to_essential(f)
        assert set(positions) == essential_variables(f)
        assert essential_variables(reduced) == set(range(1, reduced.arity + 1))
        assert simple_substitution(reduced, positions, 2) == f


def test_restrict_to_01(c3):
    f = canonicalize(parse_expr("x1 | (a & x2)", 2, c3))
    r = restrict_to_01(f)
    assert r.sizes == (2, 2)
    assert r.codomain == 3
    assert r.table == bytes(f.table)
    assert ess_bruteforce(r) == essential_variables(f)


def test_restrict_essentiality_agreement(c4):
    for table in monotone_tables_by_filter(2, c4):
        f = from_monotone_table(table, 2, c4)
        assert ess_bruteforce(restrict_to_01(f)) == essential_variables(f)


def random_monotone_table(rng: random.Random, n: int, lat) -> tuple[int, ...]:
    """A seeded monotone coefficient table: each coefficient is drawn
    among the elements above the join of its immediate sub-subsets."""
    els = lat.elements
    table: list[int] = []
    for mask in range(1 << n):
        floor = lat.bottom
        for k in range(n):
            if (mask >> k) & 1:
                floor = lat.join(floor, els[table[mask ^ (1 << k)]])
        table.append(rng.choice([e.index for e in els if leq(lat, floor, e)]))
    return tuple(table)


def test_jump_scan_matches_the_mask_loop():
    # The one-integer scan finds the positions the mask-by-mask loop
    # finds, sorted: on seeded monotone tables up to and past the arity
    # whose masks are kept, on a 300-element chain whose coefficients
    # take two bytes each (1 and 257 share their low byte), and on
    # every 0/1 table into 2 or 3 values of arity at most 3.
    rng = random.Random(2025)
    names = [f"e{i}" for i in range(300)]
    long_chain = lattice_from_covers(names, list(zip(names, names[1:])))
    chain3 = builtin_lattice("chain3")
    fns = [PolyFn(lat, n, random_monotone_table(rng, n, lat))
           for lat in (chain3, builtin_lattice("2x2"), builtin_lattice("cube3"))
           for n in range(KEPT_JUMP_ARITY + 1) for _ in range(3)]
    fns += [PolyFn(chain3, n, random_monotone_table(rng, n, chain3))
            for n in (KEPT_JUMP_ARITY + 1, KEPT_JUMP_ARITY + 2)]
    fns += [PolyFn(long_chain, n, random_monotone_table(rng, n, long_chain))
            for n in range(5) for _ in range(4)]
    fns += [PolyFn(long_chain, 1, (1, 257)), PolyFn(long_chain, 2, (1, 1, 257, 257)),
            PolyFn(long_chain, 2, (256, 299, 299, 299))]
    fns += [f for n in range(4) for codomain in (2, 3)
            for f in enumerate_all_functions(n, 2, codomain)]
    assert any(max(f.table) > 255 for f in fns)
    for f in fns:
        loop = essential_by_mask_loop(f)
        assert _jump_positions(f) == tuple(sorted(loop)), f
        assert essential_variables(f) == loop, f


def test_value_table_matches_eval(c3, c4, rect23):
    rng = random.Random(7130)
    fns = [med(c3),
           canonicalize(parse_expr(f"(a | ({MEDIAN})) & b", 3, c4))]
    fns += [canonicalize(random_term(rng, 3, 5, rect23)) for _ in range(5)]
    # Names listed top first, so the bottom row that value_table copies
    # sits at index 4, not 0.
    top_first = lattice_from_covers(
        ("1", "b", "a", "c", "0"),
        (("0", "a"), ("a", "b"), ("0", "c"), ("c", "b"), ("b", "1")))
    assert top_first.bottom_index == 4
    fns += [canonicalize(random_term(rng, 3, 5, top_first)) for _ in range(5)]
    fns += [PolyFn(lat, 0, (v,)) for lat in (c3, top_first) for v in range(lat.size)]
    fns += [PolyFn(top_first, 1, (4, v)) for v in range(5)]
    fns += [PolyFn(top_first, 1, (2, 0)), PolyFn(c4, 1, (1, 3))]
    fns += [PolyFn(rect23, 4, random_monotone_table(rng, 4, rect23)) for _ in range(12)]
    # Up to 16 elements a pass packs pairs into bytes (4x4 is the edge);
    # above that it builds rows entry by entry.
    for spec, n in (("2x2", 4), ("chain4", 3), ("4x4", 3), ("chain20", 2), ("cube5", 2)):
        lat = builtin_lattice(spec)
        fns += [PolyFn(lat, n, random_monotone_table(rng, n, lat)) for _ in range(4)]
    for f in fns:
        vt = value_table(f)
        lat = f.lattice
        for idx in range(len(vt.table)):
            point = tuple(lat.elements[d] for d in point_at(vt.sizes, idx))
            assert vt.table[idx] == eval_dnf(f, point).index


def _constructor_error(lat, n, coeffs) -> ValueError:
    with pytest.raises(ValueError) as err:
        PolyFn(lat, n, coeffs)
    return err.value


def _tables(columns: list[bytes]) -> list[bytes]:
    """The tables a chunk's columns hold, one per map."""
    joined, count = b"".join(columns), len(columns[0])
    return [joined[f::count] for f in range(count)]


def test_value_columns_prove_monotonicity_per_chunk(c3):
    # One check proves a whole chunk. A bad map in the middle of a chunk
    # raises the constructor's own error, witness and text included:
    # MonotonicityError naming the first failing cover, or ValueError
    # for a map of the wrong length, not a tuple, or with a value out of
    # range or not an int.
    good = [(0, 2, 0, 2), (1, 1, 1, 1)]
    for bad in ((0, 2, 1, 1), (1, 0, 2, 2), (0, 0, 2, 1), (2, 2, 2, 0), (0, 0, 0),
                [0, 0, 0, 0], (0, 0, 0, 3), (3, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 256),
                (0, 0, 0, 1.0), (0, 0, 0, "2")):
        with pytest.raises(ValueError) as err:
            value_columns(c3, 2, good + [bad] + good)
        expected = _constructor_error(c3, 2, bad)
        assert (type(err.value), str(err.value)) == (type(expected), str(expected)), bad
        if isinstance(expected, MonotonicityError):
            assert (err.value.subset, err.value.superset) == (expected.subset, expected.superset)
    # The passes accept exactly the tables the constructor accepts, on
    # every table of three small shapes.
    def accepts(build) -> bool:
        try:
            build()
        except MonotonicityError:
            return False
        return True

    for lat, n in ((chain(2), 3), (c3, 2), (builtin_lattice("2x2"), 2)):
        for t in itertools.product(range(lat.size), repeat=1 << n):
            assert accepts(lambda: PolyFn(lat, n, t)) == accepts(
                lambda: value_columns(lat, n, [t])), (lat, t)
    # The same on seeded tables with one coefficient redrawn, between
    # runs of monotone maps. A chunk that passes gives the maps back,
    # with each map's coefficient table and value_table in its columns.
    rng = random.Random(1602)
    rejected = 0
    for lat in (c3, builtin_lattice("2x2"), chain(17)):
        for n in (0, 1, 3, 4):
            for _ in range(20):
                good = [random_monotone_table(rng, n, lat) for _ in range(4)]
                table = list(rng.choice(good))
                table[rng.randrange(len(table))] = rng.randrange(lat.size)
                maps = good[:2] + [tuple(table)] + good[2:]
                try:
                    fns = [PolyFn(lat, n, coeffs) for coeffs in maps]
                except MonotonicityError as expected:
                    rejected += 1
                    with pytest.raises(MonotonicityError) as err:
                        value_columns(lat, n, maps)
                    assert (str(err.value), err.value.subset, err.value.superset) == (
                        str(expected), expected.subset, expected.superset)
                    continue
                got, coefficients, values = value_columns(lat, n, maps)
                assert got is maps
                assert _tables(coefficients) == [bytes(coeffs) for coeffs in maps]
                assert _tables(values) == [value_table(f).table for f in fns]
    assert rejected > 40


def test_value_columns_check_the_value_tables(monkeypatch):
    # The last pass's output gets FiniteFn's length and value checks, and
    # the first map whose table fails raises FiniteFn's error, though the
    # passes are trusted to be right. With the top listed first, a pass
    # broken at its end still proves the maps monotone.
    import latgap.polyfn as polyfn
    top_first = lattice_from_covers(("1", "0"), (("0", "1"),))
    extend = polyfn._extend_table
    for broken, message in (
            (lambda t: t[:-1], "table has 1 entries, expected 2"),
            (lambda t: t[:-1] + b"\x02", "value 2 out of codomain range")):
        monkeypatch.setattr(polyfn, "_extend_table",
                            lambda *args, _broken=broken: _broken(extend(*args)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            value_columns(top_first, 1, [(1, 0), (0, 0)])


def test_value_table_checks_its_size_first():
    f = canonicalize(parse_expr("x1 & x2", 5, chain(40)))
    with pytest.raises(EnumerationBudgetError, match="40\\^5 entries"):
        value_table(f)


def test_equivalent_up_to_renaming_and_padding(c2):
    f = med(c2)
    g = simple_substitution(f, (3, 1, 2), 3)
    assert equivalent(f, g)
    padded = simple_substitution(f, (2, 3, 4), 4)
    assert equivalent(f, padded)
    conj = canonicalize(parse_expr("x1 & x2 & x3", 3, c2))
    assert not equivalent(f, conj)


def test_equivalent_needs_same_lattice(c2):
    f = med(c2)
    g = med(chain(2))
    with pytest.raises(ValueError, match="same lattice"):
        equivalent(f, g)


def test_constructor_validation(c2):
    with pytest.raises(ValueError, match="0..16"):
        PolyFn(c2, 17, (0,) * (1 << 17))
    with pytest.raises(ValueError, match="length 4"):
        PolyFn(c2, 2, (0, 0, 0))
    with pytest.raises(ValueError, match="out of range"):
        PolyFn(c2, 1, (0, 5))
    with pytest.raises(MonotonicityError):
        PolyFn(c2, 1, (1, 0))


def first_out_of_order_cover(lat, table) -> tuple[int, int] | None:
    """The first pair (mask - bit, mask) whose coefficients are not in
    order, masks ascending and bits low first, or None: the witness
    PolyFn names, found with the lattice order itself."""
    els = lat.elements
    for mask in range(1, len(table)):
        for k in range(len(table).bit_length() - 1):
            sub = mask ^ (1 << k)
            if mask >> k & 1 and not leq(lat, els[table[sub]], els[table[mask]]):
                return sub, mask
    return None


def test_monotonicity_witness_matches_cover_order():
    # Monotone tables with one or two coefficients redrawn, so that the
    # first broken cover can sit anywhere; arities above 8 take the
    # uncached cover list.
    rng = random.Random(4096)
    checked = rejected = 0
    for spec in ("chain3", "2x2", "cube3"):
        lat = builtin_lattice(spec)
        for n in range(11):
            for _ in range(60 if n <= 8 else 4):
                table = list(random_monotone_table(rng, n, lat))
                for _ in range(rng.randint(1, 2)):
                    table[rng.randrange(len(table))] = rng.randrange(lat.size)
                table = tuple(table)
                witness = first_out_of_order_cover(lat, table)
                checked += 1
                if witness is None:
                    assert PolyFn(lat, n, table).table == table
                    continue
                rejected += 1
                with pytest.raises(MonotonicityError) as err:
                    PolyFn(lat, n, table)
                sub, mask = witness
                assert (err.value.subset, err.value.superset) == witness
                assert f"= {lat.names[table[sub]]} is not below" in str(err.value)
                assert str(err.value).endswith(f"= {lat.names[table[mask]]}")
    assert checked == 3 * (9 * 60 + 2 * 4)
    assert rejected > checked // 2


def test_eval_dnf_validation(c2, c3):
    f = med(c2)
    with pytest.raises(ValueError, match="arity"):
        eval_dnf(f, (c2.top, c2.bottom))
    with pytest.raises(ValueError):
        eval_dnf(f, (c2.top, c2.bottom, c3.top))


def test_value_table_matches_eval_above_sixteen_elements():
    # Above 16 elements a pass builds each block entry by entry; arity 3
    # runs that pass on tables already holding point digits.
    rng = random.Random(1612)
    for spec, n in (("chain20", 3), ("5x8", 2), ("cube5", 2), ("chain17", 3)):
        lat = builtin_lattice(spec)
        assert lat.size > 16
        for _ in range(2):
            f = PolyFn(lat, n, random_monotone_table(rng, n, lat))
            vt = value_table(f)
            assert (vt.sizes, vt.codomain) == ((lat.size,) * n, lat.size)
            for idx in range(len(vt.table)):
                point = tuple(lat.elements[d] for d in point_at(vt.sizes, idx))
                assert vt.table[idx] == eval_dnf(f, point).index
