from __future__ import annotations

import array
import itertools
import math
import random
import tracemalloc
import types

import pytest
from hypothesis import assume, given, settings, strategies as st

import latgap.finfun
from latgap import (EnumerationBudgetError, FiniteFn, boolean_gap_codes,
                    builtin_lattice, chain, enumerate_all_functions, enumerate_monotone_maps,
                    ess_bruteforce, gap_bruteforce,
                    identify_table, parse_finite_fn, salomaa_function, table_gap_codes)
from latgap.finfun import lane_gap_codes
from latgap.polyfn import value_columns
from helpers import (essential_by_points, gap_by_points, identify_by_points,
                     format_finite_fn, monotone_maps_recursive,
                     monotone_tables_by_filter, point_at)

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
    # A float position is no index, and True is no position 1.
    for i, j in ((1.0, 2), (True, 2), (1, False)):
        with pytest.raises(ValueError, match="^positions must be ints, got "):
            identify_table(XOR, i, j)
    mixed = FiniteFn((2, 3), 2, (0,) * 6)
    with pytest.raises(ValueError, match="alphabet size"):
        identify_table(mixed, 1, 2)


def test_gap_needs_one_alphabet_for_essential_positions():
    # (x1 + x2) mod 3 over alphabets 2 and 3: both positions essential.
    mixed = FiniteFn((2, 3), 3, (0, 1, 1, 2, 2, 0))
    # x1 xor x2 xor (x3 > 0): positions 1 and 2 share an alphabet, and
    # their minor drops both of them, so the search goes on to (1, 3).
    later = FiniteFn((2, 2, 3), 2, [(x1 ^ x2 ^ (x3 > 0)) for x3 in range(3)
                                    for x2 in range(2) for x1 in range(2)])
    for f in (mixed, later):
        assert ess_bruteforce(f) == set(range(1, f.arity + 1))
        with pytest.raises(ValueError, match="^positions to identify must share an "
                                             "alphabet size$"):
            gap_bruteforce(f)


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


def check_against_points(f: FiniteFn, minors: bool = True) -> None:
    """ess_bruteforce against the point-tuple reference and, with
    `minors`, every equal-size identify_table minor and (where the
    essential positions share one alphabet) gap_bruteforce too."""
    sizes = f.sizes
    ess = essential_by_points(sizes, f.table)
    assert ess_bruteforce(f) == ess
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
    # (12, 12, 12) is the widest alphabet, whose minors take four fill
    # shifts each way (1, 2, 4 and 4 digits); its point references
    # take a few tenths of a second per table, so it gets only a few.
    rng = random.Random(2009)
    shapes = [((2, 3, 3), 40), ((3, 2, 3, 2), 40), ((3, 3, 2, 3), 40),
              ((4, 4, 4, 4), 40), ((12, 12, 12), 2)]
    wide = 0
    for (sizes, count), codomain in itertools.product(shapes, (3, 256)):
        for _ in range(count):
            n = len(sizes)
            used = [k for k in range(n) if rng.random() < 0.6]
            values = {}
            table = []
            for idx in range(math.prod(sizes)):
                point = point_at(sizes, idx)
                key = tuple(point[k] for k in used)
                table.append(values.setdefault(key, rng.randrange(codomain)))
            f = FiniteFn(sizes, codomain, tuple(table))
            ess = essential_by_points(sizes, f.table)
            assert ess <= {k + 1 for k in used}
            check_against_points(f)
            if sizes[0] == 12 and len(ess) >= 2:
                wide += 1
    # gap_bruteforce met the reference on 12-letter minors of three tables.
    assert wide == 3


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


def test_enumerate_all_functions_rejects_non_int_arguments():
    # Checked on the call, before any table is built; a bool is no int
    # here, so n=True does not pass for arity 1.
    for args in ((2, 2.0, 2), (2.0, 2, 2), (2, 2, 2.0), (True, 2, 2),
                 (2, True, 2), (2, 2, True), ("2", 2, 2), (2, 2, None)):
        with pytest.raises(ValueError, match="must be an int"):
            enumerate_all_functions(*args)


def test_enumerated_functions_are_what_validated_construction_gives():
    for n, a, b in ((0, 2, 2), (1, 2, 3), (2, 2, 2), (2, 3, 2), (3, 2, 2)):
        functions = enumerate_all_functions(n, a, b)
        assert isinstance(functions, types.GeneratorType)
        count = 0
        for f in functions:
            assert type(f.table) is bytes and type(f.sizes) is tuple
            checked = FiniteFn(f.sizes, f.codomain, f.table)
            assert f == checked and hash(f) == hash(checked)
            count += 1
        assert count == b ** (a ** n)


def test_sizes_are_stored_as_a_tuple():
    # A list of sizes is converted once, so the plan caches can key on it.
    f = FiniteFn([2, 2], 2, bytes(4))
    assert type(f.sizes) is tuple and f == FiniteFn((2, 2), 2, bytes(4))
    g = FiniteFn([2, 2], 2, XOR.table)
    assert gap_bruteforce(g) == gap_bruteforce(XOR)
    assert ess_bruteforce(g) == {1, 2}
    assert identify_table(g, 1, 2) == identify_table(XOR, 1, 2)
    assert FiniteFn(range(2, 4), 2, bytes(6)).sizes == (2, 3)


def test_enumeration_budget(monkeypatch):
    # the budget is read when the function is called
    monkeypatch.setattr(latgap.finfun, "DEFAULT_BUDGET", 1000)
    with pytest.raises(EnumerationBudgetError, match="exceed"):
        list(enumerate_all_functions(3, 3, 3))
    # a budget just large enough goes through
    monkeypatch.setattr(latgap.finfun, "DEFAULT_BUDGET", 4)
    assert sum(1 for _ in enumerate_all_functions(1, 2, 2)) == 4
    with pytest.raises(EnumerationBudgetError, match="exceed"):
        enumerate_all_functions(1, 2, 3)
    # the codomain bound is checked on the call, before anything is drawn
    with pytest.raises(ValueError, match="exceeds the bound of 256"):
        enumerate_all_functions(1, 2, 257)


def test_boolean_gap_codes_match_oracle_exhaustively():
    # The bit-sliced oracle against gap_bruteforce on every Boolean
    # function up to arity 4, in enumeration order; no gap reaches 3.
    for n in range(5):
        masks, codes = boolean_gap_codes(n)
        assert len(masks) == len(codes) == 1 << (1 << n)
        for f, mask, code in zip(enumerate_all_functions(n, 2, 2), masks, codes,
                                 strict=True):
            report = gap_bruteforce(f)
            assert mask == sum(1 << (k - 1) for k in report.essential), f.table
            assert code == (0 if report.gap is None else report.gap), f.table
        assert codes.count(3) == 0
    # Function F has table bits F read big-endian: 0001 is AND (gap 1),
    # 0010 and 0110 have gap 2, 0011 and 0101 one essential position.
    assert boolean_gap_codes(2) == (bytes([0, 3, 3, 2, 3, 1, 3, 3, 3, 3, 1, 3, 2, 3, 3, 0]),
                                    bytes([0, 1, 2, 0, 2, 0, 2, 1, 1, 2, 0, 2, 0, 2, 1, 0]))


def test_boolean_gap_codes_budget(monkeypatch):
    with pytest.raises(ValueError, match="nonnegative"):
        boolean_gap_codes(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        boolean_gap_codes(2.0)
    # Refused before any column is built: a 2**32-bit column alone would
    # take 512 MiB, and 2**(2**100) cannot be built at all.
    for n in (5, 100, 10 ** 9):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetError, match="exceed the budget"):
                boolean_gap_codes(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (n, peak)
    # The budget is read when called, and a budget of exactly 2**(2**n) holds.
    monkeypatch.setattr(latgap.finfun, "DEFAULT_BUDGET", 16)
    assert len(boolean_gap_codes(2)[0]) == 16
    monkeypatch.setattr(latgap.finfun, "DEFAULT_BUDGET", 15)
    with pytest.raises(EnumerationBudgetError):
        boolean_gap_codes(2)


def assert_lanes_match_oracle(sizes: tuple[int, ...], tables: list[bytes]) -> None:
    # table_gap_codes against gap_bruteforce, table by table.
    masks, codes = table_gap_codes(sizes, tables)
    width = max(1, -(-len(sizes) // 8))
    assert (len(masks), len(codes)) == (width * len(tables), len(tables))
    for f, table in enumerate(tables):
        report = gap_bruteforce(FiniteFn(sizes, 256, table))
        mask = int.from_bytes(masks[f * width:(f + 1) * width], "little")
        assert mask == sum(1 << (k - 1) for k in report.essential), (sizes, table)
        assert codes[f] == (0 if report.gap is None else min(report.gap, 3)), (sizes, table)


def test_table_gap_codes_match_the_oracle_on_monotone_maps():
    # Every map of the shapes the gap-theorem sweep runs, in its chunks.
    for name, arity in (("2x2", 3), ("2x3", 3), ("chain3", 4), ("2x2", 4)):
        lat = builtin_lattice(name)
        maps = list(enumerate_monotone_maps(arity, lat))
        for start in range(0, len(maps), 256):
            _, columns = value_columns(lat, arity, maps[start:start + 256])
            joined, count = b"".join(columns), len(columns[0])
            assert_lanes_match_oracle((lat.size,) * arity,
                                      [joined[f::count] for f in range(count)])


def test_table_gap_codes_match_the_oracle_on_seeded_tables():
    # Tables that are not monotone, over alphabets of 2 to 5 letters and
    # arities 0 to 4, each depending on a random set of positions with a
    # random density of changes, in chunks of 1 to 40 tables; a 9-ary
    # shape, whose masks take two bytes each; and every function
    # {0,1}^n -> 3 for n = 2, 3, as the pseudo-Boolean sweep reads them.
    rng = random.Random(2107)
    for a, n in itertools.product(range(2, 6), range(5)):
        sizes = (a,) * n
        for _ in range(3):
            tables = []
            for _ in range(rng.randrange(1, 41)):
                used = [k for k in range(n) if rng.random() < 0.7]
                codomain, density = rng.choice((2, 3, 256)), rng.random()
                values = {}
                table = []
                for idx in range(a ** n):
                    point = point_at(sizes, idx)
                    key = tuple(point[k] for k in used)
                    if key not in values:
                        values[key] = (rng.randrange(codomain) if rng.random() < density
                                       else 0)
                    table.append(values[key])
                tables.append(bytes(table))
            assert_lanes_match_oracle(sizes, tables)
    parity = bytes((p ^ p >> 8) & 1 for p in range(1 << 9))
    assert_lanes_match_oracle((2,) * 9, [parity, bytes(1 << 9), bytes(range(256)) * 2])
    assert table_gap_codes((2,) * 9, [parity]) == (bytes([1, 1]), bytes([2]))
    for n in (2, 3):
        assert_lanes_match_oracle((2,) * n, [f.table for f in enumerate_all_functions(n, 2, 3)])


def test_table_gap_codes_on_all_distinct_arguments():
    # For |A| >= n, the function that is 1 exactly when its n arguments
    # are pairwise distinct turns constant under every identification,
    # so its gap is n: code 3 from n = 3 on.
    for a, n in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3), (5, 5)):
        table = bytes(len(set(p)) == n for p in itertools.product(range(a), repeat=n))
        report = gap_bruteforce(FiniteFn((a,) * n, 2, table))
        assert (report.ess, report.gap) == (n, n)
        assert table_gap_codes((a,) * n, [table]) == (bytes([(1 << n) - 1]),
                                                       bytes([min(n, 3)]))


@st.composite
def wide_tables(draw) -> tuple[tuple[int, ...], bytes, bool]:
    """A table over |A| = 3..5 that reads more than |A| of its positions,
    with the flag of its parity part: the parity of the number of read
    positions at 0, plus sparse or dense random values, mod the
    codomain size, on a seeded sample of points."""
    a = draw(st.integers(3, 5))
    n = draw(st.integers(a + 1, {3: 7, 4: 6, 5: 6}[a]))
    read = sorted(draw(st.sets(st.integers(0, n - 1), min_size=a + 1)))
    parity = draw(st.booleans())
    count = draw(st.one_of(st.integers(0, 8), st.integers(0, a ** len(read))))
    codomain = draw(st.integers(2, 5))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    values = {tuple(rng.randrange(a) for _ in read): rng.randrange(1, codomain)
              for _ in range(count)}
    table = bytearray()
    for point in itertools.product(range(a), repeat=n):
        digits = tuple(point[n - 1 - k] for k in read)  # position 1 fastest
        table.append((parity * (digits.count(0) & 1) + values.get(digits, 0)) % codomain)
    return (a,) * n, bytes(table), parity and not values


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(wide_tables())
def test_more_essential_positions_than_letters_give_a_gap_of_at_most_two(shaped):
    # Couceiro and Lehtonen (IJFCS 2007): a function on a k-element set
    # with n > k essential variables has an identification minor with at
    # least n - 2 of them, so its gap is at most 2. Both oracles must
    # agree; the parity of the count of zeros alone loses the two
    # identified positions in every minor, so its gap is exactly 2.
    sizes, table, parity_only = shaped
    report = gap_bruteforce(FiniteFn(sizes, 256, table))
    assume(report.ess > sizes[0])
    assert report.gap <= 2 and (report.gap == 2 or not parity_only)
    masks, codes = table_gap_codes(sizes, [table])
    assert int.from_bytes(masks, "little") == sum(1 << (k - 1) for k in report.essential)
    assert codes == bytes([report.gap])


def test_table_gap_codes_errors(monkeypatch):
    assert table_gap_codes((3, 3), []) == (b"", b"")
    assert table_gap_codes((), [b"\x07", b"\x00"]) == (bytes(2), bytes(2))
    with pytest.raises(ValueError, match="share one alphabet size"):
        table_gap_codes((2, 3), [bytes(6)])
    with pytest.raises(ValueError, match="at least 2"):
        table_gap_codes((2, 1), [bytes(2)])
    with pytest.raises(ValueError, match="every table must have 4 entries"):
        table_gap_codes((2, 2), [bytes(4), bytes(3)])
    # The column entry point reads the same chunk, one column per point.
    assert lane_gap_codes((3, 3), [b""] * 9) == (b"", b"")
    # Table 0 is x1 or x2, table 1 constant.
    assert lane_gap_codes((2, 2), [b"\x00\x00", b"\x01\x00", b"\x01\x00", b"\x01\x00"]) == (
        bytes([3, 0]), bytes([1, 0]))
    for columns in ([bytes(2)] * 3, [bytes(2)] * 3 + [bytes(1)]):
        with pytest.raises(ValueError, match="^need 4 columns of one length$"):
            lane_gap_codes((2, 2), columns)
    with pytest.raises(ValueError, match="share one alphabet size"):
        lane_gap_codes((2, 3), [bytes(1)] * 6)
    monkeypatch.setattr(latgap.finfun, "DEFAULT_BUDGET", 15)
    with pytest.raises(EnumerationBudgetError, match="tables of 16 entries exceed"):
        table_gap_codes((2,) * 4, [])


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
    # 2^24 entries exceed the budget of 10^7, 2^23 do not
    with pytest.raises(ValueError, match="header arity=24 a_size=2 b_size=2 asks for more"):
        parse_finite_fn("24 2 2\n0 1")
    with pytest.raises(ValueError, match="expected 8388608 values"):
        parse_finite_fn("23 2 2\n0 1")
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
    with pytest.raises(ValueError, match="exceeds the bound of 256"):
        FiniteFn((2,), 257, (0, 1))
    with pytest.raises(ValueError, match="codomain"):
        FiniteFn((2,), 2, (0, 300))
    with pytest.raises(TypeError):
        FiniteFn((2, 2), 2, 4)
    assert FiniteFn((2,), 256, [0, 255]).table == bytes((0, 255))
    # read as ints, not as the raw memory of a buffer
    assert FiniteFn((2,), 3, array.array("i", (1, 2))).table == bytes((1, 2))



def test_monotone_maps_match_the_recursive_enumerator():
    # The same maps in the same order, wherever there are fewer than
    # 10^4 of them.
    compared = 0
    for spec in ("chain2", "chain3", "chain4", "2x2", "2x3", "cube3"):
        lat = builtin_lattice(spec)
        for n in range(5):
            expected = list(itertools.islice(monotone_maps_recursive(n, lat), 10_001))
            if len(expected) > 10_000:
                continue
            assert list(enumerate_monotone_maps(n, lat)) == expected, (spec, n)
            compared += 1
    assert compared == 26


def test_monotone_maps_refuse_arities_past_the_budget(monkeypatch):
    # Every arity j below n is built whole, so the call refuses one whose
    # tables could hold more than DEFAULT_BUDGET entries, judged as
    # |M(j - 1)|^2 * 2^j, before it is built. chain2/9 needs arity 6,
    # 7,581^2 * 64 entries, and 2x2/6 arity 5, 28,224^2 * 32; 2x2/5,
    # chain3/5 and 2x3/4 are drawn, in the reference order.
    for spec, n, j, count in (("chain2", 9, 6, 7581), ("2x2", 6, 5, 28224),
                              ("chain40", 5, 3, 235340)):
        with pytest.raises(EnumerationBudgetError) as info:
            enumerate_monotone_maps(n, builtin_lattice(spec))
        assert str(info.value) == (
            f"monotone maps of arity {n} need all those of arity {j}: up to {count}^2 "
            f"tables of 2^{j} entries, more than the budget of 10000000"), spec
    for spec, n in (("2x2", 5), ("chain3", 5), ("2x3", 4)):
        lat = builtin_lattice(spec)
        assert (list(itertools.islice(enumerate_monotone_maps(n, lat), 3000))
                == list(itertools.islice(monotone_maps_recursive(n, lat), 3000))), spec
    # chain2/4 builds arity 3 from the 6 tables of arity 2: 6^2 * 8 = 288.
    monkeypatch.setattr(latgap.finfun, "DEFAULT_BUDGET", 288)
    assert sum(1 for _ in enumerate_monotone_maps(4, chain(2))) == 168
    monkeypatch.setattr(latgap.finfun, "DEFAULT_BUDGET", 287)
    with pytest.raises(EnumerationBudgetError, match="arity 3: up to 6\\^2 tables of 2\\^3"):
        enumerate_monotone_maps(4, chain(2))


def test_monotone_maps_count_their_python_objects(monkeypatch):
    # The budget in entries passes chain55/3, 1,540^2 * 4 entries, but
    # its 819,280 tables of arity 2, their rank dicts and index lists
    # would take about 158 MB as Python objects (134 MB traced), more
    # than MONOTONE_BYTES: the call refuses them having built only
    # arity 1 and counted arity 2. On shapes it accepts, the traced peak
    # up to the first map stays within the estimate for each arity.
    estimates = []
    real = latgap.finfun._doubling_bytes
    monkeypatch.setattr(latgap.finfun, "_doubling_bytes", lambda *args: (
        estimates.append(real(*args)) or estimates[-1]))
    for spec, n in (("chain55", 3), ("chain30", 3), ("2x2", 5), ("chain3", 5), ("2x3", 4)):
        lat = builtin_lattice(spec)
        estimates.clear()
        tracemalloc.start()
        try:
            first = next(enumerate_monotone_maps(n, lat))
        except EnumerationBudgetError as refused:
            first, error = None, str(refused)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        if spec == "chain55":
            assert first is None and peak < 8 << 20, peak
            assert error == (
                f"monotone maps of arity 3 need all those of arity 2: 819280 tables of 2^2 "
                f"entries, about {real(2, 1540, 819280)} bytes as Python objects, more than "
                f"the budget of {64 << 20} bytes")
        else:
            assert first == (0,) * (1 << n) and peak <= max(estimates), (spec, peak)


def test_monotone_maps_refuse_before_building_the_arity_below():
    # chain40/5 would need arity 3 from the 235,340 tables of arity 2.
    # Their count is known once arity 1 is built, so the call refuses
    # without building arity 2 (35 MB traced when it did).
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetError) as info:
            enumerate_monotone_maps(5, chain(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(info.value) == (
        "monotone maps of arity 5 need all those of arity 3: up to 235340^2 tables of 2^3 "
        "entries, more than the budget of 10000000")
    assert peak < 5 << 20, peak


def test_minors_match_point_reference():
    # Every shape in both orders of (i, j), over alphabets whose fill
    # takes one to five shifts each way, the last one cut short or not.
    rng = random.Random(1324)
    shapes = [(2,) * 5, (3,) * 4, (4,) * 4, (8,) * 3, (16,) * 2, (16,) * 3,
              (17,) * 2, (17,) * 3, (3, 2, 3, 4), (2, 5, 5)]
    seen = set()
    for sizes in shapes:
        # Values 0 and 255 included, so a mask that leaks a byte shows.
        table = bytes([0, 255] + [rng.randrange(256) for _ in range(math.prod(sizes) - 2)])
        f = FiniteFn(sizes, 256, table)
        for i, j in itertools.permutations(range(1, len(sizes) + 1), 2):
            if sizes[i - 1] != sizes[j - 1]:
                continue
            seen.add((i < j, sizes[i - 1]))
            minor = identify_table(f, i, j)
            assert (minor.sizes, minor.codomain) == (sizes, 256)
            assert minor.table == bytes(identify_by_points(sizes, table, i, j)), (sizes, i, j)
    assert {a for _, a in seen} == {2, 3, 4, 5, 8, 16, 17}
    assert {before for before, _ in seen} == {True, False}
    # Above KEPT_PLAN_ENTRIES the plan and the diagonal are built afresh.
    sizes = (3,) + (2,) * 12 + (3,)
    assert math.prod(sizes) > latgap.finfun.KEPT_PLAN_ENTRIES
    table = bytes([0, 255] + [rng.randrange(256) for _ in range(math.prod(sizes) - 2)])
    for i, j in ((14, 1), (5, 9)):
        assert (identify_table(FiniteFn(sizes, 256, table), i, j).table
                == bytes(identify_by_points(sizes, table, i, j))), (i, j)


def test_plans_are_kept_for_small_tables_only():
    # A scan keeps its shape's plan, and a minor its diagonal, when the
    # table has at most KEPT_PLAN_ENTRIES entries; a larger table leaves
    # the kept plans and diagonals as they were.
    kept, diagonals = latgap.finfun._kept_plan, latgap.finfun._kept_diagonal
    kept.cache_clear()
    diagonals.cache_clear()
    n = 16
    assert 1 << n > latgap.finfun.KEPT_PLAN_ENTRIES
    # Depends on positions 1..4 (p mod 16, times 7, mod 5) and n.
    big = FiniteFn((2,) * n, 5, bytes(((p & 15) * 7 + (p >> (n - 1))) % 5
                                      for p in range(1 << n)))
    assert ess_bruteforce(big) == {1, 2, 3, 4, n}
    assert gap_bruteforce(big).essential == {1, 2, 3, 4, n}
    assert kept.cache_info().currsize == diagonals.cache_info().currsize == 0
    ess_bruteforce(FiniteFn((12,) * 3, 12, bytes(p % 12 for p in range(12 ** 3))))
    identify_table(FiniteFn((3,) * 3, 3, bytes(p % 3 for p in range(27))), 1, 2)
    assert kept.cache_info().currsize == 2
    assert diagonals.cache_info().currsize == 1
    # A lane plan holds about (n + 1)^2 indices per entry, and is kept
    # by that count: (2,)^12 and its minors' (2,)^11 are built afresh,
    # (4,)^4 and (4,)^3 are kept.
    lanes = latgap.finfun._kept_lane_plan
    lanes.cache_clear()
    parity = bytes(bin(p).count("1") & 1 for p in range(1 << 12))
    assert table_gap_codes((2,) * 12, [parity]) == (bytes([255, 15]), bytes([2]))
    assert lanes.cache_info().currsize == 0
    table_gap_codes((4,) * 4, [bytes(range(256))])
    assert lanes.cache_info().currsize == 2


def test_gap_search_memory_on_a_large_table():
    # Above KEPT_PLAN_ENTRIES a search reads its plan as it goes, one
    # not-last mask at a time, each as long as the table, beside the
    # table as an integer, one diagonal and the minor's intermediates.
    # Two 2^18-entry Boolean tables: a seeded one where every position
    # is essential and the first minor ends the search, and the parity
    # of positions 2..5, where all 12 minors are built on the smallest
    # strides. A search peaks at about 6.4 table lengths and a scan at
    # 5.3, where building all n masks at once took 24.5; 7 and 6 lengths
    # bound them. Nothing table-sized outlives the call: neither plan
    # nor diagonal is kept at this size.
    n = 18
    rng = random.Random(218)
    seeded = bytes(rng.getrandbits(1) for _ in range(1 << n))
    parity = bytes((p >> 1 ^ p >> 2 ^ p >> 3 ^ p >> 4) & 1 for p in range(1 << n))
    for table, ess, gap in ((seeded, n, 1), (parity, 4, 2)):
        f = FiniteFn((2,) * n, 2, table)
        found = {}
        for search, bound in ((gap_bruteforce, 7), (ess_bruteforce, 6)):
            tracemalloc.start()
            try:
                found[search] = search(f)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * len(table), (search, peak / len(table))
            assert current < len(table) // 16, current
        report = found[gap_bruteforce]
        assert (report.ess, report.gap) == (ess, gap)
        assert found[ess_bruteforce] == report.essential


def test_enumeration_budget_is_decided_symbolically():
    # A huge count is refused without being built or printed in full.
    # 3**(10**6) alone would take about 200 KiB.
    for n, a, b in ((14, 2, 2), (40, 2, 2), (9, 2, 3), (10 ** 6, 3, 2)):
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBudgetError) as info:
                enumerate_all_functions(n, a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (n, a, b, peak)
        assert str(info.value) == (f"{b}**({a}**{n}) functions exceed the budget "
                                   f"of {latgap.finfun.DEFAULT_BUDGET}")
