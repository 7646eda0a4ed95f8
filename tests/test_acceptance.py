"""Acceptance sweeps: every closed-form claim against brute force.

Each criterion is one test, so a verbose run shows one pass/fail line
per criterion. Sweeps shared between criteria run once and are cached.
All gap checks pit the structural classifiers against gap_bruteforce,
which knows nothing beyond raw value tables.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from functools import lru_cache
from types import SimpleNamespace

import pytest

from latgap import (EnumerationBudgetError, PolyFn, builtin_lattice, canonicalize, chain,
                    enumerate_all_functions, enumerate_monotone_maps, ess_bruteforce,
                    gap_bruteforce, product, salomaa_function, value_table)
from latgap.finfun import lane_gap_codes
from latgap.sweep import sweep_boolean, sweep_gap_theorem, sweep_pseudo_boolean
from helpers import (eval_dnf, eval_term, leq, monotone_maps_recursive,
                     patch_batch_classifier, random_term, restrict_to_01)

LATTICES = ("chain2", "chain3", "chain4", "2x2", "2x3")


@lru_cache(maxsize=None)
def boolean_sweep():
    return {n: sweep_boolean(n) for n in (2, 3, 4)}


@lru_cache(maxsize=None)
def pseudo_sweep():
    return {n: sweep_pseudo_boolean(n, 3) for n in (2, 3)}


@lru_cache(maxsize=None)
def lattice_sweep():
    return {name: [sweep_gap_theorem(name, builtin_lattice(name), n) for n in (2, 3)]
            for name in LATTICES}


def max_gap(report) -> int:
    return max((g for g, count in report.gap_counts.items() if count), default=0)


@lru_cache(maxsize=None)
def dnf_reconstruction():
    start = time.perf_counter()
    rng = random.Random(20260816)
    failures = terms = 0
    for lat in (chain(4), product(chain(2), chain(2))):
        points = list(itertools.product(lat.elements, repeat=3))
        for _ in range(1000):
            term = random_term(rng, 3, 6, lat)
            terms += 1
            f = canonicalize(term)
            if any(eval_term(term, p) != eval_dnf(f, p) for p in points):
                failures += 1
    return {"terms": terms, "failures": failures,
            "elapsed": time.perf_counter() - start}


def test_criterion_1_boolean_sweep_matches_oracle():
    results = boolean_sweep()
    for n, r in results.items():
        assert r.scanned == 1 << (1 << n)
        assert r.analyzed == r.scanned - 2 - 2 * n
        assert r.ok, f"n={n}: counterexample {r.counterexample}"
    assert results[4].elapsed < 60
    print("PASS criterion 1: boolean sweep n=2,3,4 "
          f"({sum(r.analyzed for r in results.values())} functions, "
          f"0 disagreements, n=4 in {results[4].elapsed:.1f}s)")


def boolean_gap_two_count(n: int) -> int:
    """Members of Salomaa's four gap-2 families at arity n: sum forms on
    at least 2 of the n variables, x1x2 + x1 on an ordered pair, and the
    two 3-variable forms (x1x2 + x1x3 + x2x3 once, its fourth-form
    variant three times), each with parity constant 0 or 1."""
    return 2 * (2 ** n - n - 1) + 2 * n * (n - 1) + 8 * math.comb(n, 3)


def test_criterion_1_gap_two_count_predicted():
    results = boolean_sweep()
    assert [boolean_gap_two_count(n) for n in results] == [6, 28, 78]
    for n, r in results.items():
        assert r.gap_counts[2] == boolean_gap_two_count(n), n
    print("PASS criterion 1 (predicted): gap-2 counts 6, 28, 78 match "
          "Salomaa's families")


def test_criterion_2_pseudo_boolean_sweep_matches_oracle():
    results = pseudo_sweep()
    assert results[2].scanned == 81
    assert results[3].scanned == 6561
    # Every function with at least 2 essential variables, reduced to
    # those: at n=3, 6540 = 6342 all-essential + C(3,2) * 66 with
    # exactly two essential variables.
    assert results[2].analyzed == 66
    assert results[3].analyzed == 6540
    for n, r in results.items():
        assert r.ok, f"n={n}: counterexample {r.counterexample}"
    total_time = sum(r.elapsed for r in results.values())
    assert total_time < 10
    print("PASS criterion 2: pseudo-boolean sweep n=2,3 into 3 values "
          f"(6606 functions with >= 2 essential variables, 0 disagreements, "
          f"{total_time:.1f}s)")


def test_pseudo_boolean_sweep_scans_each_function_once(monkeypatch):
    # The byte-lane oracle reads each table once, in enumeration order,
    # and an agreeing sweep replays none through the per-function scans,
    # which all run through finfun._essential.
    import latgap.finfun as finfun
    import latgap.sweep as sweep
    calls, tables = [], []
    scan, lanes = finfun._essential, sweep.table_gap_codes
    monkeypatch.setattr(finfun, "_essential",
                        lambda t, plan: calls.append(t) or scan(t, plan))
    monkeypatch.setattr(sweep, "table_gap_codes",
                        lambda sizes, chunk: tables.extend(chunk) or lanes(sizes, chunk))
    report = sweep_pseudo_boolean(3, 3)
    assert report.ok and report.analyzed == 6540
    assert calls == []
    assert tables == [f.table for f in enumerate_all_functions(3, 2, 3)]


def test_gap_theorem_sweep_scans_each_map_once(monkeypatch):
    # The batch classifier reads each map once, in its chunk's
    # coefficient columns. Agreeing chunks, here all nine, build no
    # PolyFn, run no per-function classifier and scan no map alone.
    import latgap.classify as classify
    import latgap.polyfn as polyfn
    import latgap.sweep as sweep
    calls = dict.fromkeys(("classify_polynomial_gap", "_proven_polyfn", "_jump_positions",
                           "reduce_to_essential", "__post_init__"), 0)
    for name in calls:
        owner = PolyFn if name == "__post_init__" else polyfn
        real = getattr(owner, name, None) or getattr(classify, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        for module in ((owner,) if owner is PolyFn else (polyfn, classify, sweep)):
            monkeypatch.setattr(module, name, counted, raising=False)
    maps = []
    batch = sweep.polynomial_gap_codes
    monkeypatch.setattr(sweep, "polynomial_gap_codes", lambda n, columns: (
        maps.append(len(columns[0])) or batch(n, columns)))
    report = sweep_gap_theorem("2x2", builtin_lattice("2x2"), 3)
    assert report.ok and report.scanned == sum(maps) == 400 and len(maps) == 9
    assert calls == dict.fromkeys(calls, 0)


def test_criterion_3_lattice_sweep_matches_oracle():
    results = lattice_sweep()
    assert set(results) == set(LATTICES)
    for name, reports in results.items():
        assert sum(r.scanned for r in reports) > 0
        for r in reports:
            assert r.ok, f"{name}: counterexample {r.counterexample}"
        elapsed = sum(r.elapsed for r in reports)
        assert elapsed < 60, f"{name}: {elapsed:.1f}s"
    total = sum(r.analyzed for reports in results.values() for r in reports)
    slowest = max(sum(r.elapsed for r in reports) for reports in results.values())
    print("PASS criterion 3: lattice sweep over 5 lattices, n=2,3 "
          f"({total} functions, 0 disagreements, slowest lattice {slowest:.1f}s)")


def test_criterion_3_arity_four_sweeps_pinned():
    # Arity 4 reaches functions with four essential variables. The gap-2
    # counts are the strict pairs low < high times C(4,3) placements:
    # one pair on chain2, three on chain3.
    expected = {"chain2": (168, 162, {1: 158, 2: 4}),
                "chain3": (7581, 7566, {1: 7554, 2: 12})}
    for name, (scanned, analyzed, gaps) in expected.items():
        r = sweep_gap_theorem(name, builtin_lattice(name), 4)
        assert r.ok, f"{name}: counterexample {r.counterexample}"
        assert (r.scanned, r.analyzed, r.gap_counts) == (scanned, analyzed, gaps)
        assert r.elapsed < 60, f"{name}: {r.elapsed:.1f}s"
    print("PASS criterion 3 (arity 4): chain2 and chain3 sweeps match the "
          "oracle with pinned counts")


def test_criterion_3_counts_predicted():
    # With s strict pairs a < b in L, the maps with fewer than two
    # essential variables are the |L| constants and, per position, the
    # s maps x -> a or (x and b); the gap-2 maps are the s truncated
    # medians on each of the C(n, 3) position triples.
    reports = [r for rs in lattice_sweep().values() for r in rs]
    reports += [sweep_gap_theorem(name, builtin_lattice(name), 4)
                for name in ("chain2", "chain3")]
    for r in reports:
        lat = builtin_lattice(r.params["lattice"])
        s = sum(leq(lat, a, b) for a in lat.elements for b in lat.elements if a != b)
        n = r.params["arity"]
        assert r.ok
        assert r.scanned - r.analyzed == lat.size + s * n, r.params
        assert r.gap_counts[2] == s * math.comb(n, 3), r.params
    print(f"PASS criterion 3 (predicted): skipped and gap-2 counts on "
          f"{len(reports)} sweeps match |L| + s*n and s*C(n,3)")


@pytest.mark.full_sweep
@pytest.mark.parametrize("name, arity, maps, skipped, gap_two",
                         [("chain3", 5, 7_828_354, 18, 30), ("2x3", 4, 1_273_608, 54, 48)])
def test_criterion_3_full_sweeps(name, arity, maps, skipped, gap_two):
    # Opt-in, with `-m full_sweep`: every monotone map of two shapes too
    # large for the default run, with the counts predicted as above.
    lat = builtin_lattice(name)
    s = sum(leq(lat, a, b) for a in lat.elements for b in lat.elements if a != b)
    r = sweep_gap_theorem(name, lat, arity)
    assert r.ok, f"{name}: counterexample {r.counterexample}"
    assert r.scanned == maps
    assert r.scanned - r.analyzed == skipped == lat.size + s * arity
    assert r.gap_counts[2] == gap_two == s * math.comb(arity, 3)


def test_criterion_4_essentiality_criteria_agree():
    # The gap-theorem check compares all three criteria on every map,
    # including those with fewer than 2 essential variables.
    results = lattice_sweep()
    for name, reports in results.items():
        for r in reports:
            assert r.ok, f"{name}: essentiality criteria differ: {r.counterexample}"
    total = sum(r.scanned for reports in results.values() for r in reports)
    print("PASS criterion 4: coefficient, full-domain, and 0/1-point "
          f"essentiality agree on all {total} swept functions")


def test_criterion_5_dnf_reconstruction_identity():
    r = dnf_reconstruction()
    assert r["terms"] == 2000
    assert r["failures"] == 0
    assert r["elapsed"] < 10
    print("PASS criterion 5: canonical DNF reproduces 2000 random terms "
          f"at every point of L^3 ({r['elapsed']:.1f}s)")


def test_criterion_6_salomaa_gap_equals_alphabet():
    start = time.perf_counter()
    for k in (3, 4):
        assert gap_bruteforce(salomaa_function(k)).gap == k
    elapsed = time.perf_counter() - start
    assert elapsed < 5
    print(f"PASS criterion 6: salomaa functions have gap k for k=3,4 ({elapsed:.1f}s)")


def test_criterion_7_gap_bounds():
    for n, r in boolean_sweep().items():
        assert max_gap(r) <= 2, f"boolean n={n}: gap above alphabet size"
    for n, r in pseudo_sweep().items():
        assert max_gap(r) <= 2, f"pseudo n={n}: gap above alphabet size"
    for name, reports in lattice_sweep().items():
        for r in reports:
            assert max_gap(r) <= r.params["size"], f"{name}: gap above lattice size"
    for k in (3, 4):
        assert gap_bruteforce(salomaa_function(k)).gap <= k
    print("PASS criterion 7: every swept gap within the alphabet-size bound, "
          "and within 2 beyond 2 essential variables")


def test_criterion_8_monotone_enumerator_counts():
    c2 = chain(2)
    assert sum(1 for _ in enumerate_monotone_maps(2, c2)) == 6
    assert sum(1 for _ in enumerate_monotone_maps(3, c2)) == 20
    print("PASS criterion 8: monotone map counts 6 (n=2) and 20 (n=3) "
          "over the 2-chain")


def _capture_lanes(monkeypatch, tables: list) -> list:
    """Make the sweep's lane_gap_codes append the (sizes, table) pairs
    of the value tables it reads to `tables`; returns the list of chunk
    sizes. Per chunk the sweep calls it twice: on the value columns,
    then on the coefficient columns, the 0/1 restrictions."""
    import latgap.sweep as sweep
    chunks = []
    calls = itertools.count()

    def lanes(sizes, columns):
        if next(calls) % 2 == 0:
            count = len(columns[0])
            joined = b"".join(columns)
            chunks.append(count)
            tables.extend((sizes, joined[f::count]) for f in range(count))
        return lane_gap_codes(sizes, columns)

    monkeypatch.setattr(sweep, "lane_gap_codes", lanes)
    return chunks


def _sweep_tables(monkeypatch, name: str, arity: int):
    """The report and the (sizes, table) pairs the byte-lane oracle
    read, one per map."""
    tables = []
    _capture_lanes(monkeypatch, tables)
    report = sweep_gap_theorem(name, builtin_lattice(name), arity)
    monkeypatch.undo()
    return report, tables


def test_gap_theorem_sweep_tables_match_value_table(monkeypatch):
    # Each chunk's value columns come from value_table's passes run on
    # the columns; the table they hold for each map must be
    # value_table's, map for map. chain17 takes _extend_table's branch
    # for more than 16 elements.
    for name, arity in (("2x2", 0), ("2x2", 1), ("2x2", 3), ("chain3", 4), ("chain17", 2)):
        lat = builtin_lattice(name)
        report, tables = _sweep_tables(monkeypatch, name, arity)
        maps = list(enumerate_monotone_maps(arity, lat))
        assert report.ok and len(tables) == len(maps) == report.scanned
        for coeffs, (sizes, table) in zip(maps, tables):
            expected = value_table(PolyFn(lat, arity, coeffs))
            assert (sizes, table) == (expected.sizes, expected.table), (name, coeffs)


def test_gap_theorem_sweep_chunks_do_not_change_reports(monkeypatch):
    # Chunks grow 1, 2, 4, ... maps up to a cap that CHUNK_BYTES sets.
    # 2x2/3 has 64-point tables and 8 coefficients: a byte budget of
    # 50 * 64 + 300 * 8 + 7 * (4 * 64 + 12 * 8 + 64) caps chunks at 7
    # maps, and one of 64 at one map. The reports match the default cap
    # of 1024, with the right classifier and with one that calls every
    # gap 1, in both its batch and its per-function form, which the
    # first truncated median, map 45, contradicts.
    import latgap.sweep as sweep
    from latgap.classify import Gap1, classify_polynomial_gap

    def gap_one(f):
        verdict = classify_polynomial_gap(f)
        return verdict if verdict.gap is None else Gap1(verdict.essential)

    for wrong, scanned in ((False, 400), (True, 45)):
        reports = []
        for budget, size in ((sweep.CHUNK_BYTES, 1024), (5600 + 7 * 416, 7), (64, 1)):
            monkeypatch.setattr(sweep, "CHUNK_BYTES", budget)
            if wrong:
                monkeypatch.setattr(sweep, "classify_polynomial_gap", gap_one)
                seen = patch_batch_classifier(monkeypatch, lambda s, mask, code: (
                    mask, min(code, 1)))
            tables = []
            chunks = _capture_lanes(monkeypatch, tables)
            reports.append(sweep_gap_theorem("2x2", builtin_lattice("2x2"), 3).to_json())
            monkeypatch.undo()
            # Every chunk but the last is twice the one before it, up to
            # the cap, and a sweep that stops at map s built fewer than
            # 2s maps.
            ramp = [min(1 << k, size) for k in range(len(chunks))]
            assert chunks[:-1] == ramp[:-1] and 0 < chunks[-1] <= ramp[-1]
            assert scanned <= len(tables) < 2 * scanned
            assert not wrong or seen == chunks
        assert reports[0] == reports[1] == reports[2]
        assert reports[0]["monotone_maps"] == scanned
        assert reports[0]["ok"] is not wrong


def _chunk_peak(lat, arity: int, m: int) -> int:
    """Peak traced bytes of one gap-theorem chunk of m maps, made as the
    sweep makes it: drawn, built in columns and run through the three
    batch calls. The maps come from the reference enumerator, which
    streams shapes whose lower arities enumerate_monotone_maps refuses
    to build."""
    import tracemalloc
    from latgap.classify import polynomial_gap_codes
    from latgap.polyfn import value_columns
    tracemalloc.start()
    try:
        maps = list(itertools.islice(monotone_maps_recursive(arity, lat), m))
        _, coefficients, values = value_columns(lat, arity, maps)
        lane_gap_codes((lat.size,) * arity, values)
        lane_gap_codes((2,) * arity, coefficients)
        codes = polynomial_gap_codes(arity, coefficients)[1]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(codes) == m
    return peak


def test_gap_theorem_sweep_chunks_fit_their_byte_budget(monkeypatch):
    # Under a byte budget a sweep's chunks grow to the most maps the
    # rule (4E + 12 * 2^n + 64) * m + 50E + 300 * 2^n allows, and one
    # chunk of that many maps, from drawing them to its batch answers,
    # peaks within the rule and above half of it. Under 1 MiB, chain2/9
    # has as many coefficients as points and 2x2/6 64 times fewer; under
    # the default budget, 2x2/4 chunks reach CHUNK_MAPS = 1024 maps. The
    # maps come from the reference enumerator, in the same order; the
    # batch classifier is wrong on map 2 * most, which stops the sweep.
    import latgap.sweep as sweep
    from latgap.polyfn import value_columns
    for name, arity, budget, most in (("chain2", 9, 1 << 20, 105), ("2x2", 6, 1 << 20, 47),
                                      ("2x2", 4, sweep.CHUNK_BYTES, 1024)):
        lat = builtin_lattice(name)
        points, subsets = lat.size ** arity, 1 << arity
        rule = (4 * points + 12 * subsets + 64) * most + 50 * points + 300 * subsets
        assert rule <= budget
        monkeypatch.setattr(sweep, "CHUNK_BYTES", budget)
        monkeypatch.setattr(sweep, "enumerate_monotone_maps", monotone_maps_recursive)
        chunks = []
        monkeypatch.setattr(sweep, "value_columns", lambda lat, n, maps: (
            chunks.append(len(maps)) or value_columns(lat, n, maps)))
        patch_batch_classifier(monkeypatch, lambda s, mask, code, _last=2 * most - 1: (
            (mask, code) if s < _last else (0, 1)))
        assert sweep_gap_theorem(name, lat, arity).scanned == 2 * most
        assert max(chunks) == most
        monkeypatch.undo()
        peak = _chunk_peak(lat, arity, most)
        assert rule // 2 < peak <= rule, (name, arity, peak)


def _out_of_range(essential: tuple) -> tuple:
    return (*essential, 99)


def _unsorted(essential: tuple) -> tuple:
    return (*essential[1:], essential[0])


def _wrong_on(monkeypatch, name: str, table, wrong=_out_of_range) -> None:
    """Patch the sweep's classifier `name` to be wrong on the one
    function whose table is `table`: its essential positions go through
    `wrong`, by default adding a position no function has."""
    import latgap.sweep as sweep
    real = getattr(sweep, name)

    def classifier(f):
        verdict = real(f)
        if f.table != table:
            return verdict
        return SimpleNamespace(gap=verdict.gap, essential=wrong(verdict.essential))

    monkeypatch.setattr(sweep, name, classifier)


def _reference(functions, s: int, oracle) -> tuple[int, dict[int, int]]:
    """analyzed and gap_counts of a plain per-function loop that stops
    at function s, with the oracle giving each function's gap: the
    s + 1 functions read less those skipped, and the gaps before s."""
    gap_counts = {None: 0, 1: 0, 2: 0}
    for f in itertools.islice(functions, s):
        gap_counts[oracle(f)] += 1
    return s + 1 - gap_counts.pop(None), gap_counts


def test_sweeps_stop_at_a_disagreement_on_any_chunk_boundary(monkeypatch):
    # Chunks run 1, 2, 4, ..., 512 functions, then 1,024 at a time:
    # chain3/4 has 7,581 maps, chunks starting at maps 1,023 and 2,047.
    # A classifier wrong on exactly function s, at the first or last
    # function of a chunk or in the middle of a full one, stops each
    # sweep there with the counts of the functions before it, which its
    # chunk's other answers must not change. The right positions out of
    # order are wrong too; as a set they match the replay, so that
    # counterexample also names the batch answers. On the gap-theorem
    # sweep the batch classifier is wrong on map s as well, with a gap
    # code of 3, which it never writes.
    chain3 = builtin_lattice("chain3")
    maps = list(enumerate_monotone_maps(4, chain3))
    for s, wrong in ((1023, _out_of_range), (2046, _out_of_range), (2559, _out_of_range),
                     (1535, _unsorted)):
        f = PolyFn(chain3, 4, maps[s])
        oracle = gap_bruteforce(value_table(f))
        essential = sorted(oracle.essential)
        assert len(essential) >= 2
        _wrong_on(monkeypatch, "classify_polynomial_gap", maps[s], wrong)
        patch_batch_classifier(monkeypatch, lambda t, mask, code, _s=s: (
            mask, 3 if t == _s else code))
        report = sweep_gap_theorem("chain3", chain3, 4)
        monkeypatch.undo()
        assert report.to_json()["monotone_maps"] == s + 1
        assert (report.analyzed, report.gap_counts) == _reference(
            (PolyFn(chain3, 4, coeffs) for coeffs in maps), s,
            lambda g: gap_bruteforce(value_table(g)).gap), s
        expected = {
            "coefficients": [nm for _, nm in f.dump()], "classifier_gap": oracle.gap,
            "oracle_gap": oracle.gap, "essential": list(wrong(tuple(essential))),
            "oracle_essential": essential,
            "restricted_essential": sorted(ess_bruteforce(restrict_to_01(f)))}
        if wrong is _unsorted:
            expected.update(batch_gap=oracle.gap, batch_essential=essential,
                            batch_restricted_essential=essential)
        assert report.counterexample == expected, s
    for run, arity, codomain, s, render in (
            (lambda: sweep_boolean(4), 4, 2, 65535, lambda t: "".join(map(str, t))),
            (lambda: sweep_pseudo_boolean(3, 3), 3, 3, 2047, list)):
        f = next(itertools.islice(enumerate_all_functions(arity, 2, codomain), s, None))
        name = "classify_boolean_gap" if codomain == 2 else "classify_pseudo_boolean_gap"
        _wrong_on(monkeypatch, name, f.table)
        report = run()
        monkeypatch.undo()
        oracle = gap_bruteforce(f)
        assert report.scanned == s + 1
        assert (report.analyzed, report.gap_counts) == _reference(
            enumerate_all_functions(arity, 2, codomain), s, lambda g: gap_bruteforce(g).gap)
        assert report.counterexample == {
            "table": render(f.table), "classifier_gap": oracle.gap, "oracle_gap": oracle.gap,
            "essential": [*sorted(oracle.essential), 99],
            "oracle_essential": sorted(oracle.essential)}


def test_gap_theorem_sweep_reads_two_byte_masks(monkeypatch):
    # At arity 9 a batch mask takes two bytes. Of the first 300 maps of
    # chain2/9, 245 have all 9 positions essential; the first 299 agree
    # through the lanes, and a classifier that drops the last position
    # from map 300 on, in its batch and its per-function form, stops the
    # sweep there, in the chunk of maps 256 to 511: chunks of 1, 2, 4,
    # ..., 256 maps built 511 maps in all. The maps come from the
    # reference enumerator, in the same order.
    import latgap.sweep as sweep
    from latgap.classify import Gap1, classify_polynomial_gap
    later = set(itertools.islice(monotone_maps_recursive(9, builtin_lattice("chain2")), 299, 511))

    def wrong_from_300(f):
        verdict = classify_polynomial_gap(f)
        return verdict if f.table not in later else Gap1(verdict.essential[:-1])

    monkeypatch.setattr(sweep, "classify_polynomial_gap", wrong_from_300)
    monkeypatch.setattr(sweep, "enumerate_monotone_maps", monotone_maps_recursive)
    patch_batch_classifier(monkeypatch, lambda s, mask, code: (
        (mask, code) if s < 299 else (mask & ~(1 << mask.bit_length() - 1), 1)))
    chunks = _capture_lanes(monkeypatch, [])
    report = sweep_gap_theorem("chain2", builtin_lattice("chain2"), 9)
    assert (report.scanned, report.analyzed, report.gap_counts) == (300, 299, {1: 298, 2: 0})
    assert chunks == [1, 2, 4, 8, 16, 32, 64, 128, 256]
    found = report.counterexample
    assert found["oracle_essential"] == found["restricted_essential"] == list(range(1, 10))
    assert (found["essential"], "batch_gap" in found) == (list(range(1, 9)), False)


def test_gap_theorem_sweep_checks_the_full_table_budget(monkeypatch):
    # value_columns checks the budget of the full table before it reads
    # a map, though the chunk's coefficients are far smaller: a 2x2/3 map
    # has 8 coefficients and a 64-entry table.
    import latgap.polyfn as polyfn
    monkeypatch.setattr(polyfn, "DEFAULT_BUDGET", 63)

    class Unread(list):
        def __iter__(self):
            raise AssertionError("a map was read")

        def __len__(self):
            raise AssertionError("a map was read")

    for run in (lambda: polyfn.value_columns(builtin_lattice("2x2"), 3, Unread()),
                lambda: sweep_gap_theorem("2x2", builtin_lattice("2x2"), 3)):
        with pytest.raises(EnumerationBudgetError,
                           match=r"^a value table of 4\^3 entries exceeds the budget of 63$"):
            run()


def test_gap_theorem_sweep_keeps_no_state_between_runs(monkeypatch):
    # Two sweeps in one process do the same work: nothing a sweep builds
    # outlives it.
    import latgap.sweep as sweep
    runs = []
    for _ in range(2):
        calls = {"value_table": 0, "lane_gap_codes": 0, "polynomial_gap_codes": 0,
                 "gap_bruteforce": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(sweep, name), _calls=calls):
                _calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(sweep, name, counted)
        report = sweep_gap_theorem("2x2", builtin_lattice("2x2"), 3)
        monkeypatch.undo()
        runs.append((report.to_json(), calls))
    assert runs[0] == runs[1]
    # The 400 maps make nine chunks, of 1, 2, 4, ..., 128 and 145, each
    # with one lane call on the value columns, one on the coefficient
    # columns and one batch classifier call; no map disagrees, so none
    # gets a value_table or a search of its own.
    assert runs[0][1] == {"value_table": 0, "lane_gap_codes": 18,
                          "polynomial_gap_codes": 9, "gap_bruteforce": 0}
