"""Acceptance sweeps: every closed-form claim against brute force.

Each criterion is one test, so a verbose run shows one pass/fail line
per criterion. Sweeps shared between criteria run once and are cached.
All gap checks pit the structural classifiers against gap_bruteforce,
which knows nothing beyond raw value tables.
"""

from __future__ import annotations

import itertools
import random
import time
from functools import lru_cache

from latgap import (builtin_lattice, canonicalize, chain, enumerate_monotone_maps,
                    eval_dnf, eval_term, gap_bruteforce, product,
                    salomaa_function)
from latgap.sweep import sweep_boolean, sweep_gap_theorem, sweep_pseudo_boolean
from helpers import random_term

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
    # The classifier's reduction reuses the essential positions the
    # oracle found: one scan per function (6561) plus one per minor the
    # oracle builds (8244), and no rescan of the 6540 analysed ones.
    import latgap.finfun as finfun
    calls = []
    scan = finfun.ess_bruteforce
    monkeypatch.setattr(finfun, "ess_bruteforce", lambda f: calls.append(f) or scan(f))
    report = sweep_pseudo_boolean(3, 3)
    assert report.ok and report.analyzed == 6540
    assert len(calls) == 14805


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
