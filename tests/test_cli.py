from __future__ import annotations

import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from latgap import (GapReport, LatticeError, builtin_lattice, chain, ess_bruteforce,
                    enumerate_all_functions, gap_bruteforce)
from latgap.classify import (Gap1, GapUndefined, classify_boolean_gap,
                             classify_polynomial_gap)
from latgap.cli import load_lattice, main
from helpers import M3_COVERS, M3_NAMES, monotone_tables_by_filter

MEDIAN = "(x1 & x2) | (x2 & x3) | (x3 & x1)"

DIAMOND = """\
# a four-element diamond
elements: 0 x y 1
0 < x
0 < y
x < 1
y < 1
"""


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv + ["--json"])
    return rc, json.loads(out), err


def test_lattice_check_valid(tmp_path, capsys):
    path = tmp_path / "diamond.lat"
    path.write_text(DIAMOND)
    rc, out, _ = run(capsys, ["lattice-check", str(path)])
    assert rc == 0
    assert out.strip() == "valid, |L|=4, bottom=0, top=1"
    rc, payload, _ = run_json(capsys, ["lattice-check", str(path)])
    assert rc == 0
    assert payload == {"valid": True, "size": 4, "bottom": "0", "top": "1"}


def test_lattice_check_rejects_m3(tmp_path, capsys):
    lines = ["elements: " + " ".join(M3_NAMES)]
    lines += [f"{a} < {b}" for a, b in M3_COVERS]
    path = tmp_path / "m3.lat"
    path.write_text("\n".join(lines) + "\n")
    rc, out, _ = run(capsys, ["lattice-check", str(path)])
    assert rc == 1
    assert out.startswith("invalid: not distributive")
    assert "witness" in out


def test_lattice_check_rejects_cycle(tmp_path, capsys):
    path = tmp_path / "cycle.lat"
    path.write_text("elements: a b\na < b\nb < a\n")
    rc, out, _ = run(capsys, ["lattice-check", str(path)])
    assert rc == 1
    assert out.startswith("invalid:")


def test_lattice_check_missing_file(capsys):
    rc, out, _ = run(capsys, ["lattice-check", "/nonexistent/l.lat"])
    assert rc == 1
    assert out.startswith("invalid:")


def test_load_lattice_builtins(tmp_path):
    assert load_lattice("chain4").size == 4
    assert load_lattice("cube3").size == 8
    assert load_lattice("2x3").size == 6
    path = tmp_path / "d.lat"
    path.write_text(DIAMOND)
    assert load_lattice(str(path)).names == ("0", "x", "y", "1")


def test_oversized_builtin_lattice_is_rejected(capsys):
    for spec in ("cube5000000", "chain1000000"):
        with pytest.raises(LatticeError, match="more than"):
            builtin_lattice(spec)
        rc, out, err = run(capsys, ["analyze", "--lattice", spec,
                                    "--arity", "2", "--expr", "x1"])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_analyze_median(capsys):
    rc, out, _ = run(capsys, ["analyze", "--lattice", "chain3",
                              "--arity", "3", "--expr", MEDIAN])
    assert rc == 0
    assert "dnf: (x1 & x2) | (x1 & x3) | (x2 & x3)" in out
    assert "essential: [1, 2, 3]" in out
    assert "gap: 2" in out
    assert "truncated-median(low=0, high=1)" in out


def test_analyze_json_matches_text(capsys):
    argv = ["analyze", "--lattice", "chain3", "--arity", "3",
            "--expr", MEDIAN, "--verify"]
    rc, payload, _ = run_json(capsys, argv)
    assert rc == 0
    assert payload["dnf"] == "(x1 & x2) | (x1 & x3) | (x2 & x3)"
    assert payload["essential"] == [1, 2, 3]
    assert payload["ess"] == 3
    assert payload["gap"] == 2
    assert payload["classification"] == {"tag": "truncated-median", "gap": 2,
                                         "low": "0", "high": "1"}
    assert payload["oracle"] == {"essential": [1, 2, 3], "gap": 2}
    assert payload["agreement"] is True
    assert payload["lattice"] == {"elements": ["0", "a", "1"],
                                  "bottom": "0", "top": "1"}
    assert [c["value"] for c in payload["coefficients"]] == \
        ["0", "0", "0", "1", "0", "1", "1", "1"]


def test_analyze_truncated_median_verified(capsys):
    expr = f"(a | ({MEDIAN})) & b"
    rc, payload, _ = run_json(capsys, ["analyze", "--lattice", "chain4",
                                       "--arity", "3", "--expr", expr,
                                       "--verify"])
    assert rc == 0
    assert payload["classification"] == {"tag": "truncated-median", "gap": 2,
                                         "low": "a", "high": "b"}
    assert payload["agreement"] is True


def test_analyze_gap_one(capsys):
    rc, payload, _ = run_json(capsys, ["analyze", "--lattice", "chain2",
                                       "--arity", "2", "--expr", "x1 & x2",
                                       "--verify"])
    assert rc == 0
    assert payload["gap"] == 1
    assert payload["classification"] == {"tag": "gap1", "gap": 1}


def test_analyze_constant_gap_undefined(capsys):
    rc, out, _ = run(capsys, ["analyze", "--lattice", "chain3",
                              "--arity", "2", "--expr", "a"])
    assert rc == 0
    assert "gap: undefined" in out
    assert "classification: undefined (fewer than 2 essential variables)" in out
    rc, payload, _ = run_json(capsys, ["analyze", "--lattice", "chain3",
                                       "--arity", "2", "--expr", "a"])
    assert rc == 0
    assert payload["gap"] is None
    assert payload["classification"] is None


def test_analyze_product_lattice(capsys):
    rc, payload, _ = run_json(capsys, ["analyze", "--lattice", "2x3",
                                       "--arity", "2", "--expr", "x1 | x2",
                                       "--verify"])
    assert rc == 0
    assert payload["gap"] == 1
    assert payload["agreement"] is True


def test_analyze_bad_expression(capsys):
    rc, out, err = run(capsys, ["analyze", "--lattice", "chain2",
                                "--arity", "2", "--expr", "x1 &"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "position" in err


def test_analyze_verify_checks_table_size(capsys):
    argv = ["analyze", "--lattice", "chain40", "--arity", "5", "--expr", "x1 & x2"]
    rc, out, err = run(capsys, argv + ["--verify"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "exceeds the budget" in err
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    assert "essential: [1, 2]" in out


def test_analyze_caps_the_arity_before_evaluating(capsys):
    # The 2^40 coefficients would take hours to evaluate; the arity cap
    # is checked first, so the error comes at once.
    start = time.perf_counter()
    rc, out, err = run(capsys, ["analyze", "--lattice", "chain3",
                                "--arity", "40", "--expr", "x1"])
    assert time.perf_counter() - start < 1
    assert (rc, out, err) == (1, "", "error: arity must be an int in 0..16, got 40\n")


def test_codomain_bound_is_checked_first(tmp_path, capsys):
    # Value tables hold one byte per entry, so at most 256 values.
    names = [f"e{i}" for i in range(257)]
    path = tmp_path / "chain257.lat"
    path.write_text("elements: " + " ".join(names) + "\n"
                    + "".join(f"{a} < {b}\n" for a, b in zip(names, names[1:])))
    for argv in (["verify", "pseudo-boolean", "--arity", "1", "--codomain", "300"],
                 ["analyze", "--lattice", str(path), "--arity", "1", "--expr", "x1",
                  "--verify"]):
        rc, out, err = run(capsys, argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "exceeds the bound of 256" in err


def test_lattice_file_size_is_checked_first(tmp_path, capsys):
    # The meet and join tables hold |L|^2 entries each, so a file may
    # name at most sqrt(10^7), that is 3,162, elements.
    names = [f"e{i}" for i in range(3163)]
    path = tmp_path / "chain3163.lat"
    path.write_text("elements: " + " ".join(names) + "\n"
                    + "".join(f"{a} < {b}\n" for a, b in zip(names, names[1:])))
    rc, out, err = run(capsys, ["lattice-check", str(path)])
    assert rc == 1
    assert err == ""
    assert out.startswith("invalid: 3163 elements exceed the budget")
    assert out.count("\n") == 1
    rc, out, err = run(capsys, ["analyze", "--lattice", str(path),
                                "--arity", "1", "--expr", "x1"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: 3163 elements exceed the budget")
    assert err.count("\n") == 1


def test_deep_expressions_are_rejected(capsys):
    nested = "(" * 340 + "x1" + ")" * 340
    chained = " | ".join(["x1"] * 1000)
    for arity, expr in (("1", nested), ("2", chained)):
        rc, out, err = run(capsys, ["analyze", "--lattice", "chain3",
                                    "--arity", arity, "--expr", expr])
        assert rc == 1
        assert out == ""
        assert err.startswith("error: expression nests deeper than 200 levels")
        assert err.count("\n") == 1


def test_analyze_unknown_lattice(capsys):
    rc, _, err = run(capsys, ["analyze", "--lattice", "nosuch",
                              "--arity", "2", "--expr", "x1"])
    assert rc == 1
    assert err.startswith("error:")


def test_bool_analyze_xor(capsys):
    rc, out, _ = run(capsys, ["bool", "analyze", "--table", "0110", "--verify"])
    assert rc == 0
    assert "polynomial: x1 + x2" in out
    assert "gap: 2" in out
    assert "boolean-form(sum-form, m=2, c=0, positions=[1, 2])" in out
    assert "agreement: ok" in out


def test_bool_analyze_median_table(capsys):
    rc, payload, _ = run_json(capsys, ["bool", "analyze",
                                       "--table", "00010111"])
    assert rc == 0
    assert payload["polynomial"] == "x1x2 + x1x3 + x2x3"
    assert payload["classification"]["form"] == "median-form"
    assert payload["gap"] == 2


def test_bool_analyze_and_table(capsys):
    rc, payload, _ = run_json(capsys, ["bool", "analyze", "--table", "0001",
                                       "--verify"])
    assert rc == 0
    assert payload["polynomial"] == "x1x2"
    assert payload["gap"] == 1
    assert payload["oracle"] == {"essential": [1, 2], "gap": 1}


def test_bool_analyze_one_essential(capsys):
    rc, payload, _ = run_json(capsys, ["bool", "analyze", "--table", "01"])
    assert rc == 0
    assert payload["essential"] == [1]
    assert payload["gap"] is None


def test_bool_analyze_bad_tables(capsys):
    for bad in ("012", "011", "0"):
        rc, _, err = run(capsys, ["bool", "analyze", "--table", bad])
        assert rc == 1
        assert err.startswith("error:")


def test_bool_analyze_from_file(tmp_path, capsys):
    path = tmp_path / "xor.fn"
    path.write_text("2 2 2\n0 1 1 0\n")
    rc, payload, _ = run_json(capsys, ["bool", "analyze", "--file", str(path)])
    assert rc == 0
    assert payload["table"] == "0110"
    bad = tmp_path / "wide.fn"
    bad.write_text("1 2 3\n0 2\n")
    rc, _, err = run(capsys, ["bool", "analyze", "--file", str(bad)])
    assert rc == 1
    assert "Boolean" in err
    # Refused before a_size ** arity is computed: 10^500,000 and
    # 10^15,000,000 entries.
    for n, a in (("100000", "100000"), ("3000000", "100000")):
        bad.write_text(f"{n} {a} 2\n0 1\n")
        rc, out, err = run(capsys, ["bool", "analyze", "--file", str(bad)])
        assert (rc, out) == (1, "")
        assert err == (f"error: header arity={n} a_size={a} b_size=2 asks for "
                       f"more than 10000000 values\n")


def test_verify_boolean_arity2(capsys):
    rc, payload, _ = run_json(capsys, ["verify", "boolean", "--arity", "2"])
    assert rc == 0
    assert payload["scanned"] == 16
    assert payload["analyzed"] == 10
    assert payload["skipped"] == 6
    assert payload["gap_counts"] == {"1": 4, "2": 6}
    assert payload["disagreements"] == 0
    assert payload["ok"] is True
    assert payload["counterexample"] is None


def test_verify_pseudo_boolean(capsys):
    rc, payload, _ = run_json(capsys, ["verify", "pseudo-boolean",
                                       "--arity", "2", "--codomain", "3"])
    assert rc == 0
    assert payload["scanned"] == 81
    expected = sum(1 for f in enumerate_all_functions(2, 2, 3)
                   if len(ess_bruteforce(f)) == 2)
    assert payload["analyzed"] == expected
    assert payload["ok"] is True
    assert payload["gap_counts"]["1"] + payload["gap_counts"]["2"] == expected


def test_verify_gap_theorem_chain3(capsys):
    rc, payload, _ = run_json(capsys, ["verify", "gap-theorem",
                                       "--lattice", "chain3", "--arity", "2"])
    assert rc == 0
    assert payload["monotone_maps"] == 20
    assert payload["monotone_maps"] == len(monotone_tables_by_filter(2, chain(3)))
    assert payload["ok"] is True
    assert payload["gap_counts"]["1"] + payload["gap_counts"]["2"] == payload["analyzed"]


def test_disagreement_exit_code(capsys, monkeypatch):
    import latgap.cli as cli
    import latgap.sweep as sweep

    def gap_one(f):
        # The right essential positions, and gap 1 wherever a gap exists.
        verdict = classify_boolean_gap(f)
        return verdict if verdict.gap is None else Gap1(verdict.essential)

    monkeypatch.setattr(cli, "classify_boolean_gap", gap_one)
    monkeypatch.setattr(sweep, "classify_boolean_gap", gap_one)
    rc, out, _ = run(capsys, ["bool", "analyze", "--table", "0110", "--verify"])
    assert rc == 2
    assert "DISAGREEMENT" in out
    rc, payload, _ = run_json(capsys, ["verify", "boolean", "--arity", "2"])
    assert rc == 2
    assert payload["ok"] is False
    assert payload["counterexample"]["classifier_gap"] == 1
    assert payload["counterexample"]["oracle_gap"] == 2


def test_essential_disagreement_exit_code(capsys, monkeypatch):
    # The right gap with the wrong essential positions is a disagreement.
    import latgap.sweep as sweep

    def wrong_essential(f):
        verdict = classify_boolean_gap(f)
        return GapUndefined((1, 2)) if verdict.gap is None else verdict

    monkeypatch.setattr(sweep, "classify_boolean_gap", wrong_essential)
    rc, payload, _ = run_json(capsys, ["verify", "boolean", "--arity", "2"])
    assert rc == 2
    assert payload["ok"] is False
    assert payload["counterexample"] == {
        "table": "0000", "classifier_gap": None, "oracle_gap": None,
        "essential": [1, 2], "oracle_essential": []}


GAP_THEOREM = ["verify", "gap-theorem", "--lattice", "chain3", "--arity", "3"]
# The first truncated median the chain3 sweep meets: (0 or median) and a.
MEDIAN_COEFFICIENTS = ["0", "0", "0", "a", "0", "a", "a", "a"]


def test_gap_theorem_sweep_checks_the_classifier(capsys, monkeypatch):
    import latgap.sweep as sweep

    def gap_one(f):
        verdict = classify_polynomial_gap(f)
        return verdict if verdict.gap is None else Gap1(verdict.essential)

    monkeypatch.setattr(sweep, "classify_polynomial_gap", gap_one)
    rc, payload, _ = run_json(capsys, GAP_THEOREM)
    assert (rc, payload["ok"], payload["monotone_maps"]) == (2, False, 28)
    assert payload["counterexample"] == {
        "coefficients": MEDIAN_COEFFICIENTS, "classifier_gap": 1, "oracle_gap": 2,
        "essential": [1, 2, 3], "oracle_essential": [1, 2, 3],
        "restricted_essential": [1, 2, 3]}


def test_gap_theorem_sweep_rejects_a_gap_of_three(capsys, monkeypatch):
    # An oracle gap of 3 on a lattice polynomial is a disagreement even
    # when the classifier reports the same gap.
    import latgap.sweep as sweep

    def gap_three(report):
        return GapReport(report.essential, report.ess, report.ess - 3, 3)

    def oracle(f):
        report = gap_bruteforce(f)
        return gap_three(report) if report.gap == 2 else report

    def classifier(f):
        verdict = classify_polynomial_gap(f)
        return verdict if verdict.gap != 2 else SimpleNamespace(
            gap=3, essential=verdict.essential)

    monkeypatch.setattr(sweep, "gap_bruteforce", oracle)
    monkeypatch.setattr(sweep, "classify_polynomial_gap", classifier)
    rc, payload, _ = run_json(capsys, GAP_THEOREM)
    assert (rc, payload["ok"], payload["monotone_maps"]) == (2, False, 28)
    assert payload["counterexample"] == {
        "coefficients": MEDIAN_COEFFICIENTS, "classifier_gap": 3, "oracle_gap": 3,
        "essential": [1, 2, 3], "oracle_essential": [1, 2, 3],
        "restricted_essential": [1, 2, 3]}


def test_gap_theorem_sweep_checks_the_restriction(capsys, monkeypatch):
    # Classifier and oracle agree; only the batch 0/1-point restriction
    # is off, so the replay sides with the classifier and the
    # counterexample blames the batch answers.
    import latgap.sweep as sweep
    real = sweep.lane_gap_codes

    def drop_last(sizes, columns):
        # On the 0/1 restrictions of chain3 maps, clears the highest
        # essential position of each one-byte mask.
        masks, codes = real(sizes, columns)
        if sizes[0] == 2:
            masks = bytes(mask & ~(1 << mask.bit_length() - 1) if mask else 0
                          for mask in masks)
        return masks, codes

    monkeypatch.setattr(sweep, "lane_gap_codes", drop_last)
    rc, payload, _ = run_json(capsys, GAP_THEOREM)
    assert (rc, payload["ok"], payload["monotone_maps"]) == (2, False, 2)
    assert payload["counterexample"] == {
        "coefficients": ["0"] * 7 + ["a"], "classifier_gap": 1, "oracle_gap": 1,
        "essential": [1, 2, 3], "oracle_essential": [1, 2, 3],
        "restricted_essential": [1, 2, 3], "batch_gap": 1,
        "batch_essential": [1, 2, 3], "batch_restricted_essential": [1, 2]}


def test_gap_theorem_sweep_names_a_wrong_batch_oracle(capsys, monkeypatch):
    # The classifier and gap_bruteforce agree on the first truncated
    # median, so the counterexample blames the byte-lane answers.
    import latgap.sweep as sweep
    real = sweep.lane_gap_codes

    def two_as_one(sizes, columns):
        masks, codes = real(sizes, columns)
        return masks, codes.replace(b"\x02", b"\x01")

    monkeypatch.setattr(sweep, "lane_gap_codes", two_as_one)
    rc, payload, _ = run_json(capsys, GAP_THEOREM)
    assert (rc, payload["ok"], payload["monotone_maps"]) == (2, False, 28)
    assert payload["counterexample"] == {
        "coefficients": MEDIAN_COEFFICIENTS, "classifier_gap": 2, "oracle_gap": 2,
        "essential": [1, 2, 3], "oracle_essential": [1, 2, 3],
        "restricted_essential": [1, 2, 3], "batch_gap": 1,
        "batch_essential": [1, 2, 3], "batch_restricted_essential": [1, 2, 3]}
    rc, out, _ = run(capsys, GAP_THEOREM)
    assert rc == 2 and '"batch_gap": 1' in out and out.endswith("result: DISAGREEMENT\n")


def test_boolean_sweep_names_a_wrong_batch_oracle(capsys, monkeypatch):
    # The classifier and gap_bruteforce agree on exclusive or, so the
    # counterexample blames the bit-sliced answers.
    import latgap.sweep as sweep
    real = sweep.boolean_gap_codes

    def flipped(n):
        masks, codes = real(n)
        xor = 0b0110
        return masks, codes[:xor] + bytes([1]) + codes[xor + 1:]

    monkeypatch.setattr(sweep, "boolean_gap_codes", flipped)
    rc, payload, _ = run_json(capsys, ["verify", "boolean", "--arity", "2"])
    assert (rc, payload["ok"], payload["scanned"]) == (2, False, 7)
    assert payload["counterexample"] == {
        "table": "0110", "classifier_gap": 2, "oracle_gap": 2,
        "essential": [1, 2], "oracle_essential": [1, 2],
        "batch_gap": 1, "batch_essential": [1, 2]}
    rc, out, _ = run(capsys, ["verify", "boolean", "--arity", "2"])
    assert rc == 2 and '"batch_gap": 1' in out and out.endswith("result: DISAGREEMENT\n")


def test_boolean_sweep_rejects_a_batch_gap_of_three(capsys, monkeypatch):
    # A batch gap code of 3 is a disagreement even when the classifier
    # reports the same gap; the replay then shows the true gap.
    import latgap.sweep as sweep
    real = sweep.boolean_gap_codes

    def three(n):
        masks, codes = real(n)
        return masks, codes.replace(b"\x02", b"\x03")

    def classifier(f):
        verdict = classify_boolean_gap(f)
        return verdict if verdict.gap != 2 else SimpleNamespace(
            gap=3, essential=verdict.essential)

    monkeypatch.setattr(sweep, "boolean_gap_codes", three)
    monkeypatch.setattr(sweep, "classify_boolean_gap", classifier)
    rc, payload, _ = run_json(capsys, ["verify", "boolean", "--arity", "2"])
    assert (rc, payload["ok"], payload["scanned"]) == (2, False, 3)
    assert payload["counterexample"] == {
        "table": "0010", "classifier_gap": 3, "oracle_gap": 2,
        "essential": [1, 2], "oracle_essential": [1, 2]}


PSEUDO_BOOLEAN = ["verify", "pseudo-boolean", "--arity", "2", "--codomain", "3"]


def test_pseudo_boolean_sweep_names_a_wrong_batch_oracle(capsys, monkeypatch):
    # The classifier and gap_bruteforce agree on exclusive or, the 13th
    # table, so the counterexample blames the byte-lane answers.
    import latgap.sweep as sweep
    real = sweep.table_gap_codes
    xor = bytes([0, 1, 1, 0])

    def flipped(sizes, tables):
        masks, codes = real(sizes, tables)
        return masks, bytes(1 if table == xor else code for table, code in zip(tables, codes))

    monkeypatch.setattr(sweep, "table_gap_codes", flipped)
    rc, payload, _ = run_json(capsys, PSEUDO_BOOLEAN)
    assert (rc, payload["ok"], payload["scanned"]) == (2, False, 13)
    assert payload["counterexample"] == {
        "table": [0, 1, 1, 0], "classifier_gap": 2, "oracle_gap": 2,
        "essential": [1, 2], "oracle_essential": [1, 2],
        "batch_gap": 1, "batch_essential": [1, 2]}
    rc, out, _ = run(capsys, PSEUDO_BOOLEAN)
    assert rc == 2 and '"batch_gap": 1' in out and out.endswith("result: DISAGREEMENT\n")


def test_pseudo_boolean_sweep_rejects_a_batch_gap_of_three(capsys, monkeypatch):
    # A batch gap code of 3 is a disagreement even when the classifier
    # reports the same gap; the replay then shows the true gap.
    import latgap.sweep as sweep
    real, classify = sweep.table_gap_codes, sweep.classify_pseudo_boolean_gap

    def three(sizes, tables):
        masks, codes = real(sizes, tables)
        return masks, codes.replace(b"\x02", b"\x03")

    def classifier(f):
        verdict = classify(f)
        return verdict if verdict.gap != 2 else SimpleNamespace(
            gap=3, essential=verdict.essential)

    monkeypatch.setattr(sweep, "table_gap_codes", three)
    monkeypatch.setattr(sweep, "classify_pseudo_boolean_gap", classifier)
    rc, payload, _ = run_json(capsys, PSEUDO_BOOLEAN)
    assert (rc, payload["ok"], payload["scanned"]) == (2, False, 4)
    assert payload["counterexample"] == {
        "table": [0, 0, 1, 0], "classifier_gap": 3, "oracle_gap": 2,
        "essential": [1, 2], "oracle_essential": [1, 2]}


def test_argparse_exits_are_remapped(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["bogus"]) == 1
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latgap", "analyze", "--lattice", "chain3",
         "--arity", "3", "--expr", MEDIAN, "--verify", "--json"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["agreement"] is True


# The standard modules that latgap's sources import by name.
STDLIB_IMPORTS = ("__future__", "argparse", "collections", "dataclasses", "functools",
                  "itertools", "json", "math", "pathlib", "re", "string", "sys", "time",
                  "types", "typing")
IMPORT_PROBE = """\
import json, sys
for name in sys.argv[2:]:
    __import__(name)
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import latgap.cli
import latgap.finfun as finfun
new = sorted(m for m in set(sys.modules) - before if m.partition(".")[0] != "latgap")
kept = [cache.cache_info().currsize
        for cache in (finfun._kept_lane_plan, finfun._kept_plan, finfun._kept_diagonal)]
print(json.dumps([new, kept]))
"""


def test_importing_the_cli_builds_and_imports_nothing_new():
    # Startup stays as cheap as it was: in a fresh isolated interpreter,
    # importing latgap.cli after the standard modules latgap names
    # loads only latgap's own modules and leaves every plan cache empty.
    import latgap
    src = str(Path(latgap.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, src, *STDLIB_IMPORTS],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == [[], [0, 0, 0]]


def test_module_entry_point_error_status():
    proc = subprocess.run(
        [sys.executable, "-m", "latgap", "bool", "analyze", "--table", "012"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


def test_gap_theorem_text_lines(capsys):
    # The text form shows every count line, no `ok:` or `counterexample:`
    # line, and ends in the result.
    rc, out, err = run(capsys, ["verify", "gap-theorem", "--lattice", "2x2", "--arity", "3"])
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "sweep: gap-theorem", "lattice: 2x2", "size: 4", "arity: 3",
        "monotone_maps: 400", "analyzed: 381", "skipped: 19",
        "gap_counts: {'1': 376, '2': 5}", "disagreements: 0", "result: ok"]


def test_sweep_budget_errors_are_symbolic(capsys):
    # The count is refused without building it, in one line naming it
    # as a power, never as a digit string or an interpreter limit.
    cases = {("boolean", "--arity", "14"): "2**(2**14)",
             ("boolean", "--arity", "40"): "2**(2**40)",
             ("pseudo-boolean", "--arity", "9", "--codomain", "3"): "3**(2**9)"}
    for args, count in cases.items():
        # Parsing the arguments takes about 60 KiB; 2**(2**40) would not fit.
        tracemalloc.start()
        try:
            rc, out, err = run(capsys, ["verify", *args])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024, (args, peak)
        assert (rc, out) == (1, "")
        assert err == f"error: {count} functions exceed the budget of 10000000\n"


def test_gap_theorem_refuses_shapes_past_the_budget(capsys, monkeypatch):
    # chain2/9 and 2x2/6 would stream for ever; each ends in one error
    # line before a map is classified. chain40/5 keeps its value-table
    # error, checked before any map is enumerated.
    import latgap.sweep as sweep

    def unreached(f):
        raise AssertionError("a map was classified")

    monkeypatch.setattr(sweep, "classify_polynomial_gap", unreached)
    cases = {("chain2", "9"): "monotone maps of arity 9 need all those of arity 6: "
                              "up to 7581^2 tables of 2^6 entries, more than the budget",
             ("2x2", "6"): "monotone maps of arity 6 need all those of arity 5: "
                           "up to 28224^2 tables of 2^5 entries, more than the budget",
             ("chain40", "5"): "a value table of 40^5 entries exceeds the budget"}
    for (name, arity), message in cases.items():
        rc, out, err = run(capsys, ["verify", "gap-theorem", "--lattice", name,
                                    "--arity", arity])
        assert (rc, out, err) == (1, "", f"error: {message} of 10000000\n"), name
