from __future__ import annotations

import json
import subprocess
import sys

import pytest

from latgap import (LatticeError, builtin_lattice, chain, ess_bruteforce,
                    enumerate_all_functions)
from latgap.classify import Gap1
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
    monkeypatch.setattr(cli, "classify_boolean_gap", lambda f: Gap1())
    monkeypatch.setattr(sweep, "classify_boolean_gap", lambda f: Gap1())
    rc, out, _ = run(capsys, ["bool", "analyze", "--table", "0110", "--verify"])
    assert rc == 2
    assert "DISAGREEMENT" in out
    rc, payload, _ = run_json(capsys, ["verify", "boolean", "--arity", "2"])
    assert rc == 2
    assert payload["ok"] is False
    assert payload["counterexample"]["classifier_gap"] == 1
    assert payload["counterexample"]["oracle_gap"] == 2


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


def test_module_entry_point_error_status():
    proc = subprocess.run(
        [sys.executable, "-m", "latgap", "bool", "analyze", "--table", "012"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
