from __future__ import annotations

import ast
import itertools
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import given, settings, strategies as st

import latgap.classify
import latgap.finfun
from latgap import (FOURTH_FORM, MEDIAN_FORM, MIXED_FORM, SUM_FORM,
                    BooleanForm, FiniteFn, Gap1, GapUndefined, PolyFn,
                    PseudoBooleanCase, TruncatedMedian, ZhegalkinPoly,
                    boolean_gap_codes, builtin_lattice, canonicalize, classify_boolean_gap,
                    classify_polynomial_gap, classify_pseudo_boolean_gap,
                    enumerate_all_functions, enumerate_monotone_maps, ess_bruteforce,
                    gap_bruteforce, parse_expr, simple_substitution, value_table,
                    zhegalkin_from_table)
from latgap.classify import polynomial_gap_codes
from helpers import (from_monotone_table, monotone_tables_by_filter, reduce_by_points,
                     zhegalkin_evaluate)
from latgap.sweep import sweep_boolean, sweep_pseudo_boolean

MEDIAN = "(x1 & x2) | (x2 & x3) | (x3 & x1)"

XOR = FiniteFn((2, 2), 2, (0, 1, 1, 0))
AND = FiniteFn((2, 2), 2, (0, 0, 0, 1))
OR = FiniteFn((2, 2), 2, (0, 1, 1, 1))
MED3 = FiniteFn((2, 2, 2), 2, (0, 0, 0, 1, 0, 1, 1, 1))
UNDEFINED = "undefined (fewer than 2 essential variables)"


def assert_undefined(verdict, essential):
    assert verdict == GapUndefined(essential)
    assert verdict.gap is None
    assert verdict.essential == essential
    assert str(verdict) == UNDEFINED
    assert verdict.to_json() is None


def anf_table(poly: ZhegalkinPoly) -> FiniteFn:
    vals = tuple(zhegalkin_evaluate(poly, [(idx >> k) & 1 for k in range(poly.arity)])
                 for idx in range(1 << poly.arity))
    return FiniteFn((2,) * poly.arity, 2, vals)


def test_zhegalkin_examples():
    assert zhegalkin_from_table(XOR).monomials == {0b01, 0b10}
    assert zhegalkin_from_table(AND).monomials == {0b11}
    assert zhegalkin_from_table(MED3).monomials == {0b011, 0b101, 0b110}


def test_zhegalkin_str():
    assert str(zhegalkin_from_table(XOR)) == "x1 + x2"
    assert str(zhegalkin_from_table(MED3)) == "x1x2 + x1x3 + x2x3"
    assert str(ZhegalkinPoly(2, frozenset({0b11, 0b01, 0}))) == "x1x2 + x1 + 1"
    assert str(ZhegalkinPoly(2, frozenset())) == "0"


def test_zhegalkin_round_trip_exhaustive():
    for n in (1, 2, 3):
        for f in enumerate_all_functions(n, 2, 2):
            assert anf_table(zhegalkin_from_table(f)) == f


def test_zhegalkin_validation():
    with pytest.raises(ValueError, match="out of range"):
        ZhegalkinPoly(2, frozenset({4}))
    with pytest.raises(ValueError, match="Boolean"):
        zhegalkin_from_table(FiniteFn((3,), 2, (0, 1, 0)))
    with pytest.raises(ValueError, match="digit"):
        zhegalkin_evaluate(ZhegalkinPoly(1, frozenset({1})), [2])


def test_classify_parity_is_sum_form():
    parity = FiniteFn((2, 2, 2), 2,
                      tuple(bin(i).count("1") & 1 for i in range(8)))
    verdict = classify_boolean_gap(parity)
    assert verdict == BooleanForm(SUM_FORM, 3, 0, (1, 2, 3))
    assert verdict.gap == 2


def test_classify_xnor_carries_constant():
    xnor = FiniteFn((2, 2), 2, (1, 0, 0, 1))
    assert classify_boolean_gap(xnor) == BooleanForm(SUM_FORM, 2, 1, (1, 2))


def test_classify_mixed_form():
    # x1 and not x2, whose polynomial is x1x2 + x1
    f = FiniteFn((2, 2), 2, (0, 1, 0, 0))
    assert classify_boolean_gap(f) == BooleanForm(MIXED_FORM, 2, 0, (1, 2))
    # not x1 and x2: the roles swap
    g = FiniteFn((2, 2), 2, (0, 0, 1, 0))
    assert classify_boolean_gap(g) == BooleanForm(MIXED_FORM, 2, 0, (2, 1))


def test_classify_median_form():
    inverted = FiniteFn((2, 2, 2), 2, tuple(1 - v for v in MED3.table))
    assert classify_boolean_gap(inverted) == BooleanForm(MEDIAN_FORM, 3, 1, (1, 2, 3))
    assert classify_boolean_gap(MED3) == BooleanForm(MEDIAN_FORM, 3, 0, (1, 2, 3))


def test_classify_fourth_form_positions():
    # triangle plus x2 + x3: template variables 1 and 2 are originals 2 and 3
    poly = ZhegalkinPoly(3, frozenset({0b011, 0b101, 0b110, 0b010, 0b100}))
    verdict = classify_boolean_gap(anf_table(poly))
    assert verdict == BooleanForm(FOURTH_FORM, 3, 0, (2, 3, 1))
    assert verdict.essential == (1, 2, 3)


def _template(verdict: BooleanForm, arity: int) -> ZhegalkinPoly:
    # The family's polynomial on the verdict's positions, in template order.
    x = [1 << (p - 1) for p in verdict.positions]
    monomials = {
        SUM_FORM: lambda: x,
        MIXED_FORM: lambda: [x[0] | x[1], x[0]],
        MEDIAN_FORM: lambda: [x[0] | x[1], x[0] | x[2], x[1] | x[2]],
        FOURTH_FORM: lambda: [x[0] | x[1], x[0] | x[2], x[1] | x[2], x[0], x[1]],
    }[verdict.form]()
    return ZhegalkinPoly(arity, frozenset(monomials + [0] * verdict.c))


def test_boolean_gap_two_verdicts_rebuild_their_tables():
    # Every gap-2 function up to arity 4, picked by the bit-sliced oracle:
    # the verdict's form, constant and positions spell its polynomial.
    for n, expected in ((2, 6), (3, 28), (4, 78)):
        _, codes = boolean_gap_codes(n)
        found = 0
        for code, f in zip(codes, enumerate_all_functions(n, 2, 2), strict=True):
            if code != 2:
                continue
            verdict = classify_boolean_gap(f)
            assert verdict.m == len(verdict.positions) == len(set(verdict.positions))
            assert anf_table(_template(verdict, n)).table == f.table, f.table
            found += 1
        assert found == expected


def test_classify_or_is_gap_one():
    assert classify_boolean_gap(OR) == Gap1((1, 2))
    assert classify_boolean_gap(OR).gap == 1
    assert gap_bruteforce(OR).gap == 1


def test_classify_sees_through_padding():
    # parity of positions 2 and 4, with 1 and 3 idle
    f = FiniteFn((2, 2, 2, 2), 2,
                 tuple(((i >> 1) ^ (i >> 3)) & 1 for i in range(16)))
    assert classify_boolean_gap(f) == BooleanForm(SUM_FORM, 2, 0, (2, 4))


def test_classify_boolean_needs_two_essential():
    assert_undefined(classify_boolean_gap(FiniteFn((2, 2), 2, (0, 1, 0, 1))), (1,))
    assert_undefined(classify_boolean_gap(FiniteFn((2, 2), 2, (1, 1, 1, 1))), ())
    with pytest.raises(ValueError, match="Boolean"):
        classify_boolean_gap(FiniteFn((2, 2), 3, (0, 1, 2, 0)))


def test_classify_boolean_matches_oracle_exhaustively():
    for n in (2, 3):
        assert sweep_boolean(n).ok


def test_pseudo_case_one_only():
    f = FiniteFn((2, 2), 3, (0, 1, 2, 0))
    verdict = classify_pseudo_boolean_gap(f)
    assert verdict == PseudoBooleanCase((1,), None, None, (1, 2))
    assert verdict.gap == 2
    assert gap_bruteforce(f).gap == 2


def test_pseudo_both_cases():
    f = FiniteFn((2, 2), 3, (0, 2, 2, 0))
    verdict = classify_pseudo_boolean_gap(f)
    assert verdict.cases == (1, 2)
    assert verdict.unary_map == (0, 2)
    assert verdict.inner == BooleanForm(SUM_FORM, 2, 0, (1, 2))


def test_pseudo_case_two_only():
    # ternary parity with values renamed to {1, 4}
    f = FiniteFn((2, 2, 2), 5,
                 tuple(4 if bin(i).count("1") & 1 else 1 for i in range(8)))
    verdict = classify_pseudo_boolean_gap(f)
    assert verdict.cases == (2,)
    assert verdict.unary_map == (1, 4)
    assert verdict.inner == BooleanForm(SUM_FORM, 3, 0, (1, 2, 3))


def test_pseudo_gap_one():
    f = FiniteFn((2, 2), 3, (0, 1, 1, 2))
    assert classify_pseudo_boolean_gap(f) == Gap1((1, 2))
    assert gap_bruteforce(f).gap == 1


def test_pseudo_rejects_bad_input():
    assert_undefined(classify_pseudo_boolean_gap(FiniteFn((2,), 3, (0, 1))), (1,))
    with pytest.raises(ValueError, match="domain"):
        classify_pseudo_boolean_gap(FiniteFn((3, 2), 3, (0,) * 6))


def test_pseudo_sees_through_padding():
    # Every function {0,1}^3 -> {0,1,2} with at least two essential
    # positions gets the verdict of its reduction; below two, GapUndefined.
    analyzed = padded = 0
    for f in enumerate_all_functions(3, 2, 3):
        positions = tuple(sorted(ess_bruteforce(f)))
        reduced = FiniteFn((2,) * len(positions), 3,
                           reduce_by_points(f.sizes, f.table, positions))
        verdict = classify_pseudo_boolean_gap(f)
        assert verdict.essential == positions, f.table
        if reduced.arity < 2:
            assert_undefined(verdict, positions)
            continue
        expect = classify_pseudo_boolean_gap(reduced)
        assert verdict.gap == expect.gap, f.table
        assert getattr(verdict, "cases", None) == getattr(expect, "cases", None), f.table
        assert getattr(verdict, "unary_map", None) == getattr(expect, "unary_map", None)
        analyzed += 1
        padded += reduced.arity < 3
    assert (analyzed, padded) == (6540, 198)


def test_pseudo_matches_oracle_exhaustively():
    assert sweep_pseudo_boolean(2, 3).ok


def test_pseudo_classifies_the_boolean_function_once(monkeypatch):
    # A two-valued f is g(h) for h Boolean, and the other order of g(0)
    # and g(1) gives the complement of h, which only flips the parity
    # constant: classify_boolean_gap runs once, on the order that maps
    # the smaller value to 0, and the complement gets the same gap.
    import latgap.classify as classify
    real = classify.classify_boolean_gap
    calls = []
    monkeypatch.setattr(classify, "classify_boolean_gap",
                        lambda h: calls.append(h.table) or real(h))
    two_valued = 0
    for n in (2, 3):
        for f in enumerate_all_functions(n, 2, 3):
            calls.clear()
            verdict = classify_pseudo_boolean_gap(f)
            image = bytes(sorted(set(f.table)))
            if len(image) != 2 or len(verdict.essential) < 2:
                assert calls == [], f.table
                continue
            two_valued += 1
            h = f.table.translate(bytes.maketrans(image, b"\x00\x01"))
            assert calls == [h], f.table
            complement = real(FiniteFn(f.sizes, 2, h.translate(bytes.maketrans(b"\x00\x01", b"\x01\x00"))))
            assert complement.gap == real(FiniteFn(f.sizes, 2, h)).gap, f.table
            assert (2 in getattr(verdict, "cases", ())) is (complement.gap == 2), f.table
    # Per image pair, the Boolean functions with two essential positions
    # or more: 10 of arity 2 and 248 of arity 3.
    assert two_valued == 3 * (10 + 248)


def test_moebius_plans_are_kept_up_to_the_jump_arity():
    # A plan holds 2n + 1 masks of 2^n bits. It is kept up to
    # KEPT_JUMP_ARITY, as the jump masks are, and built per call beyond,
    # so classifying functions of arity 11 to 16 keeps none of theirs.
    import random
    import tracemalloc
    from latgap.classify import _moebius
    from latgap.polyfn import KEPT_JUMP_ARITY
    rng = random.Random(26)
    functions = [FiniteFn((2,) * n, 2, bytes(rng.getrandbits(1) for _ in range(1 << n)))
                 for n in range(KEPT_JUMP_ARITY, 17)]
    kept = functions.pop(0)
    assert _moebius(kept)[1] is _moebius(kept)[1]
    assert _moebius(functions[0])[1] is not _moebius(functions[0])[1]
    tracemalloc.start()
    try:
        for f in functions:
            assert classify_boolean_gap(f).gap == 1
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 4096, kept


def test_truncated_median_detection(c2, c4, named_square):
    med = canonicalize(parse_expr(MEDIAN, 3, c2))
    assert classify_polynomial_gap(med) == TruncatedMedian(c2.bottom, c2.top, (1, 2, 3))
    trunc = canonicalize(parse_expr(f"(a | ({MEDIAN})) & b", 3, c4))
    assert classify_polynomial_gap(trunc) == TruncatedMedian(
        c4.element("a"), c4.element("b"), (1, 2, 3))
    # With x and y incomparable, (x | median) & y is (x & y) | (median & y).
    sq = named_square
    skew = canonicalize(parse_expr(f"(x | ({MEDIAN})) & y", 3, sq))
    assert classify_polynomial_gap(skew) == TruncatedMedian(
        sq.element("0"), sq.element("y"), (1, 2, 3))
    # Three essential positions, but x1 alone already lifts the value.
    near = canonicalize(parse_expr(f"(a & x1) | ({MEDIAN})", 3, c4))
    assert classify_polynomial_gap(near) == Gap1((1, 2, 3))


def test_truncated_median_survives_padding(c4):
    trunc = canonicalize(parse_expr(f"(a | ({MEDIAN})) & b", 3, c4))
    padded = simple_substitution(trunc, (1, 2, 4), 4)
    assert classify_polynomial_gap(padded) == TruncatedMedian(
        c4.element("a"), c4.element("b"), (1, 2, 4))
    padded = simple_substitution(trunc, (5, 1, 4), 5)
    assert classify_polynomial_gap(padded) == TruncatedMedian(
        c4.element("a"), c4.element("b"), (1, 4, 5))


def test_non_medians_rejected(c2, c3):
    disj = canonicalize(parse_expr("x1 | x2 | x3", 3, c2))
    assert classify_polynomial_gap(disj) == Gap1((1, 2, 3))
    assert classify_polynomial_gap(canonicalize(parse_expr("x1 & x2", 2, c2))) == Gap1((1, 2))
    assert_undefined(classify_polynomial_gap(canonicalize(parse_expr("a", 3, c3))), ())


def test_classify_polynomial_examples(c2, c4):
    med = canonicalize(parse_expr(MEDIAN, 3, c2))
    assert classify_polynomial_gap(med) == TruncatedMedian(c2.bottom, c2.top, (1, 2, 3))
    trunc = canonicalize(parse_expr(f"(a | ({MEDIAN})) & b", 3, c4))
    verdict = classify_polynomial_gap(trunc)
    assert verdict == TruncatedMedian(c4.element("a"), c4.element("b"), (1, 2, 3))
    assert verdict.gap == 2
    disj = canonicalize(parse_expr("x1 | x2 | x3", 3, c2))
    assert classify_polynomial_gap(disj) == Gap1((1, 2, 3))


def test_classify_polynomial_needs_two_essential(c3):
    assert_undefined(classify_polynomial_gap(canonicalize(parse_expr("x1", 2, c3))), (1,))


def test_binary_polynomials_have_gap_one(c3):
    for table in monotone_tables_by_filter(2, c3):
        f = from_monotone_table(table, 2, c3)
        if len(ess_bruteforce(value_table(f))) != 2:
            continue
        assert classify_polynomial_gap(f) == Gap1((1, 2))
        assert gap_bruteforce(value_table(f)).gap == 1


def test_polynomial_classifier_matches_oracle(c2):
    for table in monotone_tables_by_filter(3, c2):
        f = from_monotone_table(table, 3, c2)
        verdict, report = classify_polynomial_gap(f), gap_bruteforce(value_table(f))
        assert verdict.gap == report.gap
        assert verdict.essential == tuple(sorted(report.essential))


def test_verdicts_render_themselves(c4):
    form = BooleanForm(MIXED_FORM, 2, 1, (3, 1))
    form_json = {"tag": "boolean-form", "gap": 2, "form": "x1x2+x1",
                 "m": 2, "c": 1, "positions": [3, 1]}
    cases = [
        (GapUndefined((2,)), UNDEFINED, None),
        (Gap1((1, 2)), "gap1", {"tag": "gap1", "gap": 1}),
        (form, "boolean-form(x1x2+x1, m=2, c=1, positions=[3, 1])", form_json),
        (PseudoBooleanCase((1, 2), form, (0, 2), (1, 3)),
         "pseudo-boolean(cases=[1, 2], inner=boolean-form(x1x2+x1, m=2, c=1, "
         "positions=[3, 1]), g=[0, 2])",
         {"tag": "pseudo-boolean", "gap": 2, "cases": [1, 2],
          "inner": form_json, "unary_map": [0, 2]}),
        (PseudoBooleanCase((1,), None, None, (1, 3)), "pseudo-boolean(cases=[1])",
         {"tag": "pseudo-boolean", "gap": 2, "cases": [1], "inner": None,
          "unary_map": None}),
        (TruncatedMedian(c4.element("a"), c4.element("b"), (1, 2, 3)),
         "truncated-median(low=a, high=b)",
         {"tag": "truncated-median", "gap": 2, "low": "a", "high": "b"}),
    ]
    for verdict, text, payload in cases:
        assert str(verdict) == text
        assert verdict.to_json() == payload


def test_classify_imports_no_oracle_code():
    # The closed-form classifiers must stay independent of the oracle.
    tree = ast.parse(Path(latgap.classify.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("finfun" in alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and "finfun" in (node.module or ""):
            names = {alias.name for alias in node.names}
            assert names <= {"FiniteFn"}, names


def _runtime_imports(nodes) -> list[ast.AST]:
    """Import statements among `nodes` and below them, except in the
    body of an `if TYPE_CHECKING:`."""
    found = []
    for node in nodes:
        if isinstance(node, ast.If) and _ref_name(node.test) == "TYPE_CHECKING":
            found += _runtime_imports(node.orelse)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        found += _runtime_imports(ast.iter_child_nodes(node))
    return found


def test_finfun_imports_no_other_latgap_module():
    # The oracle, the bit-sliced one included, knows only value tables:
    # other latgap modules may appear in type annotations alone.
    def latgap_imports(source: str) -> list[int]:
        lines = []
        for node in _runtime_imports(ast.parse(source).body):
            if isinstance(node, ast.ImportFrom):
                names = [("." * node.level) + (node.module or "")]
            else:
                names = [alias.name for alias in node.names]
            if any(name.startswith((".", "latgap")) for name in names):
                lines.append(node.lineno)
        return lines

    samples = {
        "from .lattice import Lattice": [1],
        "import latgap.polyfn": [1],
        "def f():\n    from . import classify": [2],
        "if TYPE_CHECKING:\n    from .lattice import Lattice": [],
        "if TYPE_CHECKING:\n    pass\nelse:\n    from .polyfn import PolyFn": [4],
        "import math\nfrom typing import TYPE_CHECKING": [],
    }
    for source, lines in samples.items():
        assert latgap_imports(source) == lines, source
    assert latgap_imports(Path(latgap.finfun.__file__).read_text()) == []


def test_public_names_resolve_and_exclude_submodules():
    import latgap
    submodules = {path.stem for path in Path(latgap.__file__).parent.glob("*.py")}
    assert "classify" in submodules and not submodules & set(latgap.__all__)
    namespace: dict = {}
    exec("from latgap import *", namespace)
    for name in latgap.__all__:
        assert not name.startswith("_"), name
        assert namespace[name] is getattr(latgap, name), name
        assert not isinstance(namespace[name], ModuleType), name
    assert {"GapUndefined", "classify_polynomial_gap", "FiniteFn"} <= set(latgap.__all__)
    assert not {"GapUndefinedError", "is_truncated_median",
                "GapClassification"} & set(dir(latgap))


def _unused_private_names(sources: list[str]) -> list[str]:
    """Module-level private functions, classes and constants defined in
    one of `sources` and referenced nowhere but in their own definition."""
    defined = []
    used = set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [name for name in names
                        if name.startswith("_") and not name.startswith("__")]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
                    ref = sub.id
                elif isinstance(sub, ast.Attribute):
                    ref = sub.attr
                elif isinstance(sub, ast.alias):
                    ref = sub.name
                else:
                    continue
                if ref not in names:
                    used.add(ref)
    return [name for name in defined if name not in used]


def test_no_dead_private_helpers():
    samples = {
        "def _f(): pass": ["_f"],
        "def _f(): return _f()": ["_f"],
        "def _f(): pass\ndef g(): return _f()": [],
        "_C = 1\nclass _K: pass\n__all__ = []\nx = _C": ["_K"],
        "_T: int = 2\ny = m._T": [],
    }
    for source, names in samples.items():
        assert _unused_private_names([source]) == names, source
    assert _unused_private_names(["def _f(): pass", "from .a import _f"]) == []
    sources = [path.read_text()
               for path in sorted(Path(latgap.classify.__file__).parent.glob("*.py"))]
    assert _unused_private_names(sources) == []


def _ref_name(node: ast.AST) -> str | None:
    # `name` for a bare reference, `attr` for `module.attr`.
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _unbounded_caches(source: str) -> list[int]:
    """Lines using functools.cache, or lru_cache without an explicit
    integer maxsize."""
    tree = ast.parse(source)
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _ref_name(node.func) == "lru_cache":
            size = next((kw.value for kw in node.keywords if kw.arg == "maxsize"),
                        node.args[0] if node.args else None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(node.func)
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad += [node.lineno for alias in node.names if alias.name == "cache"]
        elif isinstance(node, ast.Attribute) and node.attr == "cache":
            if _ref_name(node.value) == "functools":
                bad.append(node.lineno)
        elif _ref_name(node) == "lru_cache" and node not in bounded:
            bad.append(node.lineno)
    return bad


def test_memo_caches_are_bounded():
    samples = {
        "@lru_cache\ndef f(): pass": [1],
        "@lru_cache(maxsize=None)\ndef f(): pass": [1],
        "@functools.lru_cache()\ndef f(): pass": [1],
        "@functools.cache\ndef f(): pass": [1],
        "from functools import cache": [1],
        "@lru_cache(maxsize=256)\ndef f(): pass": [],
        "@functools.lru_cache(64)\ndef f(): pass": [],
    }
    for source, lines in samples.items():
        assert _unbounded_caches(source) == lines, source
    for path in Path(latgap.classify.__file__).parent.glob("*.py"):
        assert _unbounded_caches(path.read_text()) == [], path.name


def _coded_verdicts(fns) -> tuple[bytes, bytes]:
    """classify_polynomial_gap's verdicts on `fns`, coded as the batch
    classifier codes them."""
    width = max(1, -(-fns[0].arity // 8))
    verdicts = [classify_polynomial_gap(f) for f in fns]
    return (b"".join(sum(1 << p - 1 for p in v.essential).to_bytes(width, "little")
                     for v in verdicts),
            bytes({None: 0, 1: 1, 2: 2}[v.gap] for v in verdicts))


def _coefficient_columns(arity: int, tables) -> list[bytes]:
    blob, size = bytes(itertools.chain.from_iterable(tables)), 1 << arity
    return [blob[c::size] for c in range(size)]


def test_batch_classifier_ties_to_the_per_function_one():
    # Every map of six shapes, in chunks of up to 1,024 maps: the batch
    # masks and gap codes are classify_polynomial_gap's, map for map.
    for name, arity in (("2x2", 3), ("2x2", 4), ("chain3", 4), ("cube3", 3), ("chain4", 3),
                        ("chain17", 2)):
        lat = builtin_lattice(name)
        maps = list(enumerate_monotone_maps(arity, lat))
        for start in range(0, len(maps), 1024):
            chunk = maps[start:start + 1024]
            assert polynomial_gap_codes(arity, _coefficient_columns(arity, chunk)) == (
                _coded_verdicts([PolyFn(lat, arity, t) for t in chunk])), (name, arity, start)
    # Arity 0 has one column and no position; an empty chunk answers empty.
    assert polynomial_gap_codes(0, [b"\x01\x00"]) == (b"\x00\x00", b"\x00\x00")
    assert polynomial_gap_codes(2, [b""] * 4) == (b"", b"")
    for arity, columns in ((2, [b"\x00"] * 3), (1, [b"\x00", b"\x00\x00"]), (17, [b""])):
        with pytest.raises(ValueError):
            polynomial_gap_codes(arity, columns)


_WIDE_LATTICES = ("chain2", "chain3", "2x2", "cube3", "chain17")


@st.composite
def wide_coefficient_chunks(draw):
    """A lattice, an arity of 9 to 12, whose masks take two bytes, and 1
    to 3 monotone tables of it: join-zeta transforms of a few
    coefficients on small position sets, or truncated medians on three
    positions, padded with inessential ones."""
    lat = builtin_lattice(draw(st.sampled_from(_WIDE_LATTICES)))
    n, join, k = draw(st.integers(9, 12)), lat._join, lat.size
    positions = st.sets(st.integers(0, n - 1), max_size=3).map(lambda s: sum(1 << p for p in s))
    strict = [(a, b) for a in range(k) for b in range(k) if a != b and lat._up[a] >> b & 1]
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            table = [lat.bottom_index] * (1 << n)
            for mask, v in draw(st.lists(st.tuples(positions, st.integers(0, k - 1)),
                                         max_size=6)):
                table[mask] = join[table[mask]][v]
            for p in range(n):  # the join-zeta transform, one position at a time
                for mask in range(1 << n):
                    if mask >> p & 1:
                        table[mask] = join[table[mask]][table[mask ^ 1 << p]]
        else:
            triple = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
            low, high = draw(st.sampled_from(strict))
            table = [high if sum(mask >> p & 1 for p in triple) >= 2 else low
                     for mask in range(1 << n)]
        tables.append(tuple(table))
    return lat, n, tables


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(wide_coefficient_chunks())
def test_batch_classifier_ties_on_two_byte_masks(chunk):
    lat, n, tables = chunk
    assert polynomial_gap_codes(n, _coefficient_columns(n, tables)) == _coded_verdicts(
        [PolyFn(lat, n, t) for t in tables])
