from __future__ import annotations

import itertools
import random

import pytest

from latgap import (LatticeError, ParseError, canonicalize, chain,
                    format_dnf, parse_expr)
from latgap.terms import MAX_TERM_DEPTH, Const, Join, Meet, Var
from helpers import eval_term, from_monotone_table, leq, monotone_tables_by_filter, random_term

MEDIAN = "(x1 & x2) | (x2 & x3) | (x3 & x1)"


def test_parse_median_structure(c3):
    term = parse_expr(MEDIAN, 3, c3)
    assert term.arity == 3
    assert term.lattice is c3
    assert term.root == Join(Join(Meet(Var(1), Var(2)), Meet(Var(2), Var(3))),
                             Meet(Var(3), Var(1)))


def test_meet_binds_tighter(c3):
    assert parse_expr("x1 & x2 | x3", 3, c3).root == \
        Join(Meet(Var(1), Var(2)), Var(3))
    assert parse_expr("x1 | x2 & x3", 3, c3).root == \
        Join(Var(1), Meet(Var(2), Var(3)))


def test_parens_override_precedence(c3):
    assert parse_expr("x1 & (x2 | x3)", 3, c3).root == \
        Meet(Var(1), Join(Var(2), Var(3)))


def test_constants_parse(c3):
    a = c3.element("a")
    assert parse_expr("a", 2, c3).root == Const(a)
    assert parse_expr("(a | x1) & x2", 2, c3).root == \
        Meet(Join(Const(a), Var(1)), Var(2))


def test_unicode_aliases(c3):
    assert parse_expr("x1 ∧ x2 ∨ x3", 3, c3).root == \
        parse_expr("x1 & x2 | x3", 3, c3).root


def test_element_named_like_a_letter_is_a_constant(named_square):
    # x and y are element names here; x3 would be a variable
    term = parse_expr("x & y", 2, named_square)
    assert term.root == Meet(Const(named_square.element("x")),
                             Const(named_square.element("y")))


def test_parse_error_positions(c3):
    with pytest.raises(ParseError) as err:
        parse_expr("x1 & $", 2, c3)
    assert err.value.position == 5
    with pytest.raises(ParseError, match="unknown constant 'q'") as err:
        parse_expr("x1 | q", 2, c3)
    assert err.value.position == 5
    with pytest.raises(ParseError, match="end of expression"):
        parse_expr("x1 &", 2, c3)
    with pytest.raises(ParseError, match="missing '\\)'"):
        parse_expr("(x1 | x2", 2, c3)
    with pytest.raises(ParseError, match="unexpected"):
        parse_expr("x1 x2", 2, c3)
    with pytest.raises(ParseError, match="unexpected"):
        parse_expr(") x1", 2, c3)
    with pytest.raises(ParseError, match="empty expression"):
        parse_expr("   ", 2, c3)


def test_deep_nesting_within_the_cap(c3):
    term = parse_expr("(" * 150 + "x1 & (x2 | a)" + ")" * 150, 2, c3)
    assert term.root == Meet(Var(1), Join(Var(2), Const(c3.element("a"))))
    for x, y in itertools.product(c3.elements, repeat=2):
        assert eval_term(term, (x, y)) == c3.meet(x, c3.join(y, c3.element("a")))
    # Every parenthesis pair and every operator is one level.
    parse_expr("(" * MAX_TERM_DEPTH + "x1" + ")" * MAX_TERM_DEPTH, 1, c3)
    parse_expr(" | ".join(["x1"] * (MAX_TERM_DEPTH + 1)), 1, c3)
    for text in ("(" * MAX_TERM_DEPTH + "x1 & x1" + ")" * MAX_TERM_DEPTH,
                 " & ".join(["x1"] * (MAX_TERM_DEPTH + 2))):
        with pytest.raises(ParseError, match="deeper than 200 levels"):
            parse_expr(text, 1, c3)


def test_variable_index_errors(c3):
    with pytest.raises(ParseError, match="at least 1"):
        parse_expr("x0", 2, c3)
    with pytest.raises(ParseError, match="exceeds arity"):
        parse_expr("x3", 2, c3)
    with pytest.raises(ParseError, match="arity"):
        parse_expr("x1", 0, c3)


def test_eval_median_at_mixed_point(c3):
    term = parse_expr(MEDIAN, 3, c3)
    a = c3.element("a")
    assert eval_term(term, (a, c3.top, c3.bottom)) == a


def test_eval_projection_and_constant(c3):
    proj = parse_expr("x2", 3, c3)
    const = parse_expr("a", 3, c3)
    for point in itertools.product(c3.elements, repeat=3):
        assert eval_term(proj, point) == point[1]
        assert eval_term(const, point) == c3.element("a")


def test_eval_point_validation(c3):
    term = parse_expr("x1 & x2", 2, c3)
    with pytest.raises(ValueError, match="arity"):
        eval_term(term, (c3.top,))
    other = chain(3)
    with pytest.raises(LatticeError, match="not an element"):
        eval_term(term, (c3.top, other.top))


def test_eval_is_monotone_exhaustively(c3, square):
    rng = random.Random(4821)
    for lat in (c3, square):
        for _ in range(8):
            term = random_term(rng, 2, 4, lat)
            pts = list(itertools.product(lat.elements, repeat=2))
            for p in pts:
                for q in pts:
                    if all(leq(lat, pi, qi) for pi, qi in zip(p, q)):
                        assert leq(lat, eval_term(term, p), eval_term(term, q))


def test_format_dnf_median(c3):
    f = canonicalize(parse_expr(MEDIAN, 3, c3))
    assert format_dnf(f) == "(x1 & x2) | (x1 & x3) | (x2 & x3)"


def test_format_dnf_constant(c3):
    assert format_dnf(canonicalize(parse_expr("a", 2, c3))) == "a"
    assert format_dnf(canonicalize(parse_expr("0", 2, c3))) == "0"
    assert format_dnf(canonicalize(parse_expr("1", 2, c3))) == "1"


def test_format_dnf_projection(c3):
    assert format_dnf(canonicalize(parse_expr("x1", 3, c3))) == "x1"


def test_format_dnf_truncated_median(c4):
    f = canonicalize(parse_expr(f"(a | ({MEDIAN})) & b", 3, c4))
    assert format_dnf(f) == "a | (b & x1 & x2) | (b & x1 & x3) | (b & x2 & x3)"


def test_format_dnf_round_trip_exhaustive(c3, named_square):
    for lat in (c3, named_square):
        for table in monotone_tables_by_filter(2, lat):
            f = from_monotone_table(table, 2, lat)
            text = format_dnf(f)
            assert canonicalize(parse_expr(text, 2, lat)) == f


def test_format_dnf_round_trip_random_terms(c4, rect23):
    rng = random.Random(90125)
    for lat in (c4, rect23):
        for _ in range(60):
            f = canonicalize(random_term(rng, 3, 5, lat))
            text = format_dnf(f)
            assert canonicalize(parse_expr(text, 3, lat)) == f
