"""Polynomial functions over finite bounded distributive lattices.

Canonical DNF coefficient tables, essential variables, arity gap, and
closed-form gap classification, all cross-checkable against brute-force
oracles that work from raw value tables.
"""

from .classify import (FOURTH_FORM, MEDIAN_FORM, MIXED_FORM, SUM_FORM,
                       BooleanForm, Gap1, GapClassification,
                       PseudoBooleanCase, TruncatedMedian, ZhegalkinPoly,
                       classify_boolean_gap, classify_polynomial_gap,
                       classify_pseudo_boolean_gap, is_truncated_median,
                       zhegalkin_from_table)
from .finfun import (DEFAULT_BUDGET, EnumerationBudgetError, FiniteFn,
                     GapReport, GapUndefinedError, enumerate_all_functions,
                     enumerate_monotone_maps, ess_bruteforce, format_finite_fn,
                     gap_bruteforce, identify_table, parse_finite_fn,
                     point_at, point_index, reduce_table, salomaa_function)
from .lattice import (Elem, Lattice, LatticeError, boolean_cube, builtin_lattice,
                      chain, format_lattice, lattice_from_covers, parse_lattice,
                      product)
from .polyfn import (MAX_ARITY, MonotonicityError, PolyFn, canonicalize,
                     characteristic_vector, equivalent, essential_variables,
                     eval_dnf, from_monotone_table, identify,
                     reduce_to_essential, restrict_to_01, simple_substitution,
                     value_table)
from .terms import (Const, Join, Meet, ParseError, Term, Var, eval_term,
                    format_dnf, parse_expr)

__version__ = "0.1.0"

__all__ = [
    "BooleanForm", "Const", "DEFAULT_BUDGET", "Elem", "FOURTH_FORM",
    "MEDIAN_FORM", "MIXED_FORM", "SUM_FORM",
    "EnumerationBudgetError", "FiniteFn", "Gap1", "GapClassification",
    "GapReport", "GapUndefinedError", "Join", "Lattice", "LatticeError",
    "MAX_ARITY", "Meet", "MonotonicityError", "ParseError", "PolyFn",
    "PseudoBooleanCase", "Term", "TruncatedMedian", "Var", "ZhegalkinPoly",
    "boolean_cube", "builtin_lattice", "canonicalize", "chain",
    "characteristic_vector",
    "classify_boolean_gap", "classify_polynomial_gap",
    "classify_pseudo_boolean_gap", "enumerate_all_functions",
    "enumerate_monotone_maps", "equivalent", "ess_bruteforce",
    "essential_variables", "eval_dnf",
    "eval_term", "format_dnf", "format_finite_fn", "format_lattice",
    "from_monotone_table", "gap_bruteforce", "identify", "identify_table",
    "is_truncated_median", "lattice_from_covers",
    "parse_expr", "parse_finite_fn", "parse_lattice", "point_at",
    "point_index", "product", "reduce_table", "reduce_to_essential",
    "restrict_to_01", "salomaa_function", "simple_substitution",
    "value_table", "zhegalkin_from_table",
]
