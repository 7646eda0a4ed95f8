"""Polynomial functions over finite bounded distributive lattices.

Canonical DNF coefficient tables, essential variables, arity gap, and
closed-form gap classification, all cross-checkable against brute-force
oracles that work from raw value tables.
"""

from types import ModuleType as _ModuleType

from .classify import (FOURTH_FORM, MEDIAN_FORM, MIXED_FORM, SUM_FORM,
                       BooleanForm, Gap1, GapUndefined, PseudoBooleanCase,
                       TruncatedMedian, ZhegalkinPoly, classify_boolean_gap,
                       classify_polynomial_gap, classify_pseudo_boolean_gap,
                       zhegalkin_from_table)
from .finfun import (DEFAULT_BUDGET, EnumerationBudgetError, FiniteFn,
                     GapReport, boolean_gap_codes, enumerate_all_functions,
                     enumerate_monotone_maps, ess_bruteforce, gap_bruteforce,
                     identify_table, parse_finite_fn, point_index,
                     salomaa_function, table_gap_codes)
from .lattice import (Elem, Lattice, LatticeError, boolean_cube, builtin_lattice,
                      chain, lattice_from_covers, parse_lattice, product)
from .polyfn import (MAX_ARITY, MonotonicityError, PolyFn, canonicalize,
                     equivalent, essential_variables, identify,
                     reduce_to_essential, simple_substitution,
                     value_table)
from .terms import Const, Join, Meet, ParseError, Term, Var, format_dnf, parse_expr

__version__ = "0.1.0"

# Every public name imported above; the submodules, bound here by those
# imports, are not part of it.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
