"""Closed-form arity-gap classification.

Three classifiers, one per domain, each returning a verdict object whose
`gap` property is 1 or 2:

- Boolean functions: take the Zhegalkin polynomial, whose variables are
  exactly the essential ones, and test membership in the four gap-2
  families (up to permutation of variables). Everything else has gap 1.
- Functions from {0,1}^n into an arbitrary finite set, depending on all
  n >= 2 variables: gap 2 exactly when n = 2 and f(0,0) = f(1,1) for a
  nonconstant f, or when f factors as an injective unary map composed
  with a Boolean function of gap 2. Both conditions are checked and all
  that hold are reported.
- Lattice polynomial functions: gap 2 exactly for truncated medians,
  the functions (a or median(x,y,z)) and b with a strictly below b,
  possibly padded with inessential variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .finfun import FiniteFn, GapUndefinedError
from .lattice import Elem
from .polyfn import PolyFn, essential_variables, reduce_to_essential


@dataclass(frozen=True)
class ZhegalkinPoly:
    """A Boolean function as a parity of monomials (masks of positions)."""

    arity: int
    monomials: frozenset[int]

    def __post_init__(self):
        for m in self.monomials:
            if not isinstance(m, int) or not 0 <= m < (1 << self.arity):
                raise ValueError(f"monomial mask {m!r} out of range")

    def evaluate(self, point: Sequence[int]) -> int:
        mask = 0
        for k, bit in enumerate(point):
            if bit not in (0, 1):
                raise ValueError(f"bad Boolean digit {bit!r}")
            mask |= bit << k
        acc = 0
        for m in self.monomials:
            if m & ~mask == 0:
                acc ^= 1
        return acc

    @property
    def variables(self) -> tuple[int, ...]:
        """The positions occurring in some monomial: the essential ones."""
        support = 0
        for m in self.monomials:
            support |= m
        return tuple(k + 1 for k in range(self.arity) if (support >> k) & 1)

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for m in sorted(self.monomials, key=lambda m: (-bin(m).count("1"), m)):
            if m == 0:
                parts.append("1")
                continue
            factors = []
            mm = m
            while mm:
                bit = mm & -mm
                mm ^= bit
                factors.append(f"x{bit.bit_length()}")
            parts.append("".join(factors))
        return " + ".join(parts)


def zhegalkin_from_table(f: FiniteFn) -> ZhegalkinPoly:
    """Parity-transform a Boolean value table into its unique polynomial."""
    if any(a != 2 for a in f.sizes) or f.codomain != 2:
        raise ValueError("a Boolean function over {0,1}^n is required")
    coeffs = list(f.table)
    n = f.arity
    for k in range(n):
        bit = 1 << k
        for mask in range(1 << n):
            if mask & bit:
                coeffs[mask] ^= coeffs[mask ^ bit]
    return ZhegalkinPoly(n, frozenset(m for m, c in enumerate(coeffs) if c))


@dataclass(frozen=True)
class Gap1:
    """No gap-2 structure found; the arity gap is 1."""

    @property
    def gap(self) -> int:
        return 1

    def to_json(self) -> dict:
        return {"tag": "gap1", "gap": 1}

    def __str__(self) -> str:
        return "gap1"


@dataclass(frozen=True)
class BooleanForm:
    """A Boolean gap-2 family member.

    `form` names the family, `m` is the essential arity, `c` the parity
    constant, and `positions` lists the original variable positions in
    template order (for the two asymmetric families this pins down which
    variables play which role).
    """

    form: str
    m: int
    c: int
    positions: tuple[int, ...]

    @property
    def gap(self) -> int:
        return 2

    def to_json(self) -> dict:
        return {"tag": "boolean-form", "gap": 2, "form": self.form,
                "m": self.m, "c": self.c, "positions": list(self.positions)}

    def __str__(self) -> str:
        return (f"boolean-form({self.form}, m={self.m}, c={self.c}, "
                f"positions={list(self.positions)})")


@dataclass(frozen=True)
class PseudoBooleanCase:
    """A gap-2 verdict for a function from {0,1}^n into a finite set.

    `cases` lists every condition that holds (1: binary with equal
    values at the two constant points; 2: injective unary map composed
    with a Boolean gap-2 function). For case 2, `inner` is the Boolean
    verdict and `unary_map` the codomain values (g(0), g(1)).
    """

    cases: tuple[int, ...]
    inner: BooleanForm | None
    unary_map: tuple[int, int] | None

    @property
    def gap(self) -> int:
        return 2

    def to_json(self) -> dict:
        return {"tag": "pseudo-boolean", "gap": 2, "cases": list(self.cases),
                "inner": self.inner.to_json() if self.inner else None,
                "unary_map": list(self.unary_map) if self.unary_map else None}

    def __str__(self) -> str:
        inner = f", inner={self.inner}" if self.inner else ""
        unary = f", g={list(self.unary_map)}" if self.unary_map else ""
        return f"pseudo-boolean(cases={list(self.cases)}{inner}{unary})"


@dataclass(frozen=True)
class TruncatedMedian:
    """f is (low or median) and high on its three essential positions."""

    low: Elem
    high: Elem

    @property
    def gap(self) -> int:
        return 2

    def to_json(self) -> dict:
        return {"tag": "truncated-median", "gap": 2,
                "low": self.low.name, "high": self.high.name}

    def __str__(self) -> str:
        return f"truncated-median(low={self.low.name}, high={self.high.name})"


GapClassification = Gap1 | BooleanForm | PseudoBooleanCase | TruncatedMedian

SUM_FORM = "sum-form"
MIXED_FORM = "x1x2+x1"
MEDIAN_FORM = "median-form"
FOURTH_FORM = "form-4"


def classify_boolean_gap(f: FiniteFn) -> Gap1 | BooleanForm:
    """Decide the arity gap of a Boolean function in closed form.

    Needs at least two essential variables, the variables of its
    Zhegalkin polynomial. It has gap 2 exactly when that polynomial is,
    up to a permutation of variables and a parity constant c, one of

        x1 + ... + xm + c   (m >= 2)
        x1x2 + x1 + c
        x1x2 + x1x3 + x2x3 + c
        x1x2 + x1x3 + x2x3 + x1 + x2 + c

    and gap 1 otherwise.
    """
    poly = zhegalkin_from_table(f)
    positions = poly.variables
    if len(positions) < 2:
        raise GapUndefinedError("arity gap needs at least 2 essential variables")
    m = len(positions)
    # Renumber the monomials so that positions[t] becomes bit t.
    mono = {sum(1 << t for t, p in enumerate(positions) if (msk >> (p - 1)) & 1)
            for msk in poly.monomials}
    c = 1 if 0 in mono else 0
    mono.discard(0)
    singles = sorted(msk for msk in mono if bin(msk).count("1") == 1)
    full_triangle = {0b011, 0b101, 0b110}

    if mono == {1 << t for t in range(m)}:
        return BooleanForm(SUM_FORM, m, c, positions)
    if m == 2 and len(singles) == 1 and mono == {0b11, singles[0]}:
        lead = singles[0].bit_length()
        other = 3 - lead
        return BooleanForm(MIXED_FORM, m, c,
                           (positions[lead - 1], positions[other - 1]))
    if m == 3 and mono == full_triangle:
        return BooleanForm(MEDIAN_FORM, m, c, positions)
    if m == 3 and len(singles) == 2 and mono == full_triangle | set(singles):
        one, two = (s.bit_length() for s in singles)
        three = 6 - one - two
        return BooleanForm(FOURTH_FORM, m, c,
                           (positions[one - 1], positions[two - 1], positions[three - 1]))
    return Gap1()


def classify_pseudo_boolean_gap(f: FiniteFn) -> Gap1 | PseudoBooleanCase:
    """Decide the arity gap of f: {0,1}^n -> B, any finite B.

    f must depend on all of its n >= 2 variables. Gap 2 holds exactly
    when (1) n = 2 and f(0,0) = f(1,1), or (2) f is an injective unary
    map applied to a Boolean function with gap 2; the two conditions can
    overlap, so every one that holds is reported. Otherwise gap 1.
    """
    if any(a != 2 for a in f.sizes):
        raise ValueError("the domain must be {0,1}^n")
    n = f.arity
    if n < 2:
        raise GapUndefinedError("arity gap needs at least 2 variables")
    if len(essential_variables(f)) != n:
        raise ValueError("the function must depend on all of its variables")

    cases: list[int] = []
    inner: BooleanForm | None = None
    unary: tuple[int, int] | None = None
    if n == 2 and f.table[0] == f.table[3] and len(set(f.table)) > 1:
        cases.append(1)
    image = sorted(set(f.table))
    if len(image) == 2:
        for g0, g1 in (tuple(image), tuple(reversed(image))):
            h = FiniteFn(f.sizes, 2, bytes(0 if v == g0 else 1 for v in f.table))
            verdict = classify_boolean_gap(h)
            if verdict.gap == 2:
                cases.append(2)
                inner = verdict
                unary = (g0, g1)
                break
    if cases:
        return PseudoBooleanCase(tuple(cases), inner, unary)
    return Gap1()


def is_truncated_median(f: PolyFn) -> tuple[Elem, Elem] | None:
    """Return (low, high) when f is a truncated median, else None.

    After reducing to essential positions, f must be ternary with the
    coefficient at every subset of size <= 1 equal to some low value and
    at every subset of size >= 2 equal to some strictly higher value;
    those are f at the all-bottom and all-top points.
    """
    reduced, _ = reduce_to_essential(f)
    if reduced.arity != 3:
        return None
    table = reduced.table
    low, high = table[0], table[7]
    for mask in range(8):
        want = low if bin(mask).count("1") <= 1 else high
        if table[mask] != want:
            return None
    lat = f.lattice
    if low == high or not (lat._up[low] >> high) & 1:
        return None
    return lat.elements[low], lat.elements[high]


def classify_polynomial_gap(f: PolyFn) -> Gap1 | TruncatedMedian:
    """Decide the arity gap of a lattice polynomial function in closed form.

    Needs at least two essential variables. Truncated medians have gap
    2; every other polynomial function has gap 1. A truncated median
    has exactly three essential variables, so the truncated-median test
    (which builds the reduced function) runs only on those.
    """
    ess = len(essential_variables(f))
    if ess < 2:
        raise GapUndefinedError("arity gap needs at least 2 essential variables")
    pair = is_truncated_median(f) if ess == 3 else None
    if pair is not None:
        return TruncatedMedian(pair[0], pair[1])
    return Gap1()
