"""Closed-form arity-gap classification.

Three classifiers, one per domain. Each answers every valid input with
a verdict that carries `essential`, the sorted essential positions the
classifier found its own way, and a `gap` property: None below two
essential positions (the verdict is GapUndefined, as the oracle's
`GapReport` has `gap = None` there), else 1 or 2.

- Boolean functions: take the Zhegalkin polynomial, whose variables are
  exactly the essential ones, and test membership in the four gap-2
  families (up to permutation of variables). Everything else has gap 1.
  A Moebius transform of the table read as one integer, n shift-xor
  steps with the arity's masks (kept up to polyfn.KEPT_JUMP_ARITY,
  built per call beyond), gives the coefficient integer t: bit p is
  the coefficient of monomial p. The verdict is read off t with the
  arity's other masks: position k is essential when t meets the
  monomials containing it, the constant is bit 0, and the sum form is
  t with no nonlinear monomial. Beyond three essential variables only
  the sum form is possible, so only a function with at most three
  unpacks its monomials. `zhegalkin_from_table` builds the validated
  ZhegalkinPoly from the same t.
- Functions from {0,1}^n into an arbitrary finite set: gap 2 exactly
  when two variables are essential and f(0,0) = f(1,1) on them (the
  others at 0), or when f factors as an injective unary map composed
  with a Boolean function of gap 2. Both conditions are checked and all
  that hold are reported; the second needs one Boolean verdict, since
  swapping the unary map's two values only complements h.
- Lattice polynomial functions: gap 2 exactly for truncated medians,
  the functions (a or median(x,y,z)) and b with a strictly below b,
  possibly padded with inessential variables.
  `polynomial_gap_codes` gives the same answers for a whole chunk of
  coefficient tables at once, in byte lanes of their coefficient
  columns, coded as finfun.lane_gap_codes codes the oracle's; the
  gap-theorem sweep decides an agreeing chunk with it alone. It shares
  no code with the oracle's lane core.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import combinations, compress
from typing import Iterator, Sequence

from .finfun import FiniteFn
from .lattice import Elem
from .polyfn import KEPT_JUMP_ARITY, PolyFn, _check_arity, _jump_plan, _jump_positions


@dataclass(frozen=True)
class ZhegalkinPoly:
    """A Boolean function as a parity of monomials (masks of positions)."""

    arity: int
    monomials: frozenset[int]

    def __post_init__(self):
        for m in self.monomials:
            if not isinstance(m, int) or not 0 <= m < (1 << self.arity):
                raise ValueError(f"monomial mask {m!r} out of range")

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


# Entry values as text digits, and text digits back as byte values.
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _anf_plan(n: int) -> tuple[tuple[tuple[int, int], ...],
                               tuple[tuple[int, int], ...], int]:
    # Over 2**n bits, from _jump_plan: the Moebius steps (the mask of
    # the monomials without position k, and its shift 2**(k-1)); per
    # position k, the monomials containing it (that mask's complement);
    # and the nonlinear monomials, those of at least two variables.
    full = (1 << (1 << n)) - 1
    plan = _jump_plan(n, 1)
    steps = tuple((mask, shift) for _, shift, mask in plan)
    uppers = tuple((k, full ^ mask) for k, _, mask in plan)
    nonlinear = full ^ 1 ^ sum(1 << (1 << k) for k in range(n))
    return steps, uppers, nonlinear


# Plans are kept up to KEPT_JUMP_ARITY = 10, as the jump masks are.
_kept_anf_plan = functools.lru_cache(maxsize=11)(_anf_plan)


def _moebius(f: FiniteFn) -> tuple[int, tuple]:
    # The coefficient integer t of f's Zhegalkin polynomial, whose bit p
    # is the coefficient of monomial p, and the plan of f's arity.
    if f.codomain != 2 or f.sizes != (2,) * len(f.sizes):
        raise ValueError("a Boolean function over {0,1}^n is required")
    plan = (_kept_anf_plan if f.arity <= KEPT_JUMP_ARITY else _anf_plan)(f.arity)
    # Bit p of t is entry p. Step k xors every entry into the one with
    # bit k also set, the Moebius transform over that bit.
    t = int(f.table[::-1].translate(_TO_DIGITS), 2)
    for mask, shift in plan[0]:
        t ^= (t & mask) << shift
    return t, plan


def _monomials(t: int) -> Iterator[int]:
    # The monomials whose coefficient bit is set in t, in increasing order.
    coeffs = format(t, "b")[::-1].encode().translate(_FROM_DIGITS)
    return compress(range(len(coeffs)), coeffs)


def zhegalkin_from_table(f: FiniteFn) -> ZhegalkinPoly:
    """Parity-transform a Boolean value table into its unique polynomial."""
    return ZhegalkinPoly(f.arity, frozenset(_monomials(_moebius(f)[0])))


@dataclass(frozen=True)
class GapUndefined:
    """Fewer than two essential positions: the arity gap is undefined."""

    essential: tuple[int, ...]

    @property
    def gap(self) -> None:
        return None

    def to_json(self) -> None:
        return None

    def __str__(self) -> str:
        return "undefined (fewer than 2 essential variables)"


@dataclass(frozen=True)
class Gap1:
    """No gap-2 structure found; the arity gap is 1."""

    essential: tuple[int, ...]

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
    def essential(self) -> tuple[int, ...]:
        return tuple(sorted(self.positions))

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
    essential: tuple[int, ...]

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
    essential: tuple[int, ...]

    @property
    def gap(self) -> int:
        return 2

    def to_json(self) -> dict:
        return {"tag": "truncated-median", "gap": 2,
                "low": self.low.name, "high": self.high.name}

    def __str__(self) -> str:
        return f"truncated-median(low={self.low.name}, high={self.high.name})"


SUM_FORM = "sum-form"
MIXED_FORM = "x1x2+x1"
MEDIAN_FORM = "median-form"
FOURTH_FORM = "form-4"


def classify_boolean_gap(f: FiniteFn) -> GapUndefined | Gap1 | BooleanForm:
    """Decide the arity gap of a Boolean function in closed form.

    The essential variables are those of its Zhegalkin polynomial, and
    below two of them the gap is undefined. It has gap 2 exactly when
    that polynomial is, up to a permutation of variables and a parity
    constant c, one of

        x1 + ... + xm + c   (m >= 2)
        x1x2 + x1 + c
        x1x2 + x1x3 + x2x3 + c
        x1x2 + x1x3 + x2x3 + x1 + x2 + c

    and gap 1 otherwise.
    """
    t, (_, uppers, nonlinear) = _moebius(f)
    positions = tuple([k for k, upper in uppers if t & upper])
    m = len(positions)
    if m < 2:
        return GapUndefined(positions)
    c = t & 1
    # Every variable occurs, so monomials of at most one variable each
    # make the sum form.
    if not t & nonlinear:
        return BooleanForm(SUM_FORM, m, c, positions)
    if m > 3:
        return Gap1(positions)
    # Renumber the monomials so that positions[i] becomes bit i.
    mono = {sum(1 << i for i, p in enumerate(positions) if (msk >> (p - 1)) & 1)
            for msk in _monomials(t)}
    mono.discard(0)
    singles = sorted(msk for msk in mono if bin(msk).count("1") == 1)
    full_triangle = {0b011, 0b101, 0b110}

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
    return Gap1(positions)


def classify_pseudo_boolean_gap(f: FiniteFn) -> GapUndefined | Gap1 | PseudoBooleanCase:
    """Decide the arity gap of f: {0,1}^n -> B, any finite B.

    Inessential variables may pad the table; below two essential ones
    the gap is undefined. Gap 2 holds exactly when (1) exactly two
    positions p and q are essential and f takes the same value at the
    all-zero point and at the point that is 1 at p and q only, or (2) f
    is an injective unary map applied to a Boolean function with gap 2;
    the two conditions can overlap, so every one that holds is reported.
    Otherwise gap 1.
    """
    if any(a != 2 for a in f.sizes):
        raise ValueError("the domain must be {0,1}^n")
    ess = _jump_positions(f)
    if len(ess) < 2:
        return GapUndefined(ess)

    cases: list[int] = []
    inner: BooleanForm | None = None
    unary: tuple[int, int] | None = None
    if len(ess) == 2 and f.table[0] == f.table[(1 << ess[0] - 1) | (1 << ess[1] - 1)]:
        cases.append(1)
    image = bytes(sorted(set(f.table)))
    if len(image) == 2:  # swapping g(0) and g(1) only complements h
        verdict = classify_boolean_gap(FiniteFn(f.sizes, 2, f.table.translate(
            bytes.maketrans(image, b"\x00\x01"))))
        if verdict.gap == 2:
            cases.append(2)
            inner = verdict
            unary = tuple(image)
    if cases:
        return PseudoBooleanCase(tuple(cases), inner, unary, ess)
    return Gap1(ess)


def classify_polynomial_gap(f: PolyFn) -> GapUndefined | Gap1 | TruncatedMedian:
    """Decide the arity gap of a lattice polynomial function in closed form.

    The essential variables are the positions of coefficient jumps, and
    below two of them the gap is undefined. Truncated medians have gap
    2; every other polynomial function has gap 1. A truncated median has
    three essential positions, and its coefficient is low at the subsets
    of at most one of them and high at the others. An inessential
    position never changes a coefficient, so the 8 subsets of the
    essential positions decide. low < high follows: the table is
    monotone and not constant.
    """
    ess = _jump_positions(f)
    if len(ess) < 2:
        return GapUndefined(ess)
    if len(ess) == 3:
        table = f.table
        i, j, k = (1 << (p - 1) for p in ess)
        low, high = table[0], table[i | j | k]
        if (table[i] == table[j] == table[k] == low
                and table[i | j] == table[i | k] == table[j | k] == high):
            elements = f.lattice.elements
            return TruncatedMedian(elements[low], elements[high], ess)
    return Gap1(ess)


def polynomial_gap_codes(arity: int, columns: Sequence[bytes]) -> tuple[bytes, bytes]:
    """classify_polynomial_gap on a chunk of coefficient tables at once,
    given in columns: byte f of column c is a_c of table f, one column
    per subset mask. The tables are taken to be monotone, as
    polyfn.value_columns proves them.

    Returns the answers in the format of finfun.lane_gap_codes: the
    masks, w = max(1, ceil(n / 8)) bytes per table, bytes f*w to
    f*w+w-1 read little-endian with bit k-1 set when position k of table
    f is essential; and one gap code byte per table, 0 below two
    essential positions (gap undefined), 2 for a truncated median and 1
    otherwise.

    The columns are read as big-endian integers, byte lane f being table
    f. Position k is essential in the lanes where a_c ^ a_{c+k} is
    nonzero for some c without k, folded into each lane's lowest bit. A
    bit-sliced counter over those planes marks the lanes with at least
    two and exactly three essential positions. A lane whose three are
    {i, j, k} holds a truncated median when a_0 = a_i = a_j = a_k and
    a_ij = a_ik = a_jk = a_ijk, read on the masks of those positions
    only, as classify_polynomial_gap reads them.

    Raises ValueError for an arity that is not an int in 0..MAX_ARITY
    and for columns that are not 2^arity of one length.
    """
    _check_arity(arity)
    size = 1 << arity
    if len(columns) != size or len(set(map(len, columns))) > 1:
        raise ValueError(f"need {size} columns of one length")
    count = len(columns[0])
    lanes = [int.from_bytes(column, "big") for column in columns]
    ones = int.from_bytes(b"\x01" * count, "big")
    ess = []
    for k in range(arity):
        bit = 1 << k
        plane = functools.reduce(operator.or_, [lanes[c] ^ lanes[c | bit]
                                               for c in range(size) if not c & bit], 0)
        for shift in (4, 2, 1):  # OR each lane's bits into its lowest
            plane |= plane >> shift
        ess.append(plane & ones)
    one = two = three = four = 0  # the lanes with at least that many
    for plane in ess:
        four |= three & plane
        three |= two & plane
        two |= one & plane
        one |= plane
    exactly3 = three & ~four
    median = 0
    for i, j, k in combinations(range(arity), 3) if exactly3 else ():
        triple = exactly3 & ess[i] & ess[j] & ess[k]
        if not triple:
            continue
        i, j, k = 1 << i, 1 << j, 1 << k
        low, high = lanes[0], lanes[i | j | k]
        off = ((low ^ lanes[i]) | (low ^ lanes[j]) | (low ^ lanes[k]) | (high ^ lanes[i | j])
               | (high ^ lanes[i | k]) | (high ^ lanes[j | k]))
        for shift in (4, 2, 1):
            off |= off >> shift
        median |= triple & ~off
    width = max(1, -(-arity // 8))
    masks = bytearray(count * width)
    for b in range(width):
        masks[b::width] = sum(plane << s for s, plane in enumerate(ess[8 * b:8 * b + 8])
                              ).to_bytes(count, "big")
    return bytes(masks), (two + median).to_bytes(count, "big")
