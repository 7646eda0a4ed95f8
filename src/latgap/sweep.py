"""Exhaustive classifier-against-oracle sweeps, for the CLI and the tests.

One driver loop feeds every item of a domain to that domain's check,
which returns the oracle's gap (None to skip an item with fewer than
two essential variables) and a counterexample (None when classifier
and oracle agree). The first counterexample stops the sweep.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .classify import (classify_boolean_gap, classify_polynomial_gap,
                       classify_pseudo_boolean_gap)
from .finfun import (FiniteFn, GapReport, _reduce_to, enumerate_all_functions,
                     enumerate_monotone_maps, ess_bruteforce, gap_bruteforce)
from .lattice import Lattice
from .polyfn import PolyFn, essential_variables, restrict_to_01, value_table

Outcome = tuple[int | None, dict | None]


@dataclass(frozen=True)
class SweepReport:
    """Parameters, counts, gap histogram, time and first counterexample
    of one sweep; `scanned_key` names the scanned count in the output."""

    kind: str
    params: dict
    scanned_key: str
    scanned: int
    analyzed: int
    gap_counts: dict[int, int]
    elapsed: float
    counterexample: dict | None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def to_json(self) -> dict:
        return {"sweep": self.kind, **self.params,
                self.scanned_key: self.scanned, "analyzed": self.analyzed,
                "skipped": self.scanned - self.analyzed,
                "gap_counts": {str(g): c for g, c in self.gap_counts.items()},
                "disagreements": 0 if self.ok else 1, "ok": self.ok,
                "counterexample": self.counterexample}

    def __str__(self) -> str:
        lines = [f"{key}: {value}" for key, value in self.to_json().items()
                 if key not in ("ok", "counterexample")]
        if not self.ok:
            lines.append(f"counterexample: {json.dumps(self.counterexample)}")
        lines.append("result: ok" if self.ok else "result: DISAGREEMENT")
        return "\n".join(lines)


def _sweep(kind: str, params: dict, scanned_key: str, items: Iterable,
           check: Callable[..., Outcome]) -> SweepReport:
    start = time.perf_counter()
    scanned = 0
    gap_counts = {None: 0, 1: 0, 2: 0}  # None counts the skipped items
    counterexample = None
    for item in items:
        scanned += 1
        gap, counterexample = check(item)
        if counterexample is not None:
            break
        gap_counts[gap] += 1
    skipped = gap_counts.pop(None)
    return SweepReport(kind, params, scanned_key, scanned, scanned - skipped,
                       gap_counts, time.perf_counter() - start, counterexample)


def _table_check(classify: Callable[[FiniteFn, GapReport], object],
                 render: Callable[[bytes], object]) -> Callable[[FiniteFn], Outcome]:
    # `classify` sees the function and the oracle's report on it.
    def check(f: FiniteFn) -> Outcome:
        report = gap_bruteforce(f)
        actual = report.gap
        if actual is None:
            return None, None
        claimed = classify(f, report).gap
        if claimed == actual and actual <= 2:
            return actual, None
        return actual, {"table": render(f.table),
                        "classifier_gap": claimed, "oracle_gap": actual}
    return check


def sweep_boolean(arity: int) -> SweepReport:
    """classify_boolean_gap against gap_bruteforce on every Boolean
    function of the given arity."""
    check = _table_check(lambda f, _: classify_boolean_gap(f), lambda t: "".join(map(str, t)))
    return _sweep("boolean", {"arity": arity}, "scanned",
                  enumerate_all_functions(arity, 2, 2), check)


def sweep_pseudo_boolean(arity: int, codomain: int) -> SweepReport:
    """classify_pseudo_boolean_gap, on each function reduced to its
    essential positions, against gap_bruteforce on the whole function,
    for every function {0,1}^arity -> {0..codomain-1}. The reduction
    pins the positions the oracle found inessential, without a rescan."""
    check = _table_check(
        lambda f, report: classify_pseudo_boolean_gap(_reduce_to(f, report.essential)[0]),
        list)
    return _sweep("pseudo-boolean", {"arity": arity, "codomain": codomain},
                  "scanned", enumerate_all_functions(arity, 2, codomain), check)


def sweep_gap_theorem(name: str, lattice: Lattice, arity: int) -> SweepReport:
    """classify_polynomial_gap against gap_bruteforce on every monotone
    coefficient table over `lattice` (shown as `name`). On every table,
    skipped or not, the coefficient, full-domain and 0/1-point
    essentiality criteria must also agree."""
    def check(coeffs: tuple[int, ...]) -> Outcome:
        f = PolyFn(lattice, arity, coeffs)
        ess = essential_variables(f)
        claimed = classify_polynomial_gap(f).gap if len(ess) >= 2 else None
        report = gap_bruteforce(value_table(f))
        actual, oracle_ess = report.gap, report.essential
        ess01 = ess_bruteforce(restrict_to_01(f))
        if claimed == actual and actual in (None, 1, 2) and oracle_ess == ess == ess01:
            return actual, None
        return actual, {"coefficients": [nm for _, nm in f.dump()],
                        "classifier_gap": claimed, "oracle_gap": actual,
                        "essential": sorted(ess),
                        "oracle_essential": sorted(oracle_ess),
                        "restricted_essential": sorted(ess01)}

    return _sweep("gap-theorem", {"lattice": name, "size": lattice.size, "arity": arity},
                  "monotone_maps", enumerate_monotone_maps(arity, lattice), check)
