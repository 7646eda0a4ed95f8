"""Exhaustive classifier-against-oracle sweeps, for the CLI and the tests.

One driver loop feeds every item of a domain to that domain's check,
which runs the classifier and the oracle on it and returns the oracle's
gap (None, counted as skipped, for an item with fewer than two
essential variables) and a counterexample (None when classifier and
oracle agree on the gap and the essential positions). The first
counterexample stops the sweep.

The two table sweeps share one check. The Boolean sweep takes the
oracle's answers for the whole domain at once from the bit-sliced
`boolean_gap_codes`; the pseudo-Boolean sweep takes them from the
byte-lane `table_gap_codes`, a chunk at a time. Both still run the
library classifier on every function. The functions come from
`enumerate_all_functions`, which checks its arguments once and builds
each table valid by construction, with no per-function re-check. The
classifier's essential positions are compared with a sorted tuple per
batch mask. A disagreement is replayed through `gap_bruteforce`, so
the counterexample comes from the per-function pair; only when that
replay sides with the classifier does it also name the batch answer
(`batch_gap`, `batch_essential`).

Chunked sweeps draw their items in chunks of 1, 2, 4, ... up to
CHUNK_MAPS, so a sweep that stops at item s has drawn fewer than 2s.
The gap-theorem sweep also caps a chunk by CHUNK_BYTES.
`polyfn.value_columns` builds a chunk's
coefficient and value tables in columns, one byte per map, for the
byte-lane oracle `lane_gap_codes`; the coefficient columns are the
0/1-point restrictions. A map the lane answers disagree on is replayed
through `_gap_search`, on its own value_table, and `_ess_scan`. No
state outlives a sweep.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .classify import (classify_boolean_gap, classify_polynomial_gap,
                       classify_pseudo_boolean_gap)
from .finfun import (FiniteFn, GapReport, _ess_scan, _gap_search, boolean_gap_codes,
                     enumerate_all_functions, enumerate_monotone_maps, gap_bruteforce,
                     lane_gap_codes, table_gap_codes)
from .lattice import Lattice
from .polyfn import PolyFn, value_columns, value_table

Outcome = tuple[int | None, dict | None]

# A gap-theorem chunk of m maps over E = |L|^n points peaks at about
# (4E + 16 * 2^n) * m + 100 * (E + 2^n) bytes, which CHUNK_BYTES bounds:
# the last value pass, the maps' tuples, and the columns as bytes and as
# ints, one per point and one per coefficient. Smaller chunks run slower.
CHUNK_MAPS = 256
CHUNK_BYTES = 16 << 20


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


def _agree(verdict, report: GapReport) -> bool:
    return (verdict.gap == report.gap and report.gap in (None, 1, 2)
            and frozenset(verdict.essential) == report.essential)


def _both_answers(verdict, report: GapReport) -> dict:
    return {"classifier_gap": verdict.gap, "oracle_gap": report.gap,
            "essential": list(verdict.essential),
            "oracle_essential": sorted(report.essential)}


def _ramp(items: Iterator, most: int, lanes: Callable[[list], Iterable]) -> Iterator:
    # What `lanes` makes of the items, drawn in lists of 1, 2, 4, ... up
    # to `most`, so a sweep that stops at item s has drawn fewer than 2s.
    size = 1
    while batch := list(itertools.islice(items, size)):
        yield from lanes(batch)
        size = min(2 * size, most)


# The gap that a batch gap code stands for; 3 means 3 or more.
_CODE_GAPS = (None, 1, 2, 3)


def _table_check(classify: Callable[[FiniteFn], object], render: Callable[[bytes], object],
                 arity: int) -> Callable[[tuple[FiniteFn, int, int]], Outcome]:
    # Checks a function against its batch mask and gap code; a batch
    # gap code of 3 is always a disagreement. Per mask, the sorted
    # positions, as a verdict's `essential` lists them.
    positions = [tuple(k + 1 for k in range(arity) if (mask >> k) & 1)
                 for mask in range(1 << arity)]

    def check(item: tuple[FiniteFn, int, int]) -> Outcome:
        f, mask, code = item
        verdict = classify(f)
        gap = _CODE_GAPS[code]
        if verdict.gap == gap and gap != 3 and verdict.essential == positions[mask]:
            return gap, None
        report = gap_bruteforce(f)
        found = {"table": render(f.table), **_both_answers(verdict, report)}
        if _agree(verdict, report):
            found.update(batch_gap=gap, batch_essential=list(positions[mask]))
        return report.gap, found
    return check


def sweep_boolean(arity: int) -> SweepReport:
    """classify_boolean_gap against the bit-sliced oracle on every Boolean
    function of the given arity, with gap_bruteforce replaying any
    disagreement. A batch gap code of 3 is always a disagreement."""
    functions = enumerate_all_functions(arity, 2, 2)
    masks, codes = boolean_gap_codes(arity)
    check = _table_check(classify_boolean_gap, lambda table: "".join(map(str, table)), arity)
    return _sweep("boolean", {"arity": arity}, "scanned",
                  zip(functions, masks, codes), check)


def sweep_pseudo_boolean(arity: int, codomain: int) -> SweepReport:
    """classify_pseudo_boolean_gap against the byte-lane oracle on every
    function {0,1}^arity -> {0..codomain-1}, with gap_bruteforce
    replaying any disagreement. Both see the whole table and each finds
    the essential positions its own way."""
    functions = enumerate_all_functions(arity, 2, codomain)
    sizes = (2,) * arity
    # Within the budget the arity is at most 4, so a mask is one byte.
    items = _ramp(functions, CHUNK_MAPS, lambda batch: zip(
        batch, *table_gap_codes(sizes, [f.table for f in batch])))
    return _sweep("pseudo-boolean", {"arity": arity, "codomain": codomain}, "scanned",
                  items, _table_check(classify_pseudo_boolean_gap, list, arity))


def sweep_gap_theorem(name: str, lattice: Lattice, arity: int) -> SweepReport:
    """classify_polynomial_gap against the byte-lane oracle on every
    monotone coefficient table over `lattice` (shown as `name`). On every
    table, skipped or not, the coefficient, full-domain and 0/1-point
    essentiality criteria must also agree; a disagreement is replayed
    through _gap_search and _ess_scan, which give the counterexample."""
    sizes, binary = (lattice.size,) * arity, (2,) * arity
    maps = enumerate_monotone_maps(arity, lattice)
    points, subsets = lattice.size ** arity, 1 << arity
    most = max(1, min(CHUNK_MAPS, (CHUNK_BYTES - 100 * (points + subsets))
                      // (4 * points + 16 * subsets)))

    @functools.lru_cache(maxsize=65536)  # every mask up to MAX_ARITY = 16
    def essential(mask: bytes) -> tuple[int, ...]:
        # The positions a batch mask marks, sorted as a verdict lists them.
        bits = int.from_bytes(mask, "little")
        return tuple(k for k in range(1, arity + 1) if (bits >> (k - 1)) & 1)

    def lanes(batch: list[tuple[int, ...]]) -> list[tuple[PolyFn, bytes, int, bytes]]:
        # Each map with its lane answers; the columns die on return.
        fns, coefficients, values = value_columns(lattice, arity, batch)
        masks, codes = lane_gap_codes(sizes, values)
        restricted, _ = lane_gap_codes(binary, coefficients)
        width = len(masks) // len(batch)
        return [(f, masks[k * width:(k + 1) * width], codes[k],
                 restricted[k * width:(k + 1) * width]) for k, f in enumerate(fns)]

    def check(item: tuple[PolyFn, bytes, int, bytes]) -> Outcome:
        f, mask, code, restricted = item
        verdict = classify_polynomial_gap(f)
        gap = _CODE_GAPS[code]
        if (verdict.gap == gap and gap != 3 and verdict.essential == essential(mask)
                and restricted == mask):
            return gap, None
        report, ess01 = _gap_search(sizes, value_table(f).table), _ess_scan(binary, bytes(f.table))
        found = {"coefficients": [nm for _, nm in f.dump()],
                 **_both_answers(verdict, report), "restricted_essential": sorted(ess01)}
        if _agree(verdict, report) and ess01 == report.essential:
            found.update(batch_gap=gap, batch_essential=list(essential(mask)),
                         batch_restricted_essential=list(essential(restricted)))
        return report.gap, found

    return _sweep("gap-theorem", {"lattice": name, "size": lattice.size, "arity": arity},
                  "monotone_maps", _ramp(maps, most, lanes), check)
