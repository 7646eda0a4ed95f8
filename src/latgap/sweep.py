"""Exhaustive classifier-against-oracle sweeps, for the CLI and the tests.

One loop, `_sweep`, takes each domain a chunk at a time, 1, 2, 4, ...
up to CHUNK_MAPS functions, so a sweep that stops at item s has drawn
fewer than 2s. Per chunk it runs the classifier once on every
function and codes the verdicts as the batch oracle codes its answers
(mask and gap code bytes, and for the gap-theorem sweep the 0/1-point
masks), so one comparison decides the chunk. An agreeing chunk adds
its gap codes to the histogram, None counted as skipped. Only a chunk
that differs is walked, function by function, through its sweep's
check on the verdicts already made; the first counterexample stops
the sweep. The check replays the function through a per-function
oracle, and only when that replay sides with the classifier does the
counterexample also name the batch answer (`batch_gap`,
`batch_essential`).

The Boolean sweep slices its answers from `boolean_gap_codes`, made
once for the whole domain; the pseudo-Boolean sweep asks
`table_gap_codes` per chunk, and both replay through `gap_bruteforce`.
The gap-theorem sweep also caps a chunk by CHUNK_BYTES: there
`polyfn.value_columns` builds the coefficient and value columns for
`lane_gap_codes`, and a map is replayed through `_gap_search` and
`_ess_scan`. No state outlives a sweep.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .classify import (classify_boolean_gap, classify_polynomial_gap,
                       classify_pseudo_boolean_gap)
from .finfun import (_ess_scan, _gap_search, boolean_gap_codes,
                     enumerate_all_functions, enumerate_monotone_maps, gap_bruteforce,
                     lane_gap_codes, table_gap_codes)
from .lattice import Lattice
from .polyfn import PolyFn, value_columns, value_table

Outcome = tuple[int | None, dict | None]

# A gap-theorem chunk of m maps over E = |L|^n points peaks at about
# (4E + 16 * 2^n + 256) * m + 100 * (E + 2^n) bytes, which CHUNK_BYTES
# bounds: the last value pass, the maps' tuples and PolyFns, and the
# columns as bytes and as ints, one per point and one per coefficient.
# Its verdicts (100-250 bytes a map) come once the columns are gone.
CHUNK_MAPS = 1024
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


class _Masks(dict):
    # The batch mask bytes of each sorted tuple of positions in 1..arity,
    # filled as met; any other tuple gets b"", which matches no chunk.
    def __init__(self, arity: int):
        super().__init__()
        self.arity, self.width = arity, max(1, -(-arity // 8))

    def __missing__(self, essential) -> bytes:
        try:
            mask = sum(1 << p - 1 for p in essential)
        except (TypeError, ValueError):  # a position that is not a positive int
            mask = -1
        found = mask.to_bytes(self.width, "little") if 0 <= mask < 1 << self.arity else b""
        self[essential] = found = found if _positions(found) == essential else b""
        return found


# The batch gap code of each gap a verdict may give; any other is coded
# 4, which no oracle writes, and an oracle code of 3 matches no verdict.
_GAP_CODES = {None: 0, 1: 1, 2: 2}


def _sweep(kind: str, params: dict, scanned_key: str, arity: int, chunks: Iterable[tuple],
           classify: Callable, check: Callable[..., Outcome]) -> SweepReport:
    # `chunks` yields functions with their batch masks, gap codes and
    # 0/1 masks (or None); `check` walks a chunk that does not agree.
    start = time.perf_counter()
    scanned = 0
    gap_counts = {None: 0, 1: 0, 2: 0}  # None counts the skipped items
    counterexample = None
    masks_of = _Masks(arity)
    width = masks_of.width
    for functions, masks, codes, restricted in chunks:
        verdicts = list(map(classify, functions))
        if (bytes([_GAP_CODES.get(v.gap, 4) for v in verdicts]) == codes
                and b"".join([masks_of[v.essential] for v in verdicts]) == masks
                and restricted in (None, masks)):
            scanned += len(verdicts)
            for gap, code in _GAP_CODES.items():
                gap_counts[gap] += codes.count(code)
        else:
            for k, (f, verdict) in enumerate(zip(functions, verdicts)):
                scanned += 1
                cut = slice(k * width, (k + 1) * width)
                gap, counterexample = check(f, verdict, masks[cut], codes[k],
                                            restricted and restricted[cut])
                if counterexample is not None:
                    break
                gap_counts[gap] += 1
            if counterexample is not None:
                break
        del functions, verdicts  # before the next chunk is built
    skipped = gap_counts.pop(None)
    return SweepReport(kind, params, scanned_key, scanned, scanned - skipped,
                       gap_counts, time.perf_counter() - start, counterexample)


def _positions(mask: bytes) -> tuple[int, ...]:
    # The positions a batch mask marks, sorted as a verdict lists them.
    bits = int.from_bytes(mask, "little")
    return tuple(k for k in range(1, 8 * len(mask) + 1) if (bits >> (k - 1)) & 1)


def _ramp(items: Iterator, most: int, lanes: Callable[[list], tuple]) -> Iterator[tuple]:
    # What `lanes` makes of each list of items drawn, of 1, 2, 4, ... up
    # to `most`, so a sweep that stops at item s has drawn fewer than 2s.
    size = 1
    while batch := list(itertools.islice(items, size)):
        yield lanes(batch)
        size = min(2 * size, most)


def _check(replay: Callable) -> Callable[..., Outcome]:
    # Checks a verdict against its batch mask, gap code (3 never agrees)
    # and 0/1 mask or None. `replay(f)` gives the per-function oracle's
    # report, the counterexample's first entry and, on a gap-theorem
    # map, the 0/1-point essential positions.
    def check(f, verdict, mask: bytes, code: int, restricted: bytes | None) -> Outcome:
        gap = (None, 1, 2, 3)[code]  # the gap a batch code stands for; 3 or more
        if (verdict.gap == gap and gap != 3 and verdict.essential == _positions(mask)
                and restricted in (None, mask)):
            return gap, None
        report, found, ess01 = replay(f)
        found.update(classifier_gap=verdict.gap, oracle_gap=report.gap,
                     essential=list(verdict.essential),
                     oracle_essential=sorted(report.essential))
        batch = {"batch_gap": gap, "batch_essential": list(_positions(mask))}
        if ess01 is not None:
            found["restricted_essential"] = sorted(ess01)
            batch["batch_restricted_essential"] = list(_positions(restricted))
        if (verdict.gap == report.gap and report.gap in (None, 1, 2)
                and frozenset(verdict.essential) == report.essential
                and ess01 in (None, report.essential)):
            found.update(batch)
        return report.gap, found
    return check


def sweep_boolean(arity: int) -> SweepReport:
    """classify_boolean_gap against the bit-sliced oracle on every Boolean
    function of the given arity, with gap_bruteforce replaying any
    disagreement. A batch gap code of 3 is always a disagreement."""
    functions = enumerate_all_functions(arity, 2, 2)
    masks, codes = map(iter, boolean_gap_codes(arity))
    chunks = _ramp(functions, CHUNK_MAPS, lambda batch: (
        batch, bytes(itertools.islice(masks, len(batch))),
        bytes(itertools.islice(codes, len(batch))), None))
    return _sweep("boolean", {"arity": arity}, "scanned", arity, chunks, classify_boolean_gap,
                  _check(lambda f: (gap_bruteforce(f), {"table": "".join(map(str, f.table))},
                                    None)))


def sweep_pseudo_boolean(arity: int, codomain: int) -> SweepReport:
    """classify_pseudo_boolean_gap against the byte-lane oracle on every
    function {0,1}^arity -> {0..codomain-1}, with gap_bruteforce
    replaying any disagreement. Both see the whole table and each finds
    the essential positions its own way."""
    functions = enumerate_all_functions(arity, 2, codomain)
    chunks = _ramp(functions, CHUNK_MAPS, lambda batch: (
        batch, *table_gap_codes((2,) * arity, [f.table for f in batch]), None))
    return _sweep("pseudo-boolean", {"arity": arity, "codomain": codomain}, "scanned", arity,
                  chunks, classify_pseudo_boolean_gap,
                  _check(lambda f: (gap_bruteforce(f), {"table": list(f.table)}, None)))


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
                      // (4 * points + 16 * subsets + 256)))

    def lanes(batch: list[tuple[int, ...]]) -> tuple[list[PolyFn], bytes, bytes, bytes]:
        # The chunk's maps with their lane answers; the columns die on return.
        fns, coefficients, values = value_columns(lattice, arity, batch)
        return (fns, *lane_gap_codes(sizes, values), lane_gap_codes(binary, coefficients)[0])

    return _sweep("gap-theorem", {"lattice": name, "size": lattice.size, "arity": arity},
                  "monotone_maps", arity, _ramp(maps, most, lanes), classify_polynomial_gap,
                  _check(lambda f: (_gap_search(sizes, value_table(f).table),
                                    {"coefficients": [nm for _, nm in f.dump()]},
                                    _ess_scan(binary, bytes(f.table)))))
