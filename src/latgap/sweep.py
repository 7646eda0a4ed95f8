"""Exhaustive classifier-against-oracle sweeps, for the CLI and the tests.

One loop, `_sweep`, takes each domain a chunk at a time, 1, 2, 4, ...
up to CHUNK_MAPS functions, so a sweep that stops at item s has drawn
fewer than 2s. Per chunk the classifier's answers, coded as the batch
oracle codes its own (mask and gap code bytes), are compared with the
oracle's, so one comparison decides the chunk. An agreeing chunk adds
its gap codes to the histogram, None counted as skipped. Only a chunk
that differs is walked, function by function, through its sweep's
check; the first counterexample stops the sweep. The check replays the
function through a per-function oracle, and only when that replay
sides with the classifier does the counterexample also name the batch
answers (`batch_gap`, `batch_essential`, and so on).

The Boolean sweep slices its answers from `boolean_gap_codes`, made
once for the whole domain; the pseudo-Boolean sweep asks
`table_gap_codes` per chunk. Both run their classifier on every
function of a chunk, code the verdicts and replay through
`gap_bruteforce`.

The gap-theorem sweep also caps a chunk by CHUNK_BYTES. There
`polyfn.value_columns` builds the coefficient and value columns, and
three batch answers come from them: `lane_gap_codes` on the value
columns (the oracle), on the coefficient columns (the oracle on the
maps' 0/1 restrictions) and `polynomial_gap_codes`, the batch
classifier. A chunk agrees when all three give the same bytes; it
builds no PolyFn and no verdict. A chunk that differs builds a PolyFn
per map and walks `classify_polynomial_gap` through the check, which
compares each verdict with all three answers, so a map where only the
batch classifier disagrees is a counterexample too. The replay is
`gap_bruteforce` on the map's value table and on its 0/1 restriction:
`restricted_essential` and `restricted_gap` are the restriction's
essential positions and gap, the latter named only where it differs
from `oracle_gap`. No state outlives a sweep.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .classify import (classify_boolean_gap, classify_polynomial_gap,
                       classify_pseudo_boolean_gap, polynomial_gap_codes)
from .finfun import (FiniteFn, boolean_gap_codes, enumerate_all_functions,
                     enumerate_monotone_maps, gap_bruteforce, lane_gap_codes, table_gap_codes)
from .lattice import Lattice
from .polyfn import _check_table_budget, _proven_polyfn, value_columns, value_table

Outcome = tuple[int | None, dict | None]

# A gap-theorem chunk of m maps over E = |L|^n points and S = 2^n
# coefficients peaks at about (4E + 12S + 64) * m + 50E + 300S bytes,
# which CHUNK_BYTES bounds: the maps' tuples, the last value pass, and
# the columns as bytes and as ints, one per point and one per
# coefficient, the latter read by two batch calls. A chunk that differs
# builds its PolyFns and verdicts once the columns are gone.
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
# The gap each batch code stands for; 3 means 3 or more.
_GAPS = (None, 1, 2, 3)


def _sweep(kind: str, params: dict, scanned_key: str, chunks: Iterable[tuple],
           check: Callable[..., Outcome]) -> SweepReport:
    # `chunks` yields each chunk's batch gap codes, with None when the
    # classifier agrees with the batch answers on the whole chunk, else
    # the check's arguments for each of its functions in order.
    start = time.perf_counter()
    scanned = 0
    gap_counts = {None: 0, 1: 0, 2: 0}  # None counts the skipped items
    counterexample = None
    for codes, walk in chunks:
        if walk is None:
            scanned += len(codes)
            for gap, code in _GAP_CODES.items():
                gap_counts[gap] += codes.count(code)
            continue
        for args in walk:
            scanned += 1
            gap, counterexample = check(*args)
            if counterexample is not None:
                break
            gap_counts[gap] += 1
        if counterexample is not None:
            break
    skipped = gap_counts.pop(None)
    return SweepReport(kind, params, scanned_key, scanned, scanned - skipped,
                       gap_counts, time.perf_counter() - start, counterexample)


def _positions(mask: bytes) -> tuple[int, ...]:
    # The positions a batch mask marks, sorted as a verdict lists them.
    bits = int.from_bytes(mask, "little")
    return tuple(k for k in range(1, 8 * len(mask) + 1) if (bits >> (k - 1)) & 1)


def _answers(width: int, masks: bytes, codes: bytes) -> Iterator[tuple[bytes, int]]:
    # Each function's (mask, gap code) from a chunk's batch answers.
    return ((masks[k * width:(k + 1) * width], code) for k, code in enumerate(codes))


def _ramp(items: Iterator, most: int, lanes: Callable[[list], tuple]) -> Iterator[tuple]:
    # What `lanes` makes of each list of items drawn, of 1, 2, 4, ... up
    # to `most`, so a sweep that stops at item s has drawn fewer than 2s.
    size = 1
    while batch := list(itertools.islice(items, size)):
        yield lanes(batch)
        size = min(2 * size, most)


def _classified(arity: int, chunks: Iterable[tuple], classify: Callable) -> Iterator[tuple]:
    # The chunks of a sweep whose classifier runs on every function: each
    # chunk's functions with their batch masks and gap codes become the
    # codes and, when the verdicts coded as the batch oracle codes its
    # answers differ from them, the walk of the chunk.
    masks_of = _Masks(arity)
    for functions, masks, codes in chunks:
        verdicts = list(map(classify, functions))
        if (bytes([_GAP_CODES.get(v.gap, 4) for v in verdicts]) == codes
                and b"".join([masks_of[v.essential] for v in verdicts]) == masks):
            yield codes, None
        else:
            yield codes, zip(functions, verdicts, _answers(masks_of.width, masks, codes))
        del functions, verdicts  # before the next chunk is built


def _check(replay: Callable) -> Callable[..., Outcome]:
    # Checks a verdict against its batch (mask, gap code), a code of 3
    # never agreeing, and on a gap-theorem map against the (mask, code)
    # of its 0/1 restriction and of the batch classifier. `replay(f)`
    # gives the per-function oracle's report, the counterexample's first
    # entry and, on a gap-theorem map, the restriction's report.
    def check(f, verdict, answer: tuple[bytes, int], restricted: tuple[bytes, int] | None = None,
              by_classifier: tuple[bytes, int] | None = None) -> Outcome:
        mask, code = answer
        gap = _GAPS[code]
        agrees = verdict.gap == gap and gap != 3 and verdict.essential == _positions(mask)
        if agrees and restricted in (None, answer) and by_classifier in (None, answer):
            return gap, None
        report, found, restriction = replay(f)
        found.update(classifier_gap=verdict.gap, oracle_gap=report.gap,
                     essential=list(verdict.essential),
                     oracle_essential=sorted(report.essential))
        batch = {"batch_gap": gap, "batch_essential": list(_positions(mask))}
        if restriction is not None:
            found["restricted_essential"] = sorted(restriction.essential)
            if restriction.gap != report.gap:
                found["restricted_gap"] = restriction.gap
            batch["batch_restricted_essential"] = list(_positions(restricted[0]))
            if restricted[1] != code:
                batch["batch_restricted_gap"] = _GAPS[restricted[1]]
        if agrees and by_classifier not in (None, answer):  # only the batch classifier is left
            batch.update(batch_classifier_gap=_GAPS[by_classifier[1]],
                         batch_classifier_essential=list(_positions(by_classifier[0])))
        if (verdict.gap == report.gap and report.gap in (None, 1, 2)
                and frozenset(verdict.essential) == report.essential
                and (restriction is None or (restriction.gap, restriction.essential)
                     == (report.gap, report.essential))):
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
        bytes(itertools.islice(codes, len(batch)))))
    return _sweep("boolean", {"arity": arity}, "scanned",
                  _classified(arity, chunks, classify_boolean_gap),
                  _check(lambda f: (gap_bruteforce(f), {"table": "".join(map(str, f.table))},
                                    None)))


def sweep_pseudo_boolean(arity: int, codomain: int) -> SweepReport:
    """classify_pseudo_boolean_gap against the byte-lane oracle on every
    function {0,1}^arity -> {0..codomain-1}, with gap_bruteforce
    replaying any disagreement. Both see the whole table and each finds
    the essential positions its own way."""
    functions = enumerate_all_functions(arity, 2, codomain)
    chunks = _ramp(functions, CHUNK_MAPS, lambda batch: (
        batch, *table_gap_codes((2,) * arity, [f.table for f in batch])))
    return _sweep("pseudo-boolean", {"arity": arity, "codomain": codomain}, "scanned",
                  _classified(arity, chunks, classify_pseudo_boolean_gap),
                  _check(lambda f: (gap_bruteforce(f), {"table": list(f.table)}, None)))


def sweep_gap_theorem(name: str, lattice: Lattice, arity: int) -> SweepReport:
    """polynomial_gap_codes and classify_polynomial_gap against the
    byte-lane oracle on every monotone coefficient table over `lattice`
    (shown as `name`). On every table, skipped or not, the coefficient,
    full-domain and 0/1-point essential positions and gaps must also
    agree; a disagreement is replayed through gap_bruteforce on the
    value table and on the 0/1 restriction, which give the
    counterexample. value_table's errors come before any map is drawn."""
    _check_table_budget(lattice, arity)
    sizes, binary = (lattice.size,) * arity, (2,) * arity
    maps = enumerate_monotone_maps(arity, lattice)
    points, subsets = lattice.size ** arity, 1 << arity
    most = max(1, min(CHUNK_MAPS, (CHUNK_BYTES - 50 * points - 300 * subsets)
                      // (4 * points + 12 * subsets + 64)))
    width = max(1, -(-arity // 8))

    def lanes(batch: list[tuple[int, ...]]) -> tuple[bytes, Iterator | None]:
        # The chunk's gap codes and, when its three batch answers differ,
        # its walk.
        _, coefficients, values = value_columns(lattice, arity, batch)
        oracle = lane_gap_codes(sizes, values)
        restricted = lane_gap_codes(binary, coefficients)
        by_classifier = polynomial_gap_codes(arity, coefficients)
        if by_classifier == oracle == restricted:
            return oracle[1], None
        del coefficients, values  # before the PolyFns are built
        fns = [_proven_polyfn(lattice, arity, coeffs) for coeffs in batch]
        return oracle[1], zip(fns, map(classify_polynomial_gap, fns),
                              *(_answers(width, *answers)
                                for answers in (oracle, restricted, by_classifier)))

    return _sweep("gap-theorem", {"lattice": name, "size": lattice.size, "arity": arity},
                  "monotone_maps", _ramp(maps, most, lanes),
                  _check(lambda f: (gap_bruteforce(value_table(f)),
                                    {"coefficients": [nm for _, nm in f.dump()]},
                                    gap_bruteforce(FiniteFn(binary, lattice.size, f.table)))))
