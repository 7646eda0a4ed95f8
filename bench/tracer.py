"""Span tracing of latgap's public functions, from outside the package.

A Tracer, while installed, rebinds each function in TARGETS in every
`latgap.*` module namespace that holds it. The CLI and `classify`
import these functions by name, so rebinding only the defining module
would miss their calls. Methods (the dataclass `__post_init__`
validators) are rebound on their class. A target that no longer exists
is skipped and its metrics read zero.

Each call records a span (name, parent, start, end) in flat arrays in
memory. A function that returns a generator gets one span per item
drawn from it, so lazy enumeration is timed where it happens. Self
times, counts and ratios are derived from the spans after the traced
pass, outside the timed region.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from pathlib import Path
from types import GeneratorType

# (defining module, attribute, per-layer metric its spans' self time counts toward)
TARGETS = (
    ("cli", "main", "cli.self_s"),
    ("lattice", "lattice_from_covers", "lattice.build_s"),
    ("lattice", "chain", "lattice.build_s"),
    ("lattice", "boolean_cube", "lattice.build_s"),
    ("lattice", "product", "lattice.build_s"),
    ("lattice", "parse_lattice", "lattice.build_s"),
    ("terms", "parse_expr", "terms.parse_s"),
    ("terms", "format_dnf", "terms.format_dnf_s"),
    ("polyfn", "canonicalize", "polyfn.canonicalize_s"),
    ("polyfn", "PolyFn.__post_init__", "polyfn.construct_s"),
    ("polyfn", "essential_variables", "polyfn.essential_variables_s"),
    ("polyfn", "value_table", "polyfn.value_table_s"),
    ("polyfn", "restrict_to_01", "polyfn.value_table_s"),
    ("finfun", "FiniteFn.__post_init__", "finfun.construct_s"),
    ("finfun", "enumerate_all_functions", "finfun.enumerate_s"),
    ("finfun", "enumerate_monotone_maps", "finfun.enumerate_s"),
    ("finfun", "ess_bruteforce", "finfun.ess_bruteforce_s"),
    ("finfun", "reduce_table", "finfun.reduce_table_s"),
    ("finfun", "gap_bruteforce", "finfun.gap_bruteforce_s"),
    ("finfun", "identify_table", "finfun.gap_bruteforce_s"),
    ("classify", "classify_boolean_gap", "classify.boolean_s"),
    ("classify", "classify_pseudo_boolean_gap", "classify.boolean_s"),
    ("classify", "zhegalkin_from_table", "classify.zhegalkin_s"),
    ("classify", "classify_polynomial_gap", "classify.polynomial_s"),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric in TARGETS))
COUNT_METRICS = ("lattice.build_calls", "polyfn.value_table_cells",
                 "finfun.functions_enumerated", "finfun.ess_bruteforce_calls",
                 "finfun.minors_built")
RATIO_METRICS = ("finfun.analyzed_ratio", "finfun.minors_per_gap")


class Tracer:
    """Records spans of TARGETS between install() and uninstall()."""

    def __init__(self):
        self.names = [f"{m}.{a}" for m, a, _ in TARGETS]
        self._nid = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self.yields = [0] * len(TARGETS)
        self.cells = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "latgap" or name.startswith("latgap.")]
        for nid, (module, attr, _) in enumerate(TARGETS):
            owner = importlib.import_module(f"latgap.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                continue
            traced = self._wrap(original, nid)
            if path:
                self._rebind(owner, leaf, original, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, traced)

    def _rebind(self, owner, key: str, original, traced) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording ----------------------------------------------------

    def _wrap(self, fn, nid: int):
        nids, parents, starts, ends = self._nid, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns
        count_cells = self.names[nid] == "polyfn.value_table"

        def traced(*args, **kwargs):
            i = len(ends)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if type(result) is GeneratorType:
                return self._iterate(result, nid)
            if count_cells:
                self.cells += len(result.table)
            return result

        return traced

    def _iterate(self, it, nid: int):
        nids, parents, starts, ends = self._nid, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns
        while True:
            i = len(ends)
            nids.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                ends[i] = clock()
                stack.pop()
            self.yields[nid] += 1
            yield item

    # -- analysis -----------------------------------------------------

    def self_times_ns(self) -> list[int]:
        """Per target: total span time not covered by child spans.

        Raises ValueError if spans overlap instead of nesting, which
        would make a self time negative.
        """
        nids, parents, starts, ends = self._nid, self._parent, self._start, self._end
        child = [0] * len(ends)
        for i, p in enumerate(parents):
            if p >= 0:
                child[p] += ends[i] - starts[i]
        out = [0] * len(TARGETS)
        for i, nid in enumerate(nids):
            own = ends[i] - starts[i] - child[i]
            if own < 0:
                raise ValueError(f"span {i} ({self.names[nid]}) overlaps its children")
            out[nid] += own
        return out

    def calls(self) -> list[int]:
        out = [0] * len(TARGETS)
        for nid in self._nid:
            out[nid] += 1
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Self times (s) by metric, plus the exact counts and their ratios."""
        times = dict.fromkeys(TIME_METRICS, 0)
        for (_, _, metric), own in zip(TARGETS, self.self_times_ns()):
            times[metric] += own
        out: dict[str, float] = {k: v / 1e9 for k, v in times.items()}
        calls = dict(zip(self.names, self.calls()))
        yields = dict(zip(self.names, self.yields))
        enumerated = (yields["finfun.enumerate_all_functions"]
                      + yields["finfun.enumerate_monotone_maps"])
        gaps = calls["finfun.gap_bruteforce"]
        minors = calls["finfun.identify_table"]
        out["lattice.build_calls"] = calls["lattice.lattice_from_covers"]
        out["polyfn.value_table_cells"] = self.cells
        out["finfun.functions_enumerated"] = enumerated
        out["finfun.ess_bruteforce_calls"] = calls["finfun.ess_bruteforce"]
        out["finfun.minors_built"] = minors
        out["finfun.analyzed_ratio"] = gaps / enumerated if enumerated else 0.0
        out["finfun.minors_per_gap"] = minors / gaps if gaps else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as one JSON header line, then four little-endian arrays:
        int32 name ids, int32 parent indices (-1 for a root), int64 start
        and int64 end (perf_counter_ns)."""
        arrays = (self._nid, self._parent, self._start, self._end)
        header = {"names": self.names, "spans": len(self._end),
                  "arrays": ["nid:i32", "parent:i32", "start_ns:i64", "end_ns:i64"]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                if sys.byteorder != "little":
                    arr = array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)
