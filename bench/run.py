"""latgap benchmark: one workload, driven through `latgap.cli.main` in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports latgap from the
checkout's `src/` and refuses to run without it. One invocation is one
fresh, single-threaded process running one workload as a closed loop
with one client: each request starts when the previous one has
returned. A pass is the workload's whole request list; passes repeat
until `--seconds` have elapsed (at least one pass).

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics
(see bench/README.md). Every request's output is checked. Human-readable
lines come first; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_SAMPLES = 15
# Child process that times `import latgap.cli` plus building the parser.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import latgap.cli
latgap.cli.build_parser()
t1 = time.perf_counter()
if not latgap.__file__.startswith(sys.argv[1]):
    sys.exit("imported latgap from " + latgap.__file__)
print(repr(t1 - t0))
"""

# Closure: layer self times plus cli.self_s must cover the traced wall
# time up to the harness's own work between requests.
MAX_UNATTRIBUTED_PCT = 2.0


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    # Returns None when the output passes, else why it failed.
    check: Callable[[dict], str | None]
    # Functions cross-checked against the oracle by this request.
    checks: int


# -- sweeps ------------------------------------------------------------

def sweep_check(expect: dict) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        if payload.get("ok") is not True or payload.get("disagreements") != 0:
            return f"sweep reported a disagreement: {payload.get('counterexample')}"
        got = {key: payload.get(key) for key in expect}
        return None if got == expect else f"counts {got} != expected {expect}"
    return check


# 2^16 functions; analysed = 2^16 - 2 constants - 2*4 essentially unary ones.
BOOLEAN_EXPECT = {"scanned": 65536, "analyzed": 65526,
                  "gap_counts": {"1": 65448, "2": 78}}
# 168^2 monotone maps (Dedekind D(4) = 168, per chain factor); analysed =
# 28224 - 4 constants - 4*5 essentially unary; gap 2 = 5 strict pairs * C(4,3).
LATTICE_EXPECT = {"monotone_maps": 28224, "analyzed": 28200,
                  "gap_counts": {"1": 28180, "2": 20}}


def boolean_sweep(seed: int) -> list[Request]:
    return [Request(("verify", "boolean", "--arity", "4", "--json"),
                    sweep_check(BOOLEAN_EXPECT), BOOLEAN_EXPECT["analyzed"])]


def lattice_sweep(seed: int) -> list[Request]:
    return [Request(("verify", "gap-theorem", "--lattice", "2x2", "--arity", "4", "--json"),
                    sweep_check(LATTICE_EXPECT), LATTICE_EXPECT["analyzed"])]


# -- analyze-mix ---------------------------------------------------------

# (builtin lattice spec, arity): |L|^n from 125 to 32768, |L| up to 40.
SHAPES = (
    ("chain3", 5), ("chain5", 3), ("chain5", 5), ("chain7", 4), ("chain7", 5),
    ("chain10", 4), ("chain12", 4), ("chain20", 3), ("chain30", 3), ("chain40", 2),
    ("cube2", 5), ("cube3", 3), ("cube3", 4), ("cube5", 2), ("cube5", 3),
    ("2x3", 4), ("2x3", 5), ("3x3", 4), ("4x4", 3), ("5x8", 2),
)
TERMS_PER_SHAPE = 10
MEDIANS_PER_SHAPE = 2


def chain_names(size: int) -> list[str]:
    """Element names of the builtin chainN, bottom to top."""
    inner = size - 2
    mids = ([chr(ord("a") + i) for i in range(inner)] if inner <= 26
            else [f"m{i}" for i in range(1, inner + 1)])
    return ["0", *mids, "1"]


def lattice_spec(spec: str) -> tuple[list[str], Callable[[int, int], bool]]:
    """Element names and the order (by name index) of a builtin lattice
    name, as the CLI documents them."""
    if m := re.fullmatch(r"chain([0-9]+)", spec):
        return chain_names(int(m.group(1))), lambda x, y: x <= y
    if m := re.fullmatch(r"cube([0-9]+)", spec):
        dim = int(m.group(1))
        names = ["".join("1" if (s >> k) & 1 else "0" for k in range(dim))
                 for s in range(1 << dim)]
        return names, lambda x, y: x & ~y == 0
    m = re.fullmatch(r"([0-9]+)x([0-9]+)", spec)
    left, right = chain_names(int(m.group(1))), chain_names(int(m.group(2)))
    width = len(right)
    names = [f"{a}_{b}" for a in left for b in right]
    return names, lambda x, y: x // width <= y // width and x % width <= y % width


def random_term(shape_rng: random.Random, names: list[str], used: int,
                rename: list[int]) -> str:
    """A random term in which exactly `used` distinct variables occur;
    variable v of the drawn term is written x{rename[v - 1]}."""
    arity = len(rename)
    leaves = [f"x{rename[v - 1]}" for v in shape_rng.sample(range(1, arity + 1), used)]
    for _ in range(shape_rng.randint(0, 3)):
        leaves.append(shape_rng.choice(names) if shape_rng.random() < 0.4
                      else f"x{rename[shape_rng.randint(1, arity) - 1]}")
    while len(leaves) > 1:
        a = leaves.pop(shape_rng.randrange(len(leaves)))
        b = leaves.pop(shape_rng.randrange(len(leaves)))
        leaves.append(f"({a}{shape_rng.choice((' & ', ' | '))}{b})")
    return leaves[0]


def analyze_check(median: dict | None) -> Callable[[dict], str | None]:
    def check(payload: dict) -> str | None:
        if payload.get("agreement") is not True:
            return f"classifier and oracle disagree: {payload.get('oracle')}"
        if payload.get("ess") != len(payload.get("essential", ())):
            return "ess does not match the essential list"
        if median is None:
            return None
        got = {"gap": payload.get("gap"), "essential": payload.get("essential"),
               "classification": payload.get("classification")}
        want = {"gap": 2, "essential": median["essential"],
                "classification": {"tag": "truncated-median", "gap": 2,
                                   "low": median["low"], "high": median["high"]}}
        return None if got == want else f"median verdict {got} != expected {want}"
    return check


def analyze_mix(seed: int) -> list[Request]:
    """A few hundred seeded `analyze --verify` requests over fixed shapes:
    random terms over at least two variables, and truncated medians
    (about one request in seven) whose verdict is known in advance.

    A request's cost rests mostly on how many of its variables are
    essential, and a few large shapes dominate a pass, so freely drawn
    terms would make the pass time swing with the seed. The term
    skeletons are therefore drawn once per shape, from the shape's name;
    the seed renames their variables, places and bounds the medians and
    orders the requests.
    """
    rng = random.Random(seed)
    requests = []
    for spec, arity in SHAPES:
        names, leq = lattice_spec(spec)
        shape_rng = random.Random(f"{spec}/{arity}")
        exprs: list[tuple[str, dict | None]] = []
        for t in range(TERMS_PER_SHAPE):
            rename = rng.sample(range(1, arity + 1), arity)
            # Cycling the number of variables used spreads the share of
            # inessential positions evenly over the shape's terms.
            exprs.append((random_term(shape_rng, names, 2 + t % (arity - 1), rename), None))
        pairs = [(x, y) for x in range(len(names)) for y in range(len(names))
                 if x != y and leq(x, y)]
        for _ in range(MEDIANS_PER_SHAPE if arity >= 3 else 0):
            i, j, k = rng.sample(range(1, arity + 1), 3)
            lo, hi = (names[t] for t in rng.choice(pairs))
            if rng.random() < 0.5:
                expr = f"({lo} | ((x{i} & x{j}) | (x{j} & x{k}) | (x{k} & x{i}))) & {hi}"
            else:
                expr = f"{lo} | ({hi} & ((x{i} | x{j}) & (x{j} | x{k}) & (x{k} | x{i})))"
            exprs.append((expr, {"low": lo, "high": hi, "essential": sorted((i, j, k))}))
        for expr, median in exprs:
            argv = ("analyze", "--lattice", spec, "--arity", str(arity),
                    "--expr", expr, "--verify", "--json")
            requests.append(Request(argv, analyze_check(median), 1))
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "boolean-sweep": boolean_sweep,
    "lattice-sweep": lattice_sweep,
    "analyze-mix": analyze_mix,
}


# -- running -------------------------------------------------------------

@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    checks: int
    failed: int


def run_pass(cli, requests: list[Request]) -> PassResult:
    latencies = []
    failed = 0
    clock = time.perf_counter
    start = clock()
    for req in requests:
        out = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(req.argv))
        except Exception:  # a crash is one failed check; the run goes on
            latencies.append(clock() - t0)
            failed += 1
            print(f"request {list(req.argv)} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        latencies.append(clock() - t0)
        if rc != 0:
            problem = f"exit status {rc}"
        else:
            try:
                payload = json.loads(out.getvalue())
            except json.JSONDecodeError as exc:
                problem = f"output is not JSON: {exc}"
            else:
                problem = (req.check(payload) if isinstance(payload, dict)
                           else "output is not a JSON object")
        if problem is not None:
            failed += 1
            print(f"request {list(req.argv)} failed: {problem}", file=sys.stderr)
    return PassResult(clock() - start, latencies, sum(r.checks for r in requests), failed)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure_setup() -> list[float]:
    """Import-and-parser time in fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout))
    return samples


def end_to_end(cli, requests: list[Request], seconds: float, report: dict) -> dict:
    setup = measure_setup()
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(cli, requests))
    latencies = [t for p in passes for t in p.latencies_s]
    attempted = len(latencies)
    failed = sum(p.failed for p in passes)
    report.update(attempted=attempted, failed=failed, samples={
        "setup_s": len(setup), "checks_per_s": len(passes),
        "request_p50_ms": attempted, "request_p95_ms": attempted, "peak_rss_mb": 1})
    report["error_rate"] = failed / attempted
    return {
        "setup_s": (statistics.median(setup), "s"),
        # Whole-run throughput: it averages over the machine's speed
        # drift, where a median of a few passes would pick one moment.
        "checks_per_s": (sum(p.checks for p in passes) / sum(p.wall_s for p in passes),
                         "1/s"),
        "request_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "request_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(cli, requests: list[Request], seconds: float, report: dict,
              spans_path: Path) -> dict:
    from tracer import COUNT_METRICS, RATIO_METRICS, Tracer

    start = time.perf_counter()
    # Fills finfun's memo caches, so that untraced and traced passes
    # compare like with like; its outputs are checked but not timed.
    warmup = run_pass(cli, requests)
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(cli, requests))
        with Tracer() as tracer:
            traced.append(run_pass(cli, requests))
        layers.append(tracer.layer_metrics())
        layers[-1]["trace.unattributed_pct"] = 100 * (
            1 - sum(v for k, v in layers[-1].items() if k.endswith("_s"))
            / traced[-1].wall_s)
    tracer.write(spans_path)

    problems = report["problems"]
    for i, layer in enumerate(layers):
        if not 0 <= layer["trace.unattributed_pct"] <= MAX_UNATTRIBUTED_PCT:
            problems.append(f"traced pass {i}: layer self times leave "
                            f"{layer['trace.unattributed_pct']:.2f}% of the wall time "
                            f"unattributed (limit {MAX_UNATTRIBUTED_PCT}%)")
    for key in COUNT_METRICS + RATIO_METRICS:
        if len({layer[key] for layer in layers}) != 1:
            problems.append(f"{key} differs between traced passes: "
                            f"{[layer[key] for layer in layers]}")

    passes = [warmup] + untraced + traced
    report.update(attempted=sum(len(p.latencies_s) for p in passes),
                  failed=sum(p.failed for p in passes),
                  samples={"traced_passes": len(traced), "untraced_passes": len(untraced)},
                  spans=str(spans_path.relative_to(ROOT)))
    out = {}
    for key in layers[0]:
        unit = ("count" if key in COUNT_METRICS else "ratio" if key in RATIO_METRICS
                else "%" if key.endswith("_pct") else "s")
        out[key] = (statistics.median(layer[key] for layer in layers), unit)
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in untraced)
    out["trace.overhead_pct"] = (100 * (overhead - 1), "%")
    return out


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ns = parser.parse_args(argv)

    if not (SRC / "latgap" / "cli.py").is_file():
        print(f"error: no latgap sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import latgap.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "latgap":
        print(f"error: imported latgap from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1

    requests = WORKLOADS[ns.workload](ns.seed)
    digest = hashlib.sha256(json.dumps([r.argv for r in requests]).encode()).hexdigest()
    report = {"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds,
              "trace": ns.trace, "requests_per_pass": len(requests),
              "inputs_sha256": digest, "problems": [],
              "env": {"python": platform.python_version(), "commit": git_commit(),
                      "nproc": os.cpu_count()}}
    stem = f"{ns.workload}-seed{ns.seed}"
    if ns.trace:
        metrics = per_layer(cli, requests, ns.seconds, report, OUT / f"{stem}.spans")
    else:
        metrics = end_to_end(cli, requests, ns.seconds, report)

    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}-trace{ns.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {ns.workload}  seed {ns.seed}  trace {ns.trace}  "
          f"requests/pass {len(requests)}  inputs sha256 {digest[:16]}")
    env = report["env"]
    print(f"python {env['python']}  commit {env['commit']}  nproc {env['nproc']}")
    for key, (value, unit) in metrics.items():
        print(f"{key:32s} {value:14.6g} {unit}")
    if "error_rate" in report:
        print(f"{'error_rate':32s} {report['error_rate']:14.6g} ratio")
    print(f"samples: {report['samples']}  attempted {report['attempted']}  "
          f"failed {report['failed']}")
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": report["failed"] == 0 and not report["problems"],
              "attempted": report["attempted"], "failed": report["failed"],
              "metrics": report["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
