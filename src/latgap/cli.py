"""Command-line front end.

Exit status: 0 on success, 1 on any user error (bad arguments, files,
expressions, lattices), 2 when a verification run finds the closed-form
classifier disagreeing with the brute-force oracle.

The --lattice option accepts a path to a lattice file or one of the
builtin names chainN, cubeN, or NxM (a product of two chains); builtin
names take precedence over files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .classify import (classify_boolean_gap, classify_polynomial_gap,
                       zhegalkin_from_table)
from .finfun import FiniteFn, gap_bruteforce, parse_finite_fn
from .lattice import Lattice, LatticeError, builtin_lattice, parse_lattice
from .polyfn import canonicalize, value_table
from .sweep import sweep_boolean, sweep_gap_theorem, sweep_pseudo_boolean
from .terms import ParseError, format_dnf, parse_expr


def load_lattice(spec: str) -> Lattice:
    lat = builtin_lattice(spec)
    return lat if lat is not None else parse_lattice(Path(spec).read_text())


def _emit(ns, payload: dict, text_lines: list[str]) -> None:
    if getattr(ns, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_lattice_check(ns) -> int:
    try:
        lat = parse_lattice(Path(ns.path).read_text())
    except (LatticeError, OSError) as exc:
        if getattr(ns, "json", False):
            print(json.dumps({"valid": False, "error": str(exc)}, indent=2))
        else:
            print(f"invalid: {exc}")
        return 1
    payload = {"valid": True, "size": lat.size,
               "bottom": lat.bottom.name, "top": lat.top.name}
    _emit(ns, payload, [f"valid, |L|={lat.size}, bottom={lat.bottom.name}, top={lat.top.name}"])
    return 0


def _show(gap: int | None) -> str:
    return str(gap) if gap is not None else "undefined"


def _verdict_fields(verdict) -> tuple[dict, list[str]]:
    """The verdict's essential positions, gap and classification, as
    JSON fields and as text lines."""
    ess = list(verdict.essential)
    payload = {"essential": ess, "ess": len(ess), "gap": verdict.gap,
               "classification": verdict.to_json(), "oracle": None}
    lines = [f"essential: {ess}", f"ess: {len(ess)}", f"gap: {_show(verdict.gap)}",
             f"classification: {verdict}"]
    return payload, lines


def _emit_verified(ns, payload: dict, lines: list[str], table: FiniteFn) -> int:
    """Add the oracle's essential positions and gap for `table`, and
    whether both match the payload's own."""
    report = gap_bruteforce(table)
    oracle_ess = sorted(report.essential)
    payload["oracle"] = {"essential": oracle_ess, "gap": report.gap}
    lines.append(f"oracle: essential={oracle_ess}, gap={_show(report.gap)}")
    agree = oracle_ess == payload["essential"] and report.gap == payload["gap"]
    payload["agreement"] = agree
    lines.append("agreement: ok" if agree else "DISAGREEMENT between classifier and oracle")
    _emit(ns, payload, lines)
    return 0 if agree else 2


def cmd_analyze(ns) -> int:
    lat = load_lattice(ns.lattice)
    term = parse_expr(ns.expr, ns.arity, lat)
    f = canonicalize(term)
    fields, text = _verdict_fields(classify_polynomial_gap(f))
    dnf = format_dnf(f)
    payload = {
        "lattice": {"elements": list(lat.names),
                    "bottom": lat.bottom.name, "top": lat.top.name},
        "expr": ns.expr,
        "arity": ns.arity,
        "dnf": dnf,
        "coefficients": [{"subset": list(subset), "value": name}
                         for subset, name in f.dump()],
        **fields,
    }
    lines = [f"lattice: |L|={lat.size}, bottom={lat.bottom.name}, top={lat.top.name}",
             f"dnf: {dnf}", *text]
    if ns.verify:
        return _emit_verified(ns, payload, lines, value_table(f))
    _emit(ns, payload, lines)
    return 0


def _bool_fn_from_args(ns) -> FiniteFn:
    if ns.table is not None:
        bits = ns.table
        if not bits or set(bits) - {"0", "1"}:
            raise ValueError("the table must be a bitstring of 0s and 1s")
        n = (len(bits) - 1).bit_length()
        if len(bits) != 1 << n or len(bits) < 2:
            raise ValueError(f"table length {len(bits)} is not a power of two >= 2")
        return FiniteFn((2,) * n, 2, bytes(int(ch) for ch in bits))
    f = parse_finite_fn(Path(ns.file).read_text())
    if any(a != 2 for a in f.sizes) or f.codomain != 2:
        raise ValueError("the table file must hold a Boolean function (sizes 2 2)")
    return f


def cmd_bool_analyze(ns) -> int:
    f = _bool_fn_from_args(ns)
    poly = zhegalkin_from_table(f)
    fields, text = _verdict_fields(classify_boolean_gap(f))
    payload = {"arity": f.arity, "table": "".join(str(v) for v in f.table),
               "polynomial": str(poly), **fields}
    lines = [f"arity: {f.arity}", f"polynomial: {poly}", *text]
    if ns.verify:
        return _emit_verified(ns, payload, lines, f)
    _emit(ns, payload, lines)
    return 0


def cmd_verify(ns) -> int:
    report = ns.sweep(ns)
    _emit(ns, report.to_json(), [str(report)])
    return 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latgap",
        description="Polynomial functions over finite bounded distributive "
                    "lattices: canonical DNF, essential variables, arity gap.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-check", help="validate a lattice file")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice_check)

    p = sub.add_parser("analyze", help="analyze a lattice term")
    p.add_argument("--lattice", required=True,
                   help="lattice file, or chainN / cubeN / NxM")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the brute-force oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bool", help="Boolean function commands")
    bool_sub = p.add_subparsers(dest="bool_command", required=True)
    p = bool_sub.add_parser("analyze", help="analyze a Boolean truth table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--table", help="little-endian bitstring of length 2**n")
    group.add_argument("--file", help="table file in the finite-function format")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bool_analyze)

    p = sub.add_parser("verify", help="exhaustive classifier-vs-oracle sweeps")
    verify_sub = p.add_subparsers(dest="verify_command", required=True)
    q = verify_sub.add_parser("boolean")
    q.add_argument("--arity", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_verify, sweep=lambda ns: sweep_boolean(ns.arity))
    q = verify_sub.add_parser("pseudo-boolean")
    q.add_argument("--arity", type=int, required=True)
    q.add_argument("--codomain", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_verify,
                   sweep=lambda ns: sweep_pseudo_boolean(ns.arity, ns.codomain))
    q = verify_sub.add_parser("gap-theorem")
    q.add_argument("--lattice", required=True,
                   help="lattice file, or chainN / cubeN / NxM")
    q.add_argument("--arity", type=int, required=True)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_verify, sweep=lambda ns: sweep_gap_theorem(
        ns.lattice, load_lattice(ns.lattice), ns.arity))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return ns.func(ns)
    except (LatticeError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
