"""Command-line interface: validation, law sweeps, certificates, and the
grid oracle.  All payloads are JSON on standard output; rationals are
"p/q" strings.

Exit codes: 0 success, 1 law or verdict failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import cache
from pathlib import Path

from .base_space import check_pc_lpc
from .checks import (
    OracleLedger,
    counterexample_report,
    sweep_indicator_compat,
    sweep_path_identities,
    sweep_psi_laws,
    sweep_retraction,
    sweep_retraction_on,
    sweep_round_trip,
    sweep_sigma_laws,
)
from .cylinder import psi_star, verify_psi_laws
from .functor import complement_report
from .fuzzy import FuzzyTopology, GroundSet, fz_is_topology, read_family
from .rationals import frac
from .retraction import read_certificates, verify_witness


class InputError(Exception):
    """Malformed input file or arguments (exit code 2)."""


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_topology(path: str, reader):
    """Apply a topology reader to the JSON file at path; malformed input
    exits 2."""
    doc = _load_json(path)
    try:
        return reader(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed topology file: {exc}") from exc


def _load_topology(path: str) -> FuzzyTopology:
    return _read_topology(path, FuzzyTopology.from_json)


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _cmd_validate(args) -> int:
    _, _, opens = _read_topology(args.topology, read_family)
    report = fz_is_topology(opens)
    _emit(report.to_json())
    return 0 if report.ok else 1


def _cmd_cylinder(args) -> int:
    topo = _load_topology(args.topology)
    if args.open is not None and args.open not in topo.names:
        raise InputError(f"no open named {args.open!r}")
    names = list(topo.names) if args.open is None else [args.open]
    doc = {}
    for name in names:
        doc[name] = psi_star(topo.open_named(name)).to_json()
    _emit(doc)
    return 0


def _cmd_counterexample(args) -> int:
    report = counterexample_report(args.elements)
    _emit(report)
    return 0 if report["verdict"] == "unequal" else 1


def _cmd_connectivity(args) -> int:
    topo = _load_topology(args.topology)
    _emit(check_pc_lpc(topo).to_json())
    return 0


def _cmd_laws(args) -> int:
    topo = _load_topology(args.topology) if args.topology else None
    rng = random.Random(args.seed)
    results = [
        sweep_psi_laws(rng, args.sweeps),
        sweep_round_trip(rng, max(args.sweeps, 100)),
        sweep_indicator_compat(),
        sweep_sigma_laws(rng, max(args.sweeps // 10, 3)),
    ]
    if topo is not None:
        report = verify_psi_laws(topo)
        report.name = "psi-laws-input"
        results.append(report)
    _emit([r.to_json() for r in results])
    return 0 if all(r.ok for r in results) else 1


def _cmd_verify_retraction(args) -> int:
    if args.replay:
        topo = _load_topology(args.topology)
        try:
            witnesses = read_certificates(topo, _load_json(args.replay))
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed certificate: {exc}") from exc
        verdicts = [verify_witness(w, topo) for w in witnesses]
        _emit({"replayed": len(verdicts), "ok": all(verdicts),
               "failures": [i for i, v in enumerate(verdicts) if not v]})
        return 0 if all(verdicts) else 1
    topo = _load_topology(args.topology)
    try:  # before the sweep, so an unwritable path costs nothing
        emit = open(args.emit, "w", encoding="utf-8") if args.emit else nullcontext()
    except OSError as exc:
        raise InputError(f"cannot write {args.emit}: {exc}") from exc
    with emit:
        rng = random.Random(args.seed)
        result, witnesses = sweep_retraction_on(topo, rng, anchors=args.sweeps)
        if args.emit:
            emit.write(json.dumps([w.to_json() for w in witnesses], separators=(",", ":")))
    _emit(result.to_json())
    return 0 if result.ok else 1


def _cmd_paths(args) -> int:
    rng = random.Random(args.seed)
    result = sweep_path_identities(rng, args.sweeps, args.grid_step)
    _emit(result.to_json())
    return 0 if result.ok else 1


def _cmd_decide_complement(args) -> int:
    topo = _load_topology(args.topology)
    try:
        F = topo.open_named(args.f)
        G = topo.open_named(args.g)
    except KeyError as exc:
        raise InputError(exc.args[0]) from exc
    report = complement_report(F, G)
    _emit(report.to_json())
    return 0 if report.inversion else 1


def _cmd_oracle(args) -> int:
    rng = random.Random(args.seed)
    ledger = OracleLedger()
    sweep_psi_laws(rng, max(args.sweeps // 4, 5), ledger)
    sweep_sigma_laws(rng, 3, ledger)
    sweep_retraction(rng, anchors=20, ledger=ledger)
    result = ledger.verify(args.resolution)
    _emit(result.to_json())
    return 0 if result.ok else 1


def _grid_step(text: str) -> Fraction:
    try:
        step = frac(text)
    except (TypeError, ValueError):
        step = None
    if step is None or step.numerator != 1 or step.denominator < 8:
        raise argparse.ArgumentTypeError(f"grid step must be 1/k with k >= 8, got {text!r}")
    return step


def _elements(text: str) -> tuple[str, ...]:
    """Comma-separated ground elements, checked by building the ground set."""
    try:
        return GroundSet(tuple(text.split(","))).elements
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _at_least(low: int):
    """An argparse type for an integer >= ``low`` ("integer" in its messages)."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as malformed input: one error: line, exit 2."""

    def error(self, message):
        raise InputError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fuzzcyl`` parser, built once per process: parsing leaves it
    unchanged and gives a fresh namespace each time.  It holds no handler;
    ``main`` looks up ``_cmd_<command>`` for each call."""
    parser = _Parser(
        prog="fuzzcyl",
        description="Exact cylinder-space toolkit for finite fuzzy topologies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--topology", required=True, help="JSON topology file")

    def sweep_flags(p):
        p.add_argument("--sweeps", type=_at_least(1), default=100)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("validate", help="check the topology axioms")
    common(p)

    p = sub.add_parser("cylinder", help="dump membership-graph regions")
    common(p)
    p.add_argument("--open", help="restrict to one named open")

    p = sub.add_parser("counterexample",
                       help="set complement vs algebraic complement on the "
                            "constant-1/3 topology")
    p.add_argument("--elements", type=_elements, default=("x",),
                   help="comma-separated ground elements")

    p = sub.add_parser("connectivity", help="base-space connectivity report")
    common(p)

    p = sub.add_parser("laws", help="algebraic law sweeps")
    p.add_argument("--topology", help="optionally also check this file")
    sweep_flags(p)

    p = sub.add_parser("verify-retraction",
                       help="generate or replay continuity certificates")
    common(p)
    sweep_flags(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--emit", help="write generated certificates to this file")
    mode.add_argument("--replay", help="verify certificates from this file")

    p = sub.add_parser("paths", help="path-calculus identity sweeps")
    sweep_flags(p)
    p.add_argument("--grid-step", type=_grid_step, default=Fraction(1, 64))

    p = sub.add_parser("decide-complement",
                       help="complement-as-path-inversion decision")
    common(p)
    p.add_argument("--f", required=True, help="name of the first open")
    p.add_argument("--g", required=True, help="name of the second open")

    p = sub.add_parser("oracle", help="grid cross-checks of symbolic results")
    sweep_flags(p)
    p.add_argument("--resolution", type=_at_least(2), default=64)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except SystemExit as exc:  # --help
        return 2 if exc.code not in (0, None) else 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
