"""Command-line interface: JSON reports on stdout, diagnostics on stderr.

Exit codes: 0 on success (including in-band "not a reconstruction system"
findings), 2 for usage or parse problems, 3 when a numerical precondition
fails.  ``--tolerance`` and ``--iterations`` are checked before any subcommand
runs, whether or not it reads them; then ``main`` loads the system file of a subcommand
that takes one and hands it to the handler, so a malformed file is reported before the
subcommand's other options are read.  Block indices on ``--mask``/``--drop`` are 0-based.

A one-shot call is dominated by start-up, so each subcommand imports the
library modules it runs inside its handler and a call loads no others.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import asdict

import numpy as np

from ._linalg import check_tolerance
from .core import ReconstructionSystem
from .errors import GFramesError, StructuralError
from .serialize import (
    _complex,
    _loads,
    dumps_canonical,
    load_system,
    matrix_to_pairs,
    save_system,
    system_to_dict,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3

# Names of the built-in fixtures, sorted; listed here so that building the
# parser neither imports ``constructions`` nor builds every fixture system.
FIXTURE_NAMES = (
    "overlapping_planes",
    "overlapping_planes_dual",
    "redundant_without_projective_dual",
    "riesz_with_projective_dual",
    "riesz_without_projective_dual",
)


def _indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise StructuralError(f"expected comma-separated integers, got {text!r}") from exc


def _signal(text: str, d: int) -> np.ndarray:
    try:
        payload = _loads(text, "--signal")
    except json.JSONDecodeError as exc:
        raise StructuralError(f"--signal is not valid JSON: {exc.msg}") from exc
    if not isinstance(payload, list) or len(payload) != d:
        raise StructuralError(f"--signal must be a JSON list of {d} entries")
    out = np.zeros(d, dtype=np.complex128)
    for i, entry in enumerate(payload):
        number = _complex(entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0))
        if number is None or not cmath.isfinite(number):
            problem = "be finite" if number is not None else "be a number or [re, im] pair"
            raise StructuralError(f"--signal entry {i} must {problem}")
        out[i] = number
    return out


def _invalid_json(exc: json.JSONDecodeError) -> str:
    return f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"


def _load_dual(path: str):
    """``load_system(path)``, where a malformed file's message names ``--dual`` and its path."""
    try:
        return load_system(path)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"--dual {path}: {_invalid_json(exc)}") from exc
    except StructuralError as exc:
        raise StructuralError(f"--dual {path}: {exc}") from exc


def _report(args: argparse.Namespace, inputs: dict, outputs: dict) -> dict:
    return {
        "command": args.command,
        "inputs": inputs,
        "outputs": outputs,
        "tolerances": {"tolerance": args.tolerance},
    }


def _cmd_analyze(args: argparse.Namespace, system: ReconstructionSystem) -> dict:
    from .core import classify, frame_operator
    from .erasure import wce_condition

    shape = classify(system, args.tolerance)
    criterion = None
    if shape.is_projective and shape.is_rs:
        criterion = wce_condition(system, args.tolerance)
    outputs = {
        "signature": {"m": system.m, "k": list(system.k), "d": system.d},
        "classification": asdict(shape),
        "frame_operator": matrix_to_pairs(frame_operator(system)),
        "wce_condition": criterion,
    }
    return _report(args, {"path": str(args.path)}, outputs)


def _cmd_dual(args: argparse.Namespace, system: ReconstructionSystem) -> dict:
    from .duals import canonical_dual, verify_dual
    from .erasure import error_report, optimal_dual_two_error, wce_solve

    outputs: dict = {}
    if args.kind == "canonical":
        dual = canonical_dual(system, args.tolerance)
    elif args.kind == "two_error":
        dual = optimal_dual_two_error(system, args.tolerance)
    else:
        solution = wce_solve(system, iterations=args.iterations, tolerance=args.tolerance)
        dual = solution.dual
        outputs["achieved_worst_case"] = solution.achieved
        outputs["lower_bound"] = solution.lower_bound
        outputs["steps"] = solution.steps
    outputs["system"] = system_to_dict(dual)
    outputs["dual_residual"] = verify_dual(dual, system, args.tolerance).dual_residual
    outputs["error_report"] = asdict(error_report(system, dual))
    inputs = {"path": str(args.path), "kind": args.kind,
              "seed": args.seed, "iterations": args.iterations}
    return _report(args, inputs, outputs)


def _cmd_erase(args: argparse.Namespace, system: ReconstructionSystem) -> dict:
    from .core import analysis_apply
    from .duals import canonical_dual
    from .erasure import ErasureMask, blind_reconstruct, error_report

    dual = _load_dual(args.dual) if args.dual else canonical_dual(system, args.tolerance)
    mask = ErasureMask(_indices(args.mask), system.m)
    signal = _signal(args.signal, system.d)
    packets = analysis_apply(system, signal)
    rebuilt = blind_reconstruct(system, dual, packets, mask)
    outputs = {
        "reconstruction": matrix_to_pairs(rebuilt),
        "error_norm": float(np.linalg.norm(signal - rebuilt)),
        "error_report": asdict(error_report(system, dual)),
    }
    inputs = {"path": str(args.path), "dual": str(args.dual) if args.dual else None,
              "mask": list(mask.dropped), "signal": matrix_to_pairs(signal)}
    return _report(args, inputs, outputs)


def _cmd_truncate(args: argparse.Namespace, system: ReconstructionSystem) -> dict:
    from .stability import ck_sufficient_condition, truncate, truncated_canonical_dual

    drop = _indices(args.drop)
    report = truncate(system, drop, args.tolerance)
    holds, estimate = ck_sufficient_condition(system, drop, args.tolerance)
    outputs = {
        "dropped": list(report.dropped),
        "kept": list(report.kept),
        "is_rs_after": report.is_rs_after,
        "truncation_factor": matrix_to_pairs(report.truncation_factor),
        "truncated_frame_operator": matrix_to_pairs(report.truncated_frame_operator),
        "lower_bound_estimate": report.lower_bound_estimate,
        "bounds_after": list(report.bounds_after) if report.bounds_after else None,
        "energy_condition": {"holds": holds, "estimate": estimate},
        "truncated_dual": None,
    }
    if report.is_rs_after:
        dual = truncated_canonical_dual(system, drop, args.tolerance)
        outputs["truncated_dual"] = system_to_dict(dual)
    return _report(args, {"path": str(args.path), "drop": list(report.dropped)}, outputs)


def _cmd_approx(args: argparse.Namespace, system: ReconstructionSystem) -> dict:
    from .approx import nearest_projective
    from .core import classify

    projective, distance = nearest_projective(system, args.tolerance)
    shape = classify(projective, args.tolerance)
    outputs = {
        "system": system_to_dict(projective),
        "distance": distance,
        "weights": list(shape.weights) if shape.weights is not None else None,
    }
    return _report(args, {"path": str(args.path)}, outputs)


def _cmd_fixtures(args: argparse.Namespace) -> dict:
    from .constructions import fixtures
    from .core import classify

    catalog = fixtures()
    if args.name is None:
        outputs = {
            "available": [
                {"name": name,
                 "signature": {"m": sys_.m, "k": list(sys_.k), "d": sys_.d}}
                for name, sys_ in sorted(catalog.items())
            ],
        }
        return _report(args, {}, outputs)
    system = catalog[args.name]
    written = None
    if args.out:
        save_system(system, args.out)
        written = str(args.out)
    outputs = {
        "name": args.name,
        "system": system_to_dict(system),
        "classification": asdict(classify(system, args.tolerance)),
        "written": written,
    }
    return _report(args, {"name": args.name, "out": written}, outputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gframes",
        description="Finite-dimensional reconstruction systems: analysis, duals, "
                    "erasure robustness, truncation stability, projective approximation.")
    parser.add_argument("--tolerance", type=float, default=1e-9,
                        help="numerical tolerance, relative to the largest "
                             "singular value involved (default 1e-9)")
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the dual report's inputs; no subcommand "
                             "is randomized (default 0)")
    parser.add_argument("--iterations", type=int, default=5000,
                        help="iteration budget for iterative subcommands (default 5000)")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="classify a system file")
    analyze.add_argument("path")
    analyze.set_defaults(handler=_cmd_analyze)

    dual = commands.add_parser("dual", help="compute a dual system")
    dual.add_argument("path")
    dual.add_argument("--kind", choices=("canonical", "two_error", "wce"),
                      default="canonical")
    dual.set_defaults(handler=_cmd_dual)

    erase = commands.add_parser("erase", help="blind reconstruction under erasures")
    erase.add_argument("path")
    erase.add_argument("--dual", default=None,
                       help="dual system file (default: canonical dual)")
    erase.add_argument("--mask", default="",
                       help="comma-separated 0-based indices of lost packets")
    erase.add_argument("--signal", required=True,
                       help="JSON list of d entries, numbers or [re, im] pairs")
    erase.set_defaults(handler=_cmd_erase)

    trunc = commands.add_parser("truncate", help="drop blocks and report stability")
    trunc.add_argument("path")
    trunc.add_argument("--drop", required=True,
                       help="comma-separated 0-based indices of dropped blocks")
    trunc.set_defaults(handler=_cmd_truncate)

    approx = commands.add_parser("approx", help="nearest projective system")
    approx.add_argument("path")
    approx.set_defaults(handler=_cmd_approx)

    fixtures_cmd = commands.add_parser("fixtures", help="built-in worked examples")
    fixtures_cmd.add_argument("--name", choices=FIXTURE_NAMES, default=None)
    fixtures_cmd.add_argument("--out", default=None, help="write the system to this path")
    fixtures_cmd.set_defaults(handler=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        check_tolerance(args.tolerance)
        if args.iterations < 1:
            raise StructuralError("iterations must be at least 1")
        loaded = (load_system(args.path),) if "path" in vars(args) else ()
        rendered = dumps_canonical(args.handler(args, *loaded))
    except json.JSONDecodeError as exc:
        print(f"error: {_invalid_json(exc)}", file=sys.stderr)
        return EXIT_USAGE
    except (StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GFramesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    print(rendered)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
