"""Command line front end: subcommands, config batches, and exit codes.

Usage shapes:

    hardylab check-beurling --config runs/monomial.cfg
    hardylab check-beurling --symbol-file sym.txt --degree 6,6
    hardylab example42 --budget 128 --out report.json
    hardylab factor --config a.cfg --config b.cfg

Settings resolve as flag > environment > config > default, with the
environment read from HARDYLAB_SEED, HARDYLAB_TOL, HARDYLAB_FORMAT,
HARDYLAB_DEGREE, and HARDYLAB_OUT.  One scenario emits a single
pretty-printed JSON document (or text with --format text); two or more
run one after another and emit compact JSON Lines, one report per line,
in input order.

Exit code 0 means every report met its expectations: the verdicts named
in the config's expect block match, or, without an expect block, the run
finished without an error status.  Exit code 1 flags a verdict mismatch
or an unexpected error status; exit code 2 flags bad input (unreadable
config, malformed value, missing source).  Domain failures inside a run
never escape as tracebacks; they come back as reports whose status field
starts with "error:".
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .reports import emit_report
from .scenarios import (
    COMMANDS,
    Scenario,
    ScenarioError,
    expectations_met,
    parse_int_tuple,
    parse_scenario,
    run_batch,
    validate_scenario,
)
from .subspaces import parse_basis_text
from .symbols import parse_coefficient_text
from .dilation import parse_tuple_text
from .grids import TruncationGrid

__all__ = ["main", "build_parser"]


def _env(name: str, cast, flag_hint: str):
    raw = os.environ.get(f"HARDYLAB_{name}")
    if raw is None:
        return None
    try:
        return cast(raw)
    except (ValueError, ScenarioError):
        raise ScenarioError(
            f"environment HARDYLAB_{name} has a bad value {raw!r} (see {flag_hint})"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Finite-truncation checks for polydisc Hardy space operator theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "check-beurling": "test a submodule for the Beurling quotient property",
        "check-brehmer": "test a commuting tuple or symbol against the standard model",
        "dilate": "build the canonical co-extension of a pure tuple",
        "factor": "divide one inner symbol by another and audit the gap",
        "example42": "reduced kernel suite: identity, negativity witness, inclusions",
        "identity-suite": "all compression identities for one subspace split",
    }
    for name in COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", action="append", metavar="PATH",
                       help="scenario config file; repeat for a batch")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), dest="fmt",
                       help="output format (default json)")
        p.add_argument("--seed", type=int, help="seed for any randomized search")
        p.add_argument("--tol", type=float, help="residual tolerance")
        p.add_argument("--degree", metavar="D1,D2,...",
                       help="per-variable truncation caps")
        p.add_argument("--margins", metavar="M1,M2,...",
                       help="per-variable evaluation window margins")
        p.add_argument("--id", dest="scenario_id", help="scenario id for the report")
        p.add_argument("--symbol-file", metavar="PATH", help="coefficient text for the symbol")
        p.add_argument("--phi-file", metavar="PATH", help="coefficient text for the divisor")
        p.add_argument("--tuple-file", metavar="PATH", help="matrix text for the tuple")
        p.add_argument("--basis-file", metavar="PATH", help="row-vector text for a subspace")
        if name == "example42":
            p.add_argument("--budget", type=int, help="Gram search candidate count")
            p.add_argument("--pairs", type=int, help="kernel identity sample pairs")
            p.add_argument("--pair-radius", type=float, dest="pair_radius",
                           help="radius for kernel sample points")
    return parser


def _load(path_str: str, parser, label: str):
    path = Path(path_str)
    if not path.is_file():
        raise ScenarioError(f"{label} {path_str!r} not found")
    try:
        return parser(path.read_text())
    except ValueError as exc:
        raise ScenarioError(f"{label} {path_str!r}: {exc}") from None


def _adhoc_scenario(args) -> Scenario:
    """Build one scenario straight from flags, without a config file."""
    caps = None
    if args.degree is not None:
        caps = parse_int_tuple(args.degree, "--degree")
    s = Scenario(
        scenario_id=args.scenario_id or f"cli-{args.command}",
        command=args.command,
        caps=caps,
    )
    if args.symbol_file:
        s.symbol = _load(args.symbol_file, parse_coefficient_text, "--symbol-file")
    if args.phi_file:
        s.phi = _load(args.phi_file, parse_coefficient_text, "--phi-file")
    if args.tuple_file:
        s.tuple_source = _load(args.tuple_file, parse_tuple_text, "--tuple-file")
    if args.basis_file:
        if s.caps is None:
            raise ScenarioError("--basis-file needs --degree for the grid shape")
        grid = TruncationGrid(s.caps)
        s.basis_rows = _load(args.basis_file, lambda t: parse_basis_text(t, grid),
                             "--basis-file")
    return s


def _resolve(flag_value, env_name, cast, flag_hint, current):
    """flag > environment > config/default, per setting."""
    if flag_value is not None:
        return flag_value
    from_env = _env(env_name, cast, flag_hint)
    if from_env is not None:
        return from_env
    return current


def _apply_overrides(s: Scenario, args) -> Scenario:
    s.tol = _resolve(args.tol, "TOL", float, "--tol", s.tol)
    if s.tol <= 0:
        raise ScenarioError(f"tol must be positive, got {s.tol}")
    s.seed = _resolve(args.seed, "SEED", int, "--seed", s.seed)
    caps_flag = parse_int_tuple(args.degree, "--degree") if args.degree is not None else None
    s.caps = _resolve(caps_flag, "DEGREE",
                      lambda v: parse_int_tuple(v, "HARDYLAB_DEGREE"),
                      "--degree", s.caps)
    if args.margins is not None:
        s.margins = parse_int_tuple(args.margins, "--margins")
    if s.command == "example42":
        for attr in ("budget", "pairs", "pair_radius"):
            value = getattr(args, attr, None)
            if value is not None:
                setattr(s, attr, value)
    return s


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            scenarios = []
            for path_str in args.config:
                path = Path(path_str)
                if not path.is_file():
                    raise ScenarioError(f"config {path_str!r} not found")
                s = parse_scenario(
                    path.read_text(),
                    scenario_id=path.stem,
                    base_dir=path.parent,
                    default_command=args.command,
                )
                if s.command != args.command:
                    raise ScenarioError(
                        f"config {path_str!r} sets command {s.command!r} "
                        f"but the subcommand is {args.command!r}"
                    )
                if args.scenario_id and len(args.config) == 1:
                    s.scenario_id = args.scenario_id
                scenarios.append(_apply_overrides(s, args))
        else:
            s = _apply_overrides(_adhoc_scenario(args), args)
            validate_scenario(s)
            scenarios = [s]

        fmt = _resolve(args.fmt, "FORMAT", str, "--format", "json")
        if fmt not in ("json", "text"):
            raise ScenarioError(f"unknown format {fmt!r}; choose json or text")
        out = _resolve(args.out, "OUT", str, "--out", None)
    except ScenarioError as exc:
        print(f"hardylab: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"hardylab: error: {exc}", file=sys.stderr)
        return 2

    reports = run_batch(scenarios)

    if len(reports) == 1:
        payload = emit_report(reports[0], fmt=fmt)
    elif fmt == "json":
        payload = b"".join(emit_report(r, fmt="json", compact=True) for r in reports)
    else:
        payload = b"\n".join(emit_report(r, fmt="text") for r in reports)

    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()

    good = all(expectations_met(r, s.expect) for r, s in zip(reports, scenarios))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
