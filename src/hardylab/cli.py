"""Command line front end: subcommands, config batches, and exit codes.

Usage shapes:

    hardylab check-beurling --config runs/monomial.cfg
    hardylab check-beurling --symbol-file sym.txt --degree 6,6
    hardylab example42 --budget 128 --out report.json
    hardylab factor --config a.cfg --config b.cfg

Flags and the environment (HARDYLAB_SEED, HARDYLAB_TOL, HARDYLAB_FORMAT,
HARDYLAB_DEGREE, HARDYLAB_OUT) become the same `key -> (origin, value)`
settings that a config's lines give, with the origin `--flag` or
`HARDYLAB_X` in place of `line N`.  They are merged over each config's
settings as flag > environment > config > default, and the merged
settings go through the scenario module's one per-key validator and one
source loader, so a bad value from any origin exits 2 naming that origin.
A source flag such as --symbol-file replaces the config's block or file
for that source.  One scenario emits a single pretty-printed JSON document
(or text with --format text); two or more run one after another and emit
compact JSON Lines, one report per line, in input order.

Exit code 0 means every report met its expectations: the verdicts named
in the config's expect block match, or, without an expect block, the run
finished without an error status.  Exit code 1 flags a verdict mismatch
or an unexpected error status; exit code 2 flags bad input (unreadable
config, malformed value, missing source), and an error from a config
names that config's path.  Domain failures inside a run never escape as
tracebacks; they come back as reports whose status field starts with
"error:".  Exit code 3 flags a bug: some run raised an exception that is
not a domain error, and its report's status starts with "internal error:".
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .reports import emit_report
from .scenarios import (
    COMMANDS,
    INTERNAL_ERROR,
    ScenarioError,
    build_scenario,
    expectations_met,
    parse_scenario,  # noqa: F401 - unused here; hlbench/tracing.py rebinds cli.parse_scenario
    read_config,
    run_batch,
)

__all__ = ["main", "build_parser"]

# settings key, flag, environment variable, metavar, help
_OPTIONS = (
    ("out", "--out", "HARDYLAB_OUT", "PATH", "write the report here instead of stdout"),
    ("format", "--format", "HARDYLAB_FORMAT", "json|text", "output format (default json)"),
    ("seed", "--seed", "HARDYLAB_SEED", "N", "seed for any randomized search"),
    ("tol", "--tol", "HARDYLAB_TOL", "X", "residual tolerance"),
    ("caps", "--degree", "HARDYLAB_DEGREE", "D1,D2,...", "per-variable truncation caps"),
    ("margins", "--margins", None, "M1,M2,...", "per-variable evaluation window margins"),
    ("id", "--id", None, "NAME", "scenario id for the report"),
    ("symbol_file", "--symbol-file", None, "PATH", "coefficient text for the symbol"),
    ("phi_file", "--phi-file", None, "PATH", "coefficient text for the divisor"),
    ("tuple_file", "--tuple-file", None, "PATH", "matrix text for the tuple"),
    ("basis_file", "--basis-file", None, "PATH", "row-vector text for a subspace"),
)
_EXAMPLE42_OPTIONS = (
    ("budget", "--budget", None, "N", "Gram search candidate count"),
    ("pairs", "--pairs", None, "N", "kernel identity sample pairs"),
    ("pair_radius", "--pair-radius", None, "R", "radius for kernel sample points"),
)


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
        options = _OPTIONS + (_EXAMPLE42_OPTIONS if name == "example42" else ())
        for key, flag, _, metavar, text in options:
            p.add_argument(flag, dest=key, metavar=metavar, help=text)
    return parser


def _flag_settings(args) -> dict:
    """{key: (origin, value)} from the flags, else from the environment."""
    settings = {}
    for key, flag, env, _, _ in _OPTIONS + _EXAMPLE42_OPTIONS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = (flag, value)
        elif env is not None and env in os.environ:
            settings[key] = (env, os.environ[env])
    return settings


def _config_scenario(path_str: str, command: str, overrides: dict):
    """One config file's scenario, with the flag and environment settings on top.

    Every input error names the config it came from.
    """
    path = Path(path_str)
    if not path.is_file():
        raise ScenarioError(f"config {path_str!r} not found")
    try:
        settings, blocks = read_config(path.read_text())
        for key in overrides:
            if key.endswith("_file"):
                blocks.pop(key.removesuffix("_file"), None)
        s = build_scenario({**settings, **overrides}, blocks, scenario_id=path.stem,
                           base_dir=path.parent, default_command=command)
    except ValueError as exc:  # ScenarioError, or undecodable text
        raise ScenarioError(f"config {path_str!r}: {exc}") from None
    if s.command != command:
        raise ScenarioError(
            f"config {path_str!r} sets command {s.command!r} "
            f"but the subcommand is {command!r}"
        )
    return s


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _flag_settings(args)
        _, out = overrides.pop("out", (None, None))
        origin, fmt = overrides.pop("format", (None, "json"))
        if fmt not in ("json", "text"):
            raise ScenarioError(f"{origin}: unknown format {fmt!r}; choose json or text")
        if args.config:
            if len(args.config) > 1:
                overrides.pop("id", None)
            scenarios = [_config_scenario(p, args.command, overrides) for p in args.config]
        else:
            scenarios = [build_scenario(overrides, {}, scenario_id=f"cli-{args.command}",
                                        default_command=args.command)]
    except (ValueError, OSError) as exc:  # ScenarioError, or an unreadable file
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

    if any(r.status.startswith(INTERNAL_ERROR) for r in reports):
        return 3
    good = all(expectations_met(r, s.expect) for r, s in zip(reports, scenarios))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
