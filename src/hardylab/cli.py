"""Command line front end: one flat parser, config batches, and exit codes.

Usage shapes (flags may come before or after the command):

    hardylab check-beurling --config runs/monomial.cfg
    hardylab --degree 6,6 check-beurling --symbol-file sym.txt
    hardylab example42 --seed 3 --out report.json

The parser has a positional command, --config, and one flag per row of
scenarios._RULES.  Only --out and --format, which never enter a
Scenario, are defined here.  Flags and their environment variables become
the same `key -> (origin, value)` settings a config's lines give, with the
origin `--flag` or `HARDYLAB_X` in place of `line N`, merged as flag >
environment > config > default.  Every scenario, from a config or from
flags alone, is read by scenarios.parse_scenario, so a bad value from any
origin exits 2 naming it.  A source flag such as --symbol-file replaces
the config's block or file for that source.  One scenario emits a pretty
JSON document (or text with --format text); several emit compact JSON
Lines in input order.  --out is opened before any run, so an unwritable
path or a directory exits 2 at once.  A missing or regular target
(through any symlink) is written to a temp file beside it and renamed
over it, so readers see the old report or the new one whole (the data is
not synced to disk first); a device or pipe is written in place.

Exit code 0 means every report met its expectations: the verdicts named
in the config's expect block match, or, without an expect block, the run
finished without an error status.  Exit code 1 flags a verdict mismatch
or an unexpected error status; exit code 2 flags bad input (unknown
command or flag, unreadable config, malformed value, missing or unread
source, unwritable --out), and an error from a config names that config's path.
Domain failures inside a run come back as reports whose status starts
with "error:".  Exit code 3 flags a bug: some run raised an exception
that is not a domain error, and its report's status starts with
"internal error:".
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import stat
import sys
from pathlib import Path

from .reports import emit_report
from .scenarios import (
    _RULES,
    COMMANDS,
    INTERNAL_ERROR,
    ScenarioError,
    Setting,
    expectations_met,
    parse_scenario,
    run_scenario,
)

__all__ = ["main", "build_parser"]

# The settings that never enter a Scenario.
_OUTPUT = {
    "out": Setting(None, "--out", "HARDYLAB_OUT", "PATH",
                   "write the report here instead of stdout"),
    "format": Setting(None, "--format", "HARDYLAB_FORMAT", "json|text",
                      "output format (default json)"),
}
_SETTINGS = {key: row for key, row in {**_OUTPUT, **_RULES}.items() if row.flag}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first call and shared by
    every main call: parse_args keeps nothing between calls, and the
    environment is read per call (_flag_settings)."""
    commands = "\n".join(f"  {name:<16}{command.help}" for name, command in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Finite-truncation checks for polydisc Hardy space operator theory.",
        epilog=f"commands:\n{commands}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", action="append", metavar="PATH",
                        help="scenario config file; repeat for a batch")
    for key, row in _SETTINGS.items():
        parser.add_argument(row.flag, dest=key, metavar=row.metavar, help=row.help)
    return parser


def _flag_settings(args) -> dict:
    """{key: (origin, value)} from the flags, else from the environment."""
    settings = {}
    for key, row in _SETTINGS.items():
        value = getattr(args, key)
        if value is not None:
            settings[key] = (row.flag, value)
        elif row.env is not None and row.env in os.environ:
            settings[key] = (row.env, os.environ[row.env])
    return settings


def _config_scenario(path_str: str, command: str, overrides: dict):
    """One config file's scenario, with the flag and environment settings on top.

    Every input error names the config it came from.
    """
    path = Path(path_str)
    if not path.is_file():
        raise ScenarioError(f"config {path_str!r} not found")
    try:
        s = parse_scenario(path.read_text(), scenario_id=path.stem, base_dir=path.parent,
                           default_command=command, overrides=overrides)
    except ValueError as exc:  # ScenarioError, or undecodable text
        raise ScenarioError(f"config {path_str!r}: {exc}") from None
    if s.command != command:
        raise ScenarioError(f"config {path_str!r} sets command {s.command!r} "
                            f"but the command line names {command!r}")
    return s


def _open_out(origin: str, out: str):
    """Open the --out target before any run: (file, temp path or None, final path)."""
    try:
        mode = os.stat(out).st_mode
    except OSError:  # missing, or an unreachable path the open below reports
        mode = None
    if mode is not None and stat.S_ISDIR(mode):
        raise ScenarioError(f"{origin}: cannot write {out!r}: Is a directory")
    try:
        if mode is not None and not stat.S_ISREG(mode):
            return open(out, "wb"), None, out
        target = Path(os.path.realpath(out))
        temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        sink = temp.open("wb")
    except OSError as exc:
        raise ScenarioError(f"{origin}: cannot write {out!r}: {exc.strerror}") from None
    return sink, temp, target


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _flag_settings(args)
        out_origin, out = overrides.pop("out", (None, None))
        origin, fmt = overrides.pop("format", (None, "json"))
        if fmt not in ("json", "text"):
            raise ScenarioError(f"{origin}: unknown format {fmt!r}; choose json or text")
        if args.config:
            if len(args.config) > 1:
                overrides.pop("id", None)
            scenarios = [_config_scenario(p, args.command, overrides) for p in args.config]
        else:
            scenarios = [parse_scenario("", scenario_id=f"cli-{args.command}",
                                        default_command=args.command, overrides=overrides)]
        sink, temp, target = _open_out(out_origin, out) if out else (None, None, None)
    except (ValueError, OSError) as exc:  # ScenarioError, or an unreadable file
        print(f"hardylab: error: {exc}", file=sys.stderr)
        return 2

    try:
        reports = [run_scenario(s) for s in scenarios]
        if len(reports) == 1:
            payload = emit_report(reports[0], fmt=fmt)
        elif fmt == "json":
            payload = b"".join(emit_report(r, fmt="json", compact=True) for r in reports)
        else:
            payload = b"\n".join(emit_report(r, fmt="text") for r in reports)
        if sink is None:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        else:
            with sink:
                sink.write(payload)
            if temp is not None:
                if target.exists():
                    shutil.copymode(target, temp)
                os.replace(temp, target)
    finally:
        if sink is not None:
            sink.close()
        if temp is not None:
            temp.unlink(missing_ok=True)

    if any(r.status.startswith(INTERNAL_ERROR) for r in reports):
        return 3
    good = all(expectations_met(r, s.expect) for r, s in zip(reports, scenarios))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
