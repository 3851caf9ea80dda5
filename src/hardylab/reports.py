"""Canonical run reports: stable JSON for machines, a summary for humans.

The JSON form is byte-deterministic for identical inputs: keys are sorted,
floats use the shortest round-trip representation, and nothing
time-dependent is serialized.  _jsonify is the one conversion to JSON:
every field passes through it, and it turns the numpy scalars, complex
numbers ([re, im]), tuples and arrays a command's details hold into plain
values.  Wall-clock runtime lives only on the in-memory object and in the
text rendering, so two runs of the same scenario emit identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__

__all__ = ["Report", "emit_report"]


def _jsonify(value):
    """Coerce numpy scalars and containers to plain JSON-ready Python."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, str) or value is None:
        return value
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in value]
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


@dataclass(frozen=True)
class Report:
    """Outcome of one scenario run.

    status is "ok", an "error: ..." string (a domain failure) or an
    "internal error: ..." string (a bug); residuals map names to reals,
    verdicts map names to booleans, and details carries any
    command-specific structured payload.  runtime_seconds is measured but
    never serialized to JSON.
    """

    scenario_id: str
    command: str
    caps: tuple | None
    tolerance: float
    seed: int
    residuals: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    status: str = "ok"
    details: dict = field(default_factory=dict)
    version: str = __version__
    runtime_seconds: float | None = None

    def __post_init__(self):
        # every verdict must point at the number it was judged on
        missing = sorted(set(self.verdicts) - set(self.residuals))
        if missing:
            raise ValueError(f"verdicts without a matching residual: {missing}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        """Every field but runtime_seconds, in field order, through _jsonify."""
        return _jsonify({f.name: getattr(self, f.name) for f in fields(self)
                         if f.name != "runtime_seconds"})


def _text_lines(report: Report) -> list:
    glyph = {True: "pass", False: "FAIL"}
    caps = "-" if report.caps is None else ",".join(str(c) for c in report.caps)
    lines = [
        f"scenario {report.scenario_id} [{report.command}]",
        f"  caps {caps}  tol {report.tolerance:g}  seed {report.seed}"
        f"  version {report.version}",
        f"  status {report.status}",
    ]
    if report.runtime_seconds is not None:
        lines.append(f"  runtime {report.runtime_seconds:.3f}s")
    for name in sorted(report.residuals):
        lines.append(f"  residual {name} = {report.residuals[name]!r}")
    for name in sorted(report.verdicts):
        lines.append(f"  verdict  {name}: {glyph[bool(report.verdicts[name])]}")
    return lines


def emit_report(report: Report, fmt: str = "json", compact: bool = False) -> bytes:
    """Serialize one report; json is canonical, text is for reading.

    compact json (one line, no spaces) is the batch JSON Lines form.
    """
    if fmt == "json":
        data = report.to_dict()
        if compact:
            text = json.dumps(data, sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False)
        else:
            text = json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False)
        return (text + "\n").encode("utf-8")
    if fmt == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode("utf-8")
    raise ValueError(f"unknown report format {fmt!r}")

