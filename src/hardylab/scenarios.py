"""Scenario configs: flat keys, labeled blocks, and the dispatch to checks.

A scenario file is line-oriented.  Flat settings are `key = value`; multi
line payloads are labeled blocks

    symbol:
    numerator
    1 1 0 0 1.0 0.0
    end

terminated by a bare `end`.  Block bodies reuse the package text formats:
`symbol:` and `phi:` hold coefficient records, `tuple:` holds labeled
matrix blocks, `basis:` holds coefficient row-vectors, and `expect:` holds
`name = true|false` verdict assertions (plus an optional `status = ...`
line).  Every error message carries the offending line number.

run_scenario never raises for domain failures: the error lands in the
report's status field so a batch keeps going.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .criteria import (
    beurling_criterion,
    cross_commutator_criterion,
    identity_suite,
    quotient_data,
)
from .dilation import ContractionTuple, canonical_dilation, model_correspondence, parse_tuple_text
from .factorization import beurling_submodule_check, invariant_subspace_from_factorization
from .grids import TruncationGrid
from .kernels import reduced_kernel_suite
from .operators import eval_margins
from .reports import Report
from .subspaces import parse_basis_text, submodule_projection, subspace_from_rows
from .symbols import AnalyticSymbol, dump_coefficient_text, parse_coefficient_text

__all__ = [
    "Scenario",
    "ScenarioError",
    "COMMANDS",
    "parse_scenario",
    "run_scenario",
    "run_batch",
    "expectations_met",
]

COMMANDS = (
    "check-beurling",
    "check-brehmer",
    "dilate",
    "factor",
    "example42",
    "identity-suite",
)

_BLOCKS = ("symbol", "phi", "tuple", "basis", "expect")
_KEYS = (
    "id", "command", "caps", "tol", "seed", "margins",
    "symbol_file", "phi_file", "tuple_file", "basis_file",
    "budget", "pairs", "pair_radius",
)


class ScenarioError(ValueError):
    """Config text or scenario validation failure (an input error)."""


@dataclass
class Scenario:
    scenario_id: str
    command: str
    caps: tuple | None = None
    tol: float = 1e-8
    seed: int = 0
    margins: tuple | None = None
    symbol: AnalyticSymbol | None = None
    phi: AnalyticSymbol | None = None
    tuple_source: ContractionTuple | None = None
    basis_rows: np.ndarray | None = None
    budget: int = 64
    pairs: int = 20
    pair_radius: float = 0.6
    expect: dict = field(default_factory=dict)


def parse_int_tuple(value: str, label: str) -> tuple:
    """Integers separated by commas or spaces; label names the config line or flag."""
    try:
        parts = tuple(int(x) for x in value.replace(",", " ").split())
    except ValueError:
        raise ScenarioError(f"{label} wants integers, got {value!r}") from None
    if not parts:
        raise ScenarioError(f"{label} is empty")
    return parts


def _parse_bool(value: str, lineno: int) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ScenarioError(f"line {lineno}: expected true/false, got {value!r}")


def parse_scenario(text: str, scenario_id: str = "scenario",
                   base_dir=None, default_command: str | None = None) -> Scenario:
    """Parse and validate one scenario config.

    base_dir anchors any *_file references; defaults (tol 1e-8, seed 0,
    margins from the symbol degrees) are applied here, and every
    diagnostic names the config line it came from.  default_command fills
    in when the text has no `command =` line, letting a caller that
    already knows the command (the CLI subcommand) reuse a bare config.
    """
    settings: dict = {}
    blocks: dict = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.split("#", 1)[0].strip()
        i += 1
        if not line:
            continue
        if line.endswith(":"):
            name = line[:-1].strip().lower()
            if name not in _BLOCKS:
                raise ScenarioError(f"line {i}: unknown block {name!r}")
            if name in blocks:
                raise ScenarioError(f"line {i}: duplicate block {name!r}")
            start = i
            body = []
            while i < len(lines):
                inner = lines[i].split("#", 1)[0].strip()
                if inner == "end":
                    break
                body.append(lines[i])
                i += 1
            else:
                raise ScenarioError(f"line {start}: block {name!r} has no 'end'")
            i += 1
            blocks[name] = (start, "\n".join(body))
            continue
        if "=" not in line:
            raise ScenarioError(f"line {i}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().lower(), value.strip()
        if key not in _KEYS:
            raise ScenarioError(f"line {i}: unknown setting {key!r}")
        if key in settings:
            raise ScenarioError(f"line {i}: duplicate setting {key!r}")
        settings[key] = (i, value)

    def take(key, default=None):
        return settings.pop(key, (0, default))

    base = Path(base_dir) if base_dir is not None else Path(".")

    def read_source(block_name, file_key, parser, label):
        block = blocks.get(block_name)
        lineno, path = take(file_key)
        if block is not None and path is not None:
            raise ScenarioError(
                f"line {lineno}: both {block_name!r} block and {file_key} given"
            )
        if block is not None:
            start, body = block
            try:
                return parser(body)
            except ValueError as exc:
                raise ScenarioError(f"{label} block at line {start}: {exc}") from None
        if path is not None:
            target = base / path
            if not target.is_file():
                raise ScenarioError(f"line {lineno}: {file_key} {path!r} not found")
            try:
                return parser(target.read_text())
            except ValueError as exc:
                raise ScenarioError(f"{file_key} {path!r}: {exc}") from None
        return None

    lineno, command = take("command")
    if command is None:
        command = default_command
    if command is None:
        raise ScenarioError("missing required setting 'command'")
    if command not in COMMANDS:
        raise ScenarioError(
            f"line {lineno}: unknown command {command!r}; choose from {', '.join(COMMANDS)}"
        )

    _, sid = take("id", scenario_id)
    scenario = Scenario(scenario_id=sid, command=command)

    lineno, caps = take("caps")
    if caps is not None:
        scenario.caps = parse_int_tuple(caps, f"line {lineno}: caps")
        if any(c < 1 for c in scenario.caps):
            raise ScenarioError(f"line {lineno}: caps must be >= 1, got {scenario.caps}")
    lineno, margins = take("margins")
    if margins is not None:
        scenario.margins = parse_int_tuple(margins, f"line {lineno}: margins")
    lineno, tol = take("tol")
    if tol is not None:
        try:
            scenario.tol = float(tol)
        except ValueError:
            raise ScenarioError(f"line {lineno}: tol wants a number, got {tol!r}") from None
        if scenario.tol <= 0:
            raise ScenarioError(f"line {lineno}: tol must be positive, got {tol}")
    for key, attr, cast in (("seed", "seed", int), ("budget", "budget", int),
                            ("pairs", "pairs", int),
                            ("pair_radius", "pair_radius", float)):
        lineno, value = take(key)
        if value is not None:
            try:
                setattr(scenario, attr, cast(value))
            except ValueError:
                raise ScenarioError(f"line {lineno}: bad value for {key}: {value!r}") from None

    scenario.symbol = read_source("symbol", "symbol_file", parse_coefficient_text, "symbol")
    scenario.phi = read_source("phi", "phi_file", parse_coefficient_text, "phi")
    scenario.tuple_source = read_source("tuple", "tuple_file", parse_tuple_text, "tuple")

    basis_grid_caps = scenario.caps
    def parse_basis(body):
        if basis_grid_caps is None:
            raise ValueError("a basis block needs explicit caps")
        return parse_basis_text(body, TruncationGrid(basis_grid_caps))
    scenario.basis_rows = read_source("basis", "basis_file", parse_basis, "basis")

    if "expect" in blocks:
        start, body = blocks["expect"]
        for offset, raw in enumerate(body.splitlines()):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(
                    f"line {start + 1 + offset}: expect wants 'name = true|false'"
                )
            name, _, value = line.partition("=")
            name = name.strip()
            if name == "status":
                scenario.expect[name] = value.strip()
            else:
                scenario.expect[name] = _parse_bool(value, start + 1 + offset)

    validate_scenario(scenario)
    return scenario


def validate_scenario(s: Scenario):
    """Check that the command has the sources it needs, before any math starts."""
    needs = {
        "check-beurling": ("symbol or basis", s.symbol is not None or s.basis_rows is not None),
        "identity-suite": ("symbol or basis", s.symbol is not None or s.basis_rows is not None),
        "check-brehmer": ("symbol or tuple", s.symbol is not None or s.tuple_source is not None),
        "dilate": ("tuple", s.tuple_source is not None),
        "factor": ("symbol and phi", s.symbol is not None and s.phi is not None),
        "example42": ("nothing", True),
    }
    label, ok = needs[s.command]
    if not ok:
        raise ScenarioError(f"command {s.command!r} needs {label}")
    if s.basis_rows is not None and s.caps is None:
        raise ScenarioError("a basis source needs explicit caps")


def _resolved_caps(s: Scenario, nvars: int) -> tuple:
    if s.caps is not None:
        if len(s.caps) != nvars:
            raise ValueError(f"caps {s.caps} do not match {nvars} variables")
        return s.caps
    return (4,) * nvars


def _subspace_for(s: Scenario):
    if s.basis_rows is not None:
        sub = subspace_from_rows(TruncationGrid(s.caps), s.basis_rows)[0]
        margins = s.margins if s.margins is not None else (1,) * len(s.caps)
        return sub, margins
    caps = _resolved_caps(s, s.symbol.nvars)
    sub = submodule_projection(s.symbol, TruncationGrid(caps), inner_tol=s.tol)
    margins = s.margins if s.margins is not None else eval_margins(s.symbol)
    return sub, margins


def _run_check_beurling(s: Scenario):
    sub, margins = _subspace_for(s)
    data = quotient_data(sub, margins=margins)
    b = beurling_criterion(data, tol=s.tol)
    c = cross_commutator_criterion(sub, margins=margins, tol=s.tol)
    verdicts = {
        "beurling_defect_product": b.verdict,
        "cross_commutator": c.verdict,
        "xij": data.xij <= s.tol,
    }
    agree = len(set(verdicts.values())) == 1
    verdicts["verdicts_agree"] = agree
    residuals = dict(b.residuals)
    residuals["cross_commutator"] = c.residuals["cross_commutator"]
    residuals["xij"] = data.xij
    residuals["verdicts_agree"] = 0.0 if agree else 1.0
    return residuals, verdicts, {}, sub.grid.caps


def _run_identity_suite(s: Scenario):
    sub, margins = _subspace_for(s)
    data = quotient_data(sub, margins=margins)
    suite = identity_suite(data, tol=s.tol)
    residuals = dict(suite.residuals)
    residuals["invariance"] = data.invariance
    return residuals, dict(suite.verdicts), {}, sub.grid.caps


def _run_check_brehmer(s: Scenario):
    if s.tuple_source is not None:
        rep = model_correspondence(s.tuple_source, tol=s.tol)
        caps = s.caps
    else:
        caps = _resolved_caps(s, s.symbol.nvars)
        rep = model_correspondence(s.symbol, caps=caps, tol=s.tol)
    return dict(rep.residuals), dict(rep.verdicts), {}, caps


def _run_dilate(s: Scenario):
    t = s.tuple_source
    caps = s.caps if s.caps is not None else (4,) * t.n
    data = canonical_dilation(t, caps, tail_tol=s.tol)
    residuals = {
        "isometry": data.isometry_residual,
        "intertwining": data.intertwining_residual,
        "tail_mass": data.tail_mass,
    }
    verdicts = {
        "isometry": data.isometry_residual <= s.tol,
        "intertwining": data.intertwining_residual <= s.tol,
    }
    details = {"defect_rank": int(data.defect_space_basis.shape[1])}
    return residuals, verdicts, details, caps


def _run_factor(s: Scenario):
    caps = _resolved_caps(s, s.symbol.nvars)
    grid = TruncationGrid(caps)
    witness = invariant_subspace_from_factorization(
        s.symbol, s.phi, grid, tol=s.tol, margins=s.margins
    )
    check = beurling_submodule_check(witness.m_basis, s.symbol, grid,
                                     tol=s.tol, margins=s.margins)
    worst_witness = max(witness.residuals.values())
    residuals = dict(witness.residuals)
    residuals["condition_2"] = check.residuals["cross_commutator"]
    residuals["condition_3"] = check.residuals["beurling_defect_product"]
    residuals["witness_within_tolerance"] = worst_witness
    verdicts = dict(check.verdicts)
    verdicts["witness_within_tolerance"] = worst_witness <= s.tol
    residuals["conditions_agree"] = 0.0 if verdicts["conditions_agree"] else 1.0
    details = {
        "psi": dump_coefficient_text(witness.psi),
        "gap_rank": witness.m_rank,
    }
    return residuals, verdicts, details, caps


def _run_example42(s: Scenario):
    caps = s.caps if s.caps is not None else (20, 20)
    rep = reduced_kernel_suite(
        caps=caps, pairs=s.pairs, seed=s.seed, pair_radius=s.pair_radius,
        budget=s.budget, kernel_tol=s.tol, criterion_tol=s.tol,
    )
    wit = rep["witness_symbol"]
    # one residual per verdict, under the same key: the number each
    # verdict was judged on (details carries the full structured suite)
    residuals = {
        "kernel_identity": rep["kernel"]["max_deviation"],
        "gram_negative": rep["gram"]["min_eigenvalue"],
        "witness_vanishes_at_origin": max(wit["at_origin"],
                                          wit["numerator_origin_coefficient"]),
        "witness_inner": wit["torus_deviation"],
        "strict_inclusions": rep["inclusions"]["inclusion_residual"],
        "constants_quotient_fails": rep["constants_quotient"]["beurling_residual"],
    }
    return residuals, dict(rep["verdicts"]), rep, caps


_RUNNERS = {
    "check-beurling": _run_check_beurling,
    "identity-suite": _run_identity_suite,
    "check-brehmer": _run_check_brehmer,
    "dilate": _run_dilate,
    "factor": _run_factor,
    "example42": _run_example42,
}


def run_scenario(s: Scenario) -> Report:
    """Execute one scenario; domain errors become a status, not a crash."""
    started = time.perf_counter()
    try:
        residuals, verdicts, details, caps = _RUNNERS[s.command](s)
        status = "ok"
    except Exception as exc:  # noqa: BLE001 - reported, never silently dropped
        residuals, verdicts, details = {}, {}, {}
        caps = s.caps
        status = f"error: {exc}"
    return Report(
        scenario_id=s.scenario_id,
        command=s.command,
        caps=caps,
        tolerance=s.tol,
        seed=s.seed,
        residuals=residuals,
        verdicts=verdicts,
        status=status,
        details=details,
        runtime_seconds=time.perf_counter() - started,
    )


def run_batch(scenarios) -> list:
    """Run scenarios one after another, results in input order."""
    return [run_scenario(s) for s in scenarios]


def expectations_met(report: Report, expect: dict) -> bool:
    """Compare a report against a scenario's expect block.

    Without assertions, success means the run itself did not error.  With
    assertions, each named verdict must exist and match, and a 'status'
    entry must equal the report status exactly.
    """
    if not expect:
        return report.ok
    for name, wanted in expect.items():
        if name == "status":
            if report.status != wanted:
                return False
            continue
        if name not in report.verdicts:
            return False
        if bool(report.verdicts[name]) != bool(wanted):
            return False
    return True
