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
line).  Comments, blank lines, commas and numbers follow the shared rules
of textlines.  read_config turns the text into `key -> (origin, value)`
settings, the shape the CLI also builds from flags and the environment,
and build_scenario checks every value against the one rule for its key,
so each error message names the line, flag or variable it came from.

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
from .textlines import content_lines, fields, numbers

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


# ---- one rule per setting -------------------------------------------------

def _numbers(cast, low=None, many=False):
    """One value of cast, or with many a tuple of them, each at least low."""
    def rule(value, key):
        parts = numbers(fields(value) if many else [value], cast, key)
        if not parts:
            raise ValueError(f"{key} is empty")
        if low is not None and min(parts) < low:
            raise ValueError(f"{key} must be >= {low}, got {value!r}")
        return tuple(parts) if many else parts[0]
    return rule


def _positive(value, key):
    (x,) = numbers([value], float, key)
    if x <= 0:
        raise ValueError(f"{key} must be positive, got {value!r}")
    return x


def _text(value, key):
    if not value:
        raise ValueError(f"{key} is empty")
    return value


def _command(value, key):
    if value not in COMMANDS:
        raise ValueError(f"unknown command {value!r}; choose from {', '.join(COMMANDS)}")
    return value


_RULES = {
    "id": _text,
    "command": _command,
    "caps": _numbers(int, 1, many=True),
    "margins": _numbers(int, 0, many=True),
    "tol": _positive,
    "seed": _numbers(int),
    "budget": _numbers(int, 1),
    "pairs": _numbers(int, 1),
    "pair_radius": _numbers(float),
    "symbol_file": _text,
    "phi_file": _text,
    "tuple_file": _text,
    "basis_file": _text,
}


def _assignment(lineno: int, line: str, table: dict, what: str) -> tuple:
    """`key = value` as (key, value); a key already in table is an error."""
    key, eq, value = line.partition("=")
    key = key.strip().lower()
    if not eq:
        raise ScenarioError(f"line {lineno}: expected 'key = value', got {line!r}")
    if key in table:
        raise ScenarioError(f"line {lineno}: duplicate {what} {key!r}")
    return key, value.strip()


def _parse_bool(value: str, lineno: int) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ScenarioError(f"line {lineno}: expected true/false, got {value!r}")


def read_config(text: str) -> tuple:
    """Settings {key: ("line N", value)} and blocks {name: (start, body)}.

    Each body keeps its config line numbers: it is padded with blank lines
    so that a block parser's diagnostics name the config's own lines.
    """
    settings: dict = {}
    blocks: dict = {}
    raw = text.splitlines()
    block = None
    for lineno, line in content_lines(text):
        if block is not None:
            if line == "end":
                name, start = block
                blocks[name] = (start, "\n" * start + "\n".join(raw[start:lineno - 1]))
                block = None
            continue
        if line.endswith(":"):
            name = line[:-1].strip().lower()
            if name not in _BLOCKS:
                raise ScenarioError(f"line {lineno}: unknown block {name!r}")
            if name in blocks:
                raise ScenarioError(f"line {lineno}: duplicate block {name!r}")
            block = (name, lineno)
            continue
        key, value = _assignment(lineno, line, settings, "setting")
        if key not in _RULES:
            raise ScenarioError(f"line {lineno}: unknown setting {key!r}")
        settings[key] = (f"line {lineno}", value)
    if block is not None:
        raise ScenarioError(f"line {block[1]}: block {block[0]!r} has no 'end'")
    return settings, blocks


def build_scenario(settings: dict, blocks: dict, scenario_id: str = "scenario",
                   base_dir=None, default_command: str | None = None) -> Scenario:
    """One validated Scenario from {key: (origin, value)} settings and blocks.

    The origin is `line N`, a flag or an environment variable, and every
    diagnostic names it.  Each value passes its key's rule, and every
    source, block or file, goes through one loader.  A file named on a
    config line resolves against base_dir; one from a flag or the
    environment resolves against the working directory.
    """
    if default_command is not None:
        settings = {"command": ("default_command", default_command), **settings}
    values = {}
    for key, (origin, value) in settings.items():
        try:
            values[key] = _RULES[key](value, key)
        except ValueError as exc:
            raise ScenarioError(f"{origin}: {exc}") from None
    if "command" not in values:
        raise ScenarioError("missing required setting 'command'")
    scenario = Scenario(scenario_id=values.pop("id", scenario_id), command=values.pop("command"),
                        **{k: v for k, v in values.items() if not k.endswith("_file")})

    base = Path(base_dir) if base_dir is not None else Path(".")

    def load(name, parser):
        block, setting = blocks.get(name), settings.get(f"{name}_file")
        if block is not None and setting is not None:
            raise ScenarioError(f"{setting[0]}: both {name!r} block and {name}_file given")
        if block is not None:
            start, text = block
            where = f"{name} block at line {start}"
        elif setting is not None:
            origin, path = setting
            target = (base if origin.startswith("line ") else Path(".")) / path
            if not target.is_file():
                raise ScenarioError(f"{origin}: {name}_file {path!r} not found")
            text, where = target.read_text(), f"{origin}: {name}_file {path!r}"
        else:
            return None
        try:
            return parser(text)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from None

    def parse_basis(text):
        if scenario.caps is None:
            raise ValueError("a basis source needs explicit caps")
        return parse_basis_text(text, TruncationGrid(scenario.caps))

    scenario.symbol = load("symbol", parse_coefficient_text)
    scenario.phi = load("phi", parse_coefficient_text)
    scenario.tuple_source = load("tuple", parse_tuple_text)
    scenario.basis_rows = load("basis", parse_basis)
    if "expect" in blocks:
        expect = scenario.expect
        for lineno, line in content_lines(blocks["expect"][1]):
            name, value = _assignment(lineno, line, expect, "expect")
            expect[name] = value if name == "status" else _parse_bool(value, lineno)

    validate_scenario(scenario)
    return scenario


def parse_scenario(text: str, scenario_id: str = "scenario",
                   base_dir=None, default_command: str | None = None) -> Scenario:
    """Parse and validate one scenario config.

    base_dir anchors any *_file references; defaults (tol 1e-8, seed 0,
    margins from the symbol degrees) are applied here, and every
    diagnostic names the config line it came from.  default_command fills
    in when the text has no `command =` line, letting a caller that
    already knows the command (the CLI subcommand) reuse a bare config.
    """
    settings, blocks = read_config(text)
    return build_scenario(settings, blocks, scenario_id, base_dir, default_command)


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
