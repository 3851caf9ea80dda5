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
caps and margins against the sources' number of variables, and the caps
against the margins of the run's window, so each error message names the
line, flag or variable it came from.  parse_scenario, which joins the
two, is the one reader of configs and flags, for the CLI too.

_RULES holds each setting's rule, flag, environment variable, metavar and
help; COMMANDS holds each command's help, needed sources, runner, window
sources and any variable count it fixes.  A new setting or command is one
row in one of them.

run_scenario never raises: a domain failure (a ValueError) lands in the
report's status field as "error: ...", any other exception as
"internal error: ...", so a batch keeps going.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

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
from .kernels import KERNEL_CAPS, reduced_kernel_suite
from .operators import eval_margins
from .reports import Report
from .subspaces import parse_basis_text, submodule_projection, subspace_from_columns
from .symbols import AnalyticSymbol, dump_coefficient_text, parse_coefficient_text
from .textlines import content_lines, fields, numbers

__all__ = [
    "Scenario",
    "ScenarioError",
    "run_scenario",
    "expectations_met",
]

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


class Setting(NamedTuple):
    rule: Callable | None
    flag: str | None = None
    env: str | None = None
    metavar: str | None = None
    help: str | None = None


# A key is a Scenario field, or with _file a source.
_RULES = {
    "id": Setting(_text, "--id", None, "NAME", "scenario id for the report"),
    "command": Setting(_command),
    "caps": Setting(_numbers(int, 1, many=True), "--degree", "HARDYLAB_DEGREE", "D1,D2,...",
                    "per-variable truncation caps"),
    "margins": Setting(_numbers(int, 0, many=True), "--margins", None, "M1,M2,...",
                       "per-variable evaluation window margins"),
    "tol": Setting(_positive, "--tol", "HARDYLAB_TOL", "X", "residual tolerance"),
    "seed": Setting(_numbers(int, 0), "--seed", "HARDYLAB_SEED", "N", "seed for any randomized search"),
    "symbol_file": Setting(_text, "--symbol-file", None, "PATH", "coefficient text for the symbol"),
    "phi_file": Setting(_text, "--phi-file", None, "PATH", "coefficient text for the divisor"),
    "tuple_file": Setting(_text, "--tuple-file", None, "PATH", "matrix text for the tuple"),
    "basis_file": Setting(_text, "--basis-file", None, "PATH", "row-vector text for a subspace"),
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
    if value in ("true", "false"):
        return value == "true"
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
    environment resolves against the working directory.  The sources
    given must be exactly one of the command's groups, so none is left
    unread.
    """
    if default_command is not None:
        settings = {"command": ("default_command", default_command), **settings}
    values = {}
    for key, (origin, value) in settings.items():
        try:
            values[key] = _RULES[key].rule(value, key)
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

    parsers = {"symbol": parse_coefficient_text, "phi": parse_coefficient_text,
               "tuple": parse_tuple_text, "basis": parse_basis}
    sources = {name: load(name, parser) for name, parser in parsers.items()}
    scenario.symbol, scenario.phi, scenario.tuple_source, scenario.basis_rows = sources.values()
    if "expect" in blocks:
        expect = scenario.expect
        for lineno, line in content_lines(blocks["expect"][1]):
            name, value = _assignment(lineno, line, expect, "expect")
            expect[name] = value if name == "status" else _parse_bool(value, lineno)

    # every source fixes the variable count: a basis by its caps
    counts = {name: len(scenario.caps) if name == "basis" else
              source.n if name == "tuple" else source.nvars
              for name, source in sources.items() if source is not None}
    if COMMANDS[scenario.command].nvars is not None:
        counts[scenario.command] = COMMANDS[scenario.command].nvars
    if len(set(counts.values())) > 1:
        listed = ", ".join(f"{name} has {n}" for name, n in counts.items())
        raise ScenarioError(f"sources disagree on the number of variables: {listed}")
    for n in set(counts.values()):     # at most one count by now
        for key in ("caps", "margins"):
            value = getattr(scenario, key)
            if value is not None and len(value) != n:
                raise ScenarioError(f"{settings[key][0]}: {key} {value} do not match {n} variables")
        _check_window(scenario, settings, n)

    needs = COMMANDS[scenario.command].needs
    given = [name for name, source in sources.items() if source is not None]
    if set(given) not in map(set, needs):
        label = " or ".join(" and ".join(group) or "no source" for group in needs)
        raise ScenarioError(f"command {scenario.command!r} needs {label}, "
                            f"got {' and '.join(given) or 'no source'}")
    return scenario


def _check_window(s: Scenario, settings: dict, nvars: int) -> None:
    """Refuse caps (the setting, else 4 per variable) below a margin of the
    run's window, which would leave it empty.  The margins are the margins
    setting, else each window source's eval_margins: its degrees, floored at
    1.  A tuple reads no window, so its margins are not checked."""
    window = COMMANDS[s.command].window
    if s.margins is not None and window and s.tuple_source is None:
        wanted = {f"margins {s.margins} from {settings['margins'][0]}": s.margins}
    else:
        wanted = {f"degrees {src.degrees} of the {name}": eval_margins(src)
                  for name in window if (src := getattr(s, name)) is not None}
    caps = _resolved_caps(s, nvars)
    where = f"{settings['caps'][0]}: caps" if "caps" in settings else "default caps"
    for what, margins in wanted.items():
        if any(m > c for m, c in zip(margins, caps)):
            raise ScenarioError(f"{where} {caps} are below the {what}; "
                                "the evaluation window would be empty")


def parse_scenario(text: str, scenario_id: str = "scenario", base_dir=None,
                   default_command: str | None = None, overrides=None) -> Scenario:
    """The one reader of configs and flags: one validated Scenario from a
    config's text ("" for none) with the {key: (origin, value)} overrides
    of flags and the environment on top, a *_file override replacing the
    text's block or file for that source.

    base_dir anchors any *_file references; defaults (tol 1e-8, seed 0,
    margins from the symbol degrees) are applied here, and every
    diagnostic names the line, flag or variable it came from.
    default_command fills in when the text has no `command =` line.
    """
    settings, blocks = read_config(text)
    overrides = overrides or {}
    for key in overrides:
        if key.endswith("_file"):
            blocks.pop(key.removesuffix("_file"), None)
    settings.update(overrides)
    return build_scenario(settings, blocks, scenario_id, base_dir, default_command)


def _resolved_caps(s: Scenario, nvars: int) -> tuple:
    return s.caps if s.caps is not None else (4,) * nvars


def _subspace_for(s: Scenario):
    if s.basis_rows is not None:
        return subspace_from_columns(TruncationGrid(s.caps), s.basis_rows.T)[0], s.margins
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
        rep = model_correspondence(s.symbol, caps=caps, tol=s.tol, margins=s.margins)
    return dict(rep.residuals), dict(rep.verdicts), {}, caps


def _run_dilate(s: Scenario):
    t = s.tuple_source
    caps = _resolved_caps(s, t.n)
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
    details = {"defect_rank": data.grid.channels}
    return residuals, verdicts, details, caps


def _run_factor(s: Scenario):
    caps = _resolved_caps(s, s.symbol.nvars)
    grid = TruncationGrid(caps)
    witness = invariant_subspace_from_factorization(s.symbol, s.phi, grid, tol=s.tol)
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
    caps = s.caps if s.caps is not None else KERNEL_CAPS
    rep = reduced_kernel_suite(caps=caps, seed=s.seed, tol=s.tol)
    kernel, gram, inclusions = rep["kernel"], rep["gram"], rep["inclusions"]
    wit = rep["witness_symbol"]
    # one residual per verdict, under the same key: the number each
    # verdict was judged on
    residuals = {
        "kernel_identity": kernel["max_deviation"],
        "gram_negative": gram["min_eigenvalue"],
        "witness_vanishes_at_origin": wit["numerator_origin_coefficient"],
        "witness_inner": wit["inner_deviation"],
        "strict_inclusions": inclusions["inclusion_residual"],
        "constants_quotient_fails": rep["constants_quotient"]["beurling_residual"],
    }
    # details carry only what the residuals and verdicts do not: the
    # sampling settings, the Gram witness's points and matrix, the ranks
    details = {
        "kernel": {key: kernel[key] for key in ("pairs", "caps", "pair_radius")},
        "gram": {key: gram[key] for key in ("points", "matrix")},
        "inclusions": {key: value for key, value in inclusions.items()
                       if key != "inclusion_residual"},
    }
    return residuals, dict(rep["verdicts"]), details, caps


class Command(NamedTuple):
    help: str
    needs: tuple        # alternatives, each a group of sources; exactly one group is given
    run: Callable       # Scenario -> (residuals, verdicts, details, caps)
    window: tuple = ()  # sources whose degrees set the run's window when no margins are set
    nvars: int | None = None   # variables the command fixes itself, whatever its sources


# The one table of commands, in the order the CLI lists them.
COMMANDS = {
    "check-beurling": Command("test a submodule for the Beurling quotient property",
                              (("symbol",), ("basis",)), _run_check_beurling, ("symbol",)),
    "check-brehmer": Command("test a commuting tuple or symbol against the standard model",
                             (("symbol",), ("tuple",)), _run_check_brehmer, ("symbol",)),
    "dilate": Command("build the canonical co-extension of a pure tuple",
                      (("tuple",),), _run_dilate),
    "factor": Command("divide one inner symbol by another and audit the gap",
                      (("symbol", "phi"),), _run_factor, ("symbol", "phi")),
    "example42": Command("reduced kernel suite: identity, negativity witness, inclusions",
                         ((),), _run_example42, nvars=2),
    "identity-suite": Command("all compression identities for one subspace split",
                              (("symbol",), ("basis",)), _run_identity_suite, ("symbol",)),
}


INTERNAL_ERROR = "internal error:"


def run_scenario(s: Scenario) -> Report:
    """Execute one scenario; every failure becomes a status, not a crash.

    Domain errors (ValueError and its subclasses: InnernessError,
    InvarianceError, DilationError, ...) give "error: <message>".  Any other
    exception is a bug in the package: its traceback goes to stderr and the
    status is "internal error: <Type>: <message>", which the CLI turns into
    exit 3.
    """
    started = time.perf_counter()
    residuals, verdicts, details, caps = {}, {}, {}, s.caps
    try:
        residuals, verdicts, details, caps = COMMANDS[s.command].run(s)
        status = "ok"
    except ValueError as exc:
        status = f"error: {exc}"
    except Exception as exc:  # noqa: BLE001 - a bug: reported, traceback to stderr
        traceback.print_exc(file=sys.stderr)
        status = f"{INTERNAL_ERROR} {type(exc).__name__}: {exc}"
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
