"""Scenario parsing, validation diagnostics, dispatch, and batch order."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from hardylab import cli
from hardylab.grids import TruncationGrid
from hardylab.scenarios import (
    Scenario,
    ScenarioError,
    expectations_met,
    parse_scenario,
    run_scenario,
)
from hardylab.symbols import AnalyticSymbol

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

MONOMIAL_CFG = """
command = check-beurling
caps = 4 4

symbol:
numerator
1 1 0 0 1.0 0.0
end
"""

# (z1 + z2) / 2 is not inner, a domain error of the run
NON_INNER_CFG = """
command = check-beurling
caps = 4 4
symbol:
numerator
1 0 0 0 0.5 0.0
0 1 0 0 0.5 0.0
end
"""

ZERO_PAIR_BLOCK = """
tuple:
dim 1
count 2
matrix 0
0.0 0.0
matrix 1
0.0 0.0
end
"""


# ---- parsing ----------------------------------------------------------------

def test_minimal_config_gets_defaults():
    s = parse_scenario(MONOMIAL_CFG, scenario_id="mono")
    assert s.scenario_id == "mono"
    assert s.command == "check-beurling"
    assert s.caps == (4, 4)
    assert s.tol == 1e-8
    assert s.seed == 0
    assert s.margins is None
    assert s.symbol.numerator == {(1, 1): pytest.approx(np.eye(1))}


def test_id_setting_beats_fallback():
    s = parse_scenario("id = named\n" + MONOMIAL_CFG, scenario_id="fallback")
    assert s.scenario_id == "named"


def test_all_flat_settings_parse():
    cfg = """
    command = example42
    caps = 20, 20
    tol = 1e-6
    seed = 7
    margins = 1 2
    """
    s = parse_scenario(cfg)
    assert s.caps == (20, 20)
    assert s.tol == 1e-6
    assert s.seed == 7
    assert s.margins == (1, 2)


def test_comments_and_blank_lines_ignored():
    cfg = "# header\n\ncommand = example42  # trailing\n"
    assert parse_scenario(cfg).command == "example42"


def test_negative_tolerance_names_the_field():
    with pytest.raises(ScenarioError, match="tol must be positive"):
        parse_scenario("command = example42\ntol = -1e-8\n")


def test_zero_caps_rejected():
    with pytest.raises(ScenarioError, match="caps must be >= 1"):
        parse_scenario("command = example42\ncaps = 0 4\n")


def test_unknown_command_lists_choices():
    with pytest.raises(ScenarioError, match="unknown command 'fly'"):
        parse_scenario("command = fly\n")


def test_missing_command_is_an_error():
    with pytest.raises(ScenarioError, match="missing required setting 'command'"):
        parse_scenario("caps = 4 4\n")


def test_default_command_fills_in():
    s = parse_scenario("caps = 20 20\n", default_command="example42")
    assert s.command == "example42"


def test_unknown_setting_reports_line():
    with pytest.raises(ScenarioError, match="line 2: unknown setting 'color'"):
        parse_scenario("command = example42\ncolor = red\n")


def test_duplicate_setting_reports_line():
    with pytest.raises(ScenarioError, match="line 3: duplicate setting 'seed'"):
        parse_scenario("command = example42\nseed = 1\nseed = 2\n")


def test_bad_integer_in_caps_reports_line():
    with pytest.raises(ScenarioError, match="caps wants integers"):
        parse_scenario("command = example42\ncaps = four\n")


def test_missing_end_reports_block_start():
    with pytest.raises(ScenarioError, match="block 'symbol' has no 'end'"):
        parse_scenario("command = check-beurling\nsymbol:\nnumerator\n1 1 0 0 1.0 0.0\n")


def test_unknown_block_rejected():
    with pytest.raises(ScenarioError, match="unknown block 'shape'"):
        parse_scenario("command = example42\nshape:\nend\n")


def test_malformed_coefficients_carry_block_context():
    cfg = "command = check-beurling\ncaps = 3 3\nsymbol:\nnumerator\n1 1 0 0 oops 0.0\nend\n"
    with pytest.raises(ScenarioError, match="symbol block at line 3"):
        parse_scenario(cfg)


def test_block_and_file_conflict():
    cfg = MONOMIAL_CFG + "symbol_file = other.txt\n"
    with pytest.raises(ScenarioError, match="both 'symbol' block and symbol_file"):
        parse_scenario(cfg)


def test_symbol_file_resolves_against_base_dir(tmp_path):
    (tmp_path / "sym.txt").write_text("numerator\n1 1 0 0 1.0 0.0\n")
    cfg = "command = check-beurling\ncaps = 3 3\nsymbol_file = sym.txt\n"
    s = parse_scenario(cfg, base_dir=tmp_path)
    assert s.symbol.nvars == 2


def test_missing_symbol_file_is_input_error(tmp_path):
    cfg = "command = check-beurling\nsymbol_file = gone.txt\n"
    with pytest.raises(ScenarioError, match="'gone.txt' not found"):
        parse_scenario(cfg, base_dir=tmp_path)


def test_command_source_requirements():
    with pytest.raises(ScenarioError, match="needs symbol or basis"):
        parse_scenario("command = check-beurling\n")
    with pytest.raises(ScenarioError, match="needs symbol or tuple"):
        parse_scenario("command = check-brehmer\n")
    with pytest.raises(ScenarioError, match="needs tuple"):
        parse_scenario("command = dilate\n")
    with pytest.raises(ScenarioError, match="needs symbol and phi"):
        parse_scenario("command = factor\n")
    parse_scenario("command = example42\n")  # needs nothing


def test_basis_block_needs_caps():
    cfg = "command = check-beurling\nbasis:\n" + " ".join(["0.0"] * 18) + "\nend\n"
    with pytest.raises(ScenarioError, match="basis block needs explicit caps|needs explicit caps"):
        parse_scenario(cfg)


def test_basis_block_parses_rows():
    grid = TruncationGrid((2, 2))
    row = []
    for c in range(grid.dim):
        row += (["1.0", "0.0"] if c == 1 else ["0.0", "0.0"])
    cfg = "command = check-beurling\ncaps = 2 2\nbasis:\n" + " ".join(row) + "\nend\n"
    s = parse_scenario(cfg)
    assert s.basis_rows.shape == (1, grid.dim)
    assert s.basis_rows[0, 1] == 1.0


def test_expect_block_parses_bools_and_status():
    cfg = MONOMIAL_CFG + "expect:\nxij = true\nverdicts_agree = false\nstatus = ok\nend\n"
    s = parse_scenario(cfg)
    assert s.expect == {"xij": True, "verdicts_agree": False, "status": "ok"}


def test_expect_block_rejects_non_boolean():
    cfg = MONOMIAL_CFG + "expect:\nxij = maybe\nend\n"
    with pytest.raises(ScenarioError, match="expected true/false"):
        parse_scenario(cfg)


@pytest.mark.parametrize("value", ["yes", "no", "1", "0", "True", "FALSE"])
def test_expect_block_takes_only_true_and_false(value):
    """A verdict is spelled `true` or `false`, as README documents and as
    the benchmark's own expect reader requires."""
    cfg = MONOMIAL_CFG + f"expect:\nxij = {value}\nend\n"
    with pytest.raises(ScenarioError, match=f"line 10: expected true/false, got '{value}'"):
        parse_scenario(cfg)



@pytest.mark.parametrize("block, body, line", [
    ("symbol", "numerator\n1 1 0 0 oops 0.0", 6),
    ("tuple", "dim 1\ncount 1\nmatrix 0\nnan 0.0", 8),
    ("basis", "# one row\n\n0 0 1 0 0 0 inf 0", 7),
])
def test_malformed_number_in_a_block_names_the_config_line(block, body, line):
    cfg = f"command = check-brehmer\n# caps for the basis\ncaps = 1 1\n{block}:\n{body}\nend\n"
    with pytest.raises(ScenarioError, match=f"{block} block at line 4: line {line}: "):
        parse_scenario(cfg)


def test_duplicate_expect_name_reports_line():
    cfg = MONOMIAL_CFG + "expect:\nxij = true\n\nxij = false\nend\n"
    with pytest.raises(ScenarioError, match="line 12: duplicate expect 'xij'"):
        parse_scenario(cfg)


@pytest.mark.parametrize("setting, message", [
    ("caps = 4 -1", "caps must be >= 1"),
    ("margins = -1 -1", "margins must be >= 0"),
    ("tol = 0", "tol must be positive"),
    ("tol = nan", "tol wants finite numbers"),
    ("seed = 1.5", "seed wants integers"),
])
def test_value_rules_name_the_config_line(setting, message):
    with pytest.raises(ScenarioError, match=f"line 2: {message}"):
        parse_scenario(f"command = example42\n{setting}\n")

# ---- dispatch ---------------------------------------------------------------

def test_check_beurling_run_agrees_and_covers_verdicts():
    rep = run_scenario(parse_scenario(MONOMIAL_CFG, scenario_id="mono"))
    assert rep.ok
    assert rep.command == "check-beurling"
    assert rep.caps == (4, 4)
    assert rep.verdicts["verdicts_agree"]
    assert rep.residuals["beurling_defect_product"] <= 1e-10
    assert set(rep.verdicts) <= set(rep.residuals)
    assert rep.runtime_seconds is not None


def test_identity_suite_run_reports_invariance():
    cfg = MONOMIAL_CFG.replace("check-beurling", "identity-suite")
    rep = run_scenario(parse_scenario(cfg))
    assert rep.ok
    assert rep.verdicts["defect_identity"]
    assert rep.residuals["invariance"] <= 1e-12


def test_check_beurling_and_identity_suite_report_same_xij():
    text = (SCENARIO_DIR / "constants-quotient.cfg").read_text()
    text = text.replace("command = check-beurling\n", "")
    beurling, suite = (run_scenario(parse_scenario(text, default_command=command))
                       for command in ("check-beurling", "identity-suite"))
    assert beurling.ok and suite.ok
    assert beurling.residuals["xij"] == suite.residuals["xij"] >= 0.5


def test_check_brehmer_tuple_direction():
    cfg = "command = check-brehmer\n" + ZERO_PAIR_BLOCK
    rep = run_scenario(parse_scenario(cfg))
    assert rep.ok
    assert rep.residuals["annihilation"] == 1.0
    assert not rep.verdicts["annihilation"]
    assert rep.verdicts["brehmer_min_eig"]


def test_dilate_run_populates_residuals():
    cfg = "command = dilate\ncaps = 2 2\n" + ZERO_PAIR_BLOCK
    rep = run_scenario(parse_scenario(cfg))
    assert rep.ok
    assert rep.residuals["isometry"] <= 1e-14
    assert rep.residuals["tail_mass"] == 0.0
    assert rep.details["defect_rank"] == 1


def test_dilate_error_embeds_in_status():
    cfg = """
    command = dilate
    caps = 2 2
    tuple:
    dim 2
    count 2
    matrix 0
    0.0 0.0 0.9 0.0
    0.0 0.0 0.0 0.0
    matrix 1
    0.0 0.0 0.9 0.0
    0.0 0.0 0.0 0.0
    end
    """
    rep = run_scenario(parse_scenario(cfg.replace("    ", "")))
    assert rep.status.startswith("error: defect sum is not PSD")
    assert rep.residuals == {}
    assert not rep.ok


def test_factor_run_recovers_quotient_symbol():
    cfg = """
command = factor
caps = 5 5
symbol:
numerator
1 1 0 0 1.0 0.0
end
phi:
numerator
1 0 0 0 1.0 0.0
end
"""
    rep = run_scenario(parse_scenario(cfg))
    assert rep.ok
    assert rep.verdicts["conditions_agree"]
    assert rep.verdicts["witness_within_tolerance"]
    assert "0 1 0 0 1.0 0.0" in rep.details["psi"]
    assert rep.residuals["condition_3"] <= 1e-10


def test_example42_small_run_covers_fields():
    cfg = "command = example42\ncaps = 20 20\n"
    rep = run_scenario(parse_scenario(cfg))
    assert rep.ok
    assert rep.verdicts["kernel_identity"]
    assert rep.residuals["constants_quotient_fails"] == pytest.approx(1.0, abs=1e-12)
    assert set(rep.verdicts) <= set(rep.residuals)
    # details hold only what the residuals and verdicts do not
    assert rep.details["kernel"] == {"pairs": 20, "caps": (20, 20), "pair_radius": 0.6}
    assert set(rep.details["gram"]) == {"points", "matrix"}
    assert set(rep.details["inclusions"]) == {"rank_symbol_submodule", "rank_vanishing_at_origin",
                                              "rank_full", "caps"}
    assert set(rep.details) == {"kernel", "gram", "inclusions"}


def test_example42_defaults_to_kernel_caps():
    s = parse_scenario("command = example42\n")
    assert s.caps is None
    rep_caps = run_scenario(s).caps
    assert rep_caps == (20, 20)


def test_caps_mismatch_surfaces_as_error_status():
    # example42 has no source to count variables from; it works on the
    # bidisc, so caps of another length are an input error, not a status
    with pytest.raises(ScenarioError, match=re.escape("line 2: caps (4, 4, 4) do not match 2 variables")):
        parse_scenario("command = example42\ncaps = 4 4 4\n")


@pytest.mark.parametrize("cfg, message", [
    ("command = check-beurling\ncaps = 1 1\n\nmargins = 1 1 1\nbasis:\n0 0 1 0 0 0 0 0\nend\n",
     "line 4: margins (1, 1, 1) do not match 2 variables"),
    ("command = dilate\ncaps = 4\n" + ZERO_PAIR_BLOCK,
     "line 2: caps (4,) do not match 2 variables"),
    ("command = factor\nsymbol:\nnumerator\n1 1 0 0 1.0 0.0\nend\n"
     "phi:\nnumerator\n1 0 0 0 0 1.0 0.0\nend\n",
     "sources disagree on the number of variables: symbol has 2, phi has 3"),
])
def test_sources_fix_the_number_of_variables(cfg, message):
    """A basis counts its caps, a tuple its matrices; a symbol block is
    covered with the flag and environment origins in test_cli."""
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario(cfg)


# ---- batches and expectations ----------------------------------------------

def test_batch_preserves_input_order(tmp_path, capsys):
    paths = [tmp_path / "s1.cfg", tmp_path / "s0.cfg"]
    for path in paths:
        path.write_text(MONOMIAL_CFG)
    assert cli.main(["check-beurling", *(f"--config={p}" for p in paths)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["scenario_id"] for line in lines] == ["s1", "s0"]


def test_expectations_without_block_follow_status():
    good = run_scenario(parse_scenario(MONOMIAL_CFG))
    assert expectations_met(good, {})
    bad = run_scenario(parse_scenario(NON_INNER_CFG))
    assert not expectations_met(bad, {})


def test_expectations_compare_named_verdicts():
    rep = run_scenario(parse_scenario(MONOMIAL_CFG))
    assert expectations_met(rep, {"xij": True})
    assert not expectations_met(rep, {"xij": False})
    assert not expectations_met(rep, {"unheard_of": True})


def test_expected_error_status_counts_as_met():
    rep = run_scenario(parse_scenario(NON_INNER_CFG))
    assert expectations_met(rep, {"status": rep.status})
    assert not expectations_met(rep, {"status": "ok"})


def test_run_scenario_seed_threads_into_report():
    cfg = "command = example42\nseed = 5\ncaps = 6 6\n"
    rep = run_scenario(parse_scenario(cfg))
    assert rep.seed == 5


def test_only_domain_errors_become_error_status(monkeypatch):
    from hardylab import scenarios

    def raising(exc):
        def runner(s):
            raise exc
        return runner

    s = parse_scenario(MONOMIAL_CFG)
    command = scenarios.COMMANDS[s.command]
    monkeypatch.setitem(scenarios.COMMANDS, s.command,
                        command._replace(run=raising(ValueError("bad input"))))
    assert run_scenario(s).status == "error: bad input"
    monkeypatch.setitem(scenarios.COMMANDS, s.command, command._replace(run=raising(KeyError("k"))))
    rep = run_scenario(s)
    assert rep.status == "internal error: KeyError: 'k'"
    assert not rep.ok and rep.residuals == {} and rep.verdicts == {}
