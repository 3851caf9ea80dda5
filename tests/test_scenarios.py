"""Scenario parsing, validation diagnostics, dispatch, and batch order."""

from pathlib import Path

import numpy as np
import pytest

from hardylab.grids import TruncationGrid
from hardylab.scenarios import (
    Scenario,
    ScenarioError,
    expectations_met,
    parse_scenario,
    run_batch,
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
    budget = 32
    pairs = 5
    pair_radius = 0.4
    """
    s = parse_scenario(cfg)
    assert s.caps == (20, 20)
    assert s.tol == 1e-6
    assert s.seed == 7
    assert s.budget == 32
    assert s.pairs == 5
    assert s.pair_radius == 0.4


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
    ("budget = 0", "budget must be >= 1"),
    ("pairs = -3", "pairs must be >= 1"),
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
    cfg = "command = example42\ncaps = 8 8\npairs = 4\nbudget = 8\npair_radius = 0.3\n"
    rep = run_scenario(parse_scenario(cfg))
    assert rep.ok
    assert rep.verdicts["kernel_identity"]
    assert rep.residuals["constants_quotient_fails"] == pytest.approx(1.0, abs=1e-12)
    assert rep.details["gram"]["candidates"] == 8
    assert set(rep.verdicts) <= set(rep.residuals)


def test_example42_defaults_to_kernel_caps():
    s = parse_scenario("command = example42\n")
    assert s.caps is None
    rep_caps = run_scenario(
        parse_scenario("command = example42\npairs = 2\nbudget = 2\n")
    ).caps
    assert rep_caps == (20, 20)


def test_caps_mismatch_surfaces_as_error_status():
    cfg = "command = check-beurling\ncaps = 4 4 4\nsymbol:\nnumerator\n1 1 0 0 1.0 0.0\nend\n"
    rep = run_scenario(parse_scenario(cfg))
    assert rep.status.startswith("error:")
    assert "caps" in rep.status


# ---- batches and expectations ----------------------------------------------

def test_batch_preserves_input_order():
    scenarios = [
        parse_scenario(MONOMIAL_CFG, scenario_id=f"s{i}") for i in range(4)
    ]
    serial = run_batch(scenarios)
    assert [r.scenario_id for r in serial] == ["s0", "s1", "s2", "s3"]


def test_expectations_without_block_follow_status():
    good = run_scenario(parse_scenario(MONOMIAL_CFG))
    assert expectations_met(good, {})
    bad = run_scenario(parse_scenario("command = check-beurling\ncaps = 4 4 4\nsymbol:\nnumerator\n1 1 0 0 1.0 0.0\nend\n"))
    assert not expectations_met(bad, {})


def test_expectations_compare_named_verdicts():
    rep = run_scenario(parse_scenario(MONOMIAL_CFG))
    assert expectations_met(rep, {"xij": True})
    assert not expectations_met(rep, {"xij": False})
    assert not expectations_met(rep, {"unheard_of": True})


def test_expected_error_status_counts_as_met():
    cfg = "command = check-beurling\ncaps = 4 4 4\nsymbol:\nnumerator\n1 1 0 0 1.0 0.0\nend\n"
    rep = run_scenario(parse_scenario(cfg))
    assert expectations_met(rep, {"status": rep.status})
    assert not expectations_met(rep, {"status": "ok"})


def test_run_scenario_seed_threads_into_report():
    cfg = "command = example42\nseed = 5\npairs = 2\nbudget = 2\n"
    rep = run_scenario(parse_scenario(cfg))
    assert rep.seed == 5
