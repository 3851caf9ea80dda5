"""Command line behavior: flags, env precedence, exit codes, batch output."""

import json

import pytest

from hardylab import cli
from hardylab.cli import main
from hardylab.scenarios import COMMANDS
from hardylab.symbols import AnalyticSymbol, dump_coefficient_text

MONO = """\
command = check-beurling
caps = 4 4
symbol:
numerator
1 1 0 0 1.0 0.0
end
expect:
verdicts_agree = true
end
"""

COORD = """\
command = check-beurling
caps = 3 3
symbol:
numerator
1 0 0 0 1.0 0.0
end
"""


Z1_BLOCK = "symbol:\nnumerator\n1 0 0 0 1.0 0.0\nend\n"
# one unit row on caps 2 2, a real and an imaginary part per grid rank
BASIS_BLOCK = "basis:\n" + " ".join(["0.0"] * 2 + ["1.0"] + ["0.0"] * 15) + "\nend\n"
ZERO_PAIR_TUPLE = "tuple:\ndim 1\ncount 2\nmatrix 0\n0.0 0.0\nmatrix 1\n0.0 0.0\nend\n"


@pytest.fixture
def mono_cfg(tmp_path):
    path = tmp_path / "mono.cfg"
    path.write_text(MONO)
    return path


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("SEED", "TOL", "FORMAT", "DEGREE", "OUT"):
        monkeypatch.delenv(f"HARDYLAB_{name}", raising=False)


def run_cli(args):
    return main([str(a) for a in args])


def test_single_config_pretty_json(mono_cfg, capsys):
    assert run_cli(["check-beurling", "--config", mono_cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario_id"] == "mono"
    assert doc["status"] == "ok"
    assert doc["verdicts"]["verdicts_agree"] is True


def test_out_flag_writes_file(mono_cfg, tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("stale")
    out.chmod(0o640)
    assert run_cli(["check-beurling", "--config", mono_cfg, "--out", out]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["command"] == "check-beurling"
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mono.cfg", "report.json"]


def test_out_writes_through_a_symlink(mono_cfg, tmp_path):
    (tmp_path / "runs").mkdir()
    real, link = tmp_path / "runs" / "x.json", tmp_path / "latest.json"
    link.symlink_to(real)
    assert run_cli(["check-beurling", "--config", mono_cfg, "--out", link]) == 0
    assert link.is_symlink()
    assert json.loads(real.read_text())["scenario_id"] == "mono"
    assert sorted(p.name for p in real.parent.iterdir()) == ["x.json"]


def test_out_to_a_device_is_written_in_place(mono_cfg):
    assert run_cli(["check-beurling", "--config", mono_cfg, "--out", "/dev/null"]) == 0


def test_batch_emits_json_lines(mono_cfg, tmp_path):
    other = tmp_path / "coord.cfg"
    other.write_text(COORD)
    out = tmp_path / "batch.jsonl"
    code = run_cli(["check-beurling", "--config", mono_cfg,
                    "--config", other, "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["scenario_id"] for l in lines] == ["mono", "coord"]


def test_text_format(mono_cfg, capsys):
    assert run_cli(["check-beurling", "--config", mono_cfg, "--format", "text"]) == 0
    rendered = capsys.readouterr().out
    assert "scenario mono [check-beurling]" in rendered
    assert "pass" in rendered


def test_text_format_batch(mono_cfg, tmp_path, capsys):
    other = tmp_path / "coord.cfg"
    other.write_text(COORD)
    assert run_cli(["check-beurling", "--config", mono_cfg, "--config", other,
                    "--format", "text"]) == 0
    rendered = capsys.readouterr().out
    assert rendered.index("scenario mono [check-beurling]") < rendered.index(
        "scenario coord [check-beurling]")


def test_symbol_file_replaces_the_config_symbol_block(tmp_path, capsys):
    cfg = tmp_path / "half.cfg"
    cfg.write_text(MONO.replace("1 1 0 0 1.0 0.0", "1 1 0 0 0.5 0.0"))
    assert run_cli(["check-beurling", "--config", cfg]) == 1
    assert json.loads(capsys.readouterr().out)["status"].startswith("error: symbol is not inner")
    assert run_cli(["check-beurling", "--config", cfg, "--symbol-file", _symbol_file(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok" and doc["verdicts"]["verdicts_agree"] is True


@pytest.mark.parametrize("command", ["check-brehmer", "check-beurling"])
def test_symbol_innerness_gate_uses_the_run_tol(command, tmp_path, capsys):
    # (1 + 1e-10) z1 z2 has innerness deviation 2e-10: inside 1e-8, not 1e-12
    sym = tmp_path / "sym.txt"
    sym.write_text("numerator\n1 1 0 0 1.0000000001 0.0\n")
    argv = [command, "--symbol-file", sym, "--degree", "4,4", "--tol"]
    assert run_cli(argv + ["1e-12"]) == 1
    assert json.loads(capsys.readouterr().out)["status"].startswith(
        "error: symbol is not inner at tolerance 1e-12")
    assert run_cli(argv + ["1e-8"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"


def test_adhoc_symbol_file(tmp_path, capsys):
    sym = tmp_path / "sym.txt"
    sym.write_text("numerator\n1 1 0 0 1.0 0.0\n")
    code = run_cli(["check-beurling", "--symbol-file", sym,
                    "--degree", "4,4", "--id", "adhoc"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario_id"] == "adhoc"
    assert doc["caps"] == [4, 4]


def test_adhoc_without_source_is_input_error(capsys):
    assert run_cli(["check-beurling", "--degree", "4,4"]) == 2
    assert "needs symbol or basis" in capsys.readouterr().err


def test_verdict_mismatch_exits_one(tmp_path):
    cfg = tmp_path / "wrong.cfg"
    cfg.write_text(COORD + "expect:\nbeurling_defect_product = false\nend\n")
    assert run_cli(["check-beurling", "--config", cfg]) == 1


def test_error_status_without_expect_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        "command = dilate\ncaps = 2 2\ntuple:\ndim 2\ncount 2\nmatrix 0\n"
        "0.0 0.0 0.9 0.0\n0.0 0.0 0.0 0.0\nmatrix 1\n"
        "0.0 0.0 0.9 0.0\n0.0 0.0 0.0 0.0\nend\n"
    )
    assert run_cli(["dilate", "--config", cfg]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"].startswith("error: defect sum is not PSD")


def test_expected_error_status_exits_zero(tmp_path):
    cfg = tmp_path / "expected-bad.cfg"
    cfg.write_text(
        "command = check-beurling\ncaps = 4 4\nsymbol:\nnumerator\n"
        "1 0 0 0 0.5 0.0\n0 1 0 0 0.5 0.0\nend\nexpect:\n"
        "status = error: symbol is not inner at tolerance 1e-08: coefficient deviation 1\nend\n"
    )
    assert run_cli(["check-beurling", "--config", cfg]) == 0


def test_missing_config_exits_two(capsys):
    assert run_cli(["check-beurling", "--config", "no-such.cfg"]) == 2
    assert "not found" in capsys.readouterr().err


def test_malformed_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("command = check-beurling\ntol = -3\n")
    assert run_cli(["check-beurling", "--config", cfg]) == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_command_mismatch_exits_two(mono_cfg, capsys):
    assert run_cli(["identity-suite", "--config", mono_cfg]) == 2
    err = capsys.readouterr().err
    assert "sets command 'check-beurling'" in err


def test_env_overrides_config(mono_cfg, monkeypatch, capsys):
    monkeypatch.setenv("HARDYLAB_TOL", "1e-3")
    monkeypatch.setenv("HARDYLAB_DEGREE", "5,5")
    assert run_cli(["check-beurling", "--config", mono_cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tolerance"] == 1e-3
    assert doc["caps"] == [5, 5]


def test_flag_beats_env(mono_cfg, monkeypatch, capsys):
    monkeypatch.setenv("HARDYLAB_TOL", "1e-3")
    assert run_cli(["check-beurling", "--config", mono_cfg, "--tol", "1e-12"]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-12


def test_env_format_and_out(mono_cfg, monkeypatch, tmp_path, capsys):
    target = tmp_path / "envout.txt"
    monkeypatch.setenv("HARDYLAB_FORMAT", "text")
    monkeypatch.setenv("HARDYLAB_OUT", str(target))
    assert run_cli(["check-beurling", "--config", mono_cfg]) == 0
    assert capsys.readouterr().out == ""
    assert "scenario mono" in target.read_text()


def test_bad_env_value_exits_two(mono_cfg, monkeypatch, capsys):
    monkeypatch.setenv("HARDYLAB_SEED", "soon")
    assert run_cli(["check-beurling", "--config", mono_cfg]) == 2
    assert "HARDYLAB_SEED" in capsys.readouterr().err



@pytest.mark.parametrize("origin, command, value, message", [
    ("config", "check-beurling", "caps = 0 0", "caps must be >= 1"),
    ("config", "check-beurling", "margins = -1 -1", "margins must be >= 0"),
    ("--degree", "check-beurling", "0,0", "caps must be >= 1"),
    ("--degree", "check-beurling", "-2,3", "caps must be >= 1"),
    ("--margins", "check-beurling", "1,-1", "margins must be >= 0"),
    ("HARDYLAB_DEGREE", "check-beurling", "0 0", "caps must be >= 1"),
    ("HARDYLAB_TOL", "check-beurling", "-1e-8", "tol must be positive"),
    ("config", "example42", "seed = -1", "seed must be >= 0, got '-1'"),
    ("--seed", "example42", "-1", "seed must be >= 0, got '-1'"),
    ("HARDYLAB_SEED", "example42", "-1", "seed must be >= 0, got '-1'"),
    ("--seed", "check-beurling", "-1", "seed must be >= 0, got '-1'"),
    ("config", "check-beurling", "caps = 3 3 3", "caps (3, 3, 3) do not match 2 variables"),
    ("config", "check-beurling", "margins = 1", "margins (1,) do not match 2 variables"),
    ("--degree", "check-beurling", "3,3,3", "caps (3, 3, 3) do not match 2 variables"),
    ("--margins", "check-beurling", "1,1,1", "margins (1, 1, 1) do not match 2 variables"),
    ("HARDYLAB_DEGREE", "check-beurling", "3 3 3", "caps (3, 3, 3) do not match 2 variables"),
    ("config", "example42", "caps = 4 4 4", "caps (4, 4, 4) do not match 2 variables"),
    ("--degree", "example42", "4,4,4", "caps (4, 4, 4) do not match 2 variables"),
    ("HARDYLAB_DEGREE", "example42", "4 4 4", "caps (4, 4, 4) do not match 2 variables"),
    ("--format", "check-beurling", "yaml", "unknown format 'yaml'; choose json or text"),
    ("HARDYLAB_FORMAT", "check-beurling", "yaml", "unknown format 'yaml'; choose json or text"),
])
def test_bad_value_exits_two_naming_its_origin(tmp_path, monkeypatch, capsys,
                                               origin, command, value, message):
    setting = value if origin == "config" else "seed = 1"
    cfg = tmp_path / "probe.cfg"
    cfg.write_text(f"command = {command}\n{setting}\nsymbol:\nnumerator\n"
                   "1 1 0 0 1.0 0.0\nend\n")
    argv = [command, "--config", cfg]
    if origin.startswith("--"):
        argv.append(f"{origin}={value}")
    elif origin.startswith("HARDYLAB_"):
        monkeypatch.setenv(origin, value)
    assert run_cli(argv) == 2
    where = "line 2" if origin == "config" else origin
    assert f"{where}: {message}" in capsys.readouterr().err


WINDOW_SOURCES = "symbol:\nnumerator\n2 2 0 0 1.0 0.0\nend\nphi:\nnumerator\n1 0 0 0 1.0 0.0\nend\n"


@pytest.mark.parametrize("command", ["check-beurling", "identity-suite", "check-brehmer", "factor"])
@pytest.mark.parametrize("origin", ["config", "--degree", "HARDYLAB_DEGREE", "default"])
def test_caps_below_the_window_margins_exit_two_before_any_run(tmp_path, monkeypatch, capsys,
                                                                command, origin):
    def no_run(scenario):
        raise AssertionError("run_scenario called")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    cfg = tmp_path / "window.cfg"
    sources = WINDOW_SOURCES if command == "factor" else WINDOW_SOURCES.split("phi:")[0]
    if origin == "default":     # z1^5 z2^5 against the default caps (4, 4)
        sources = sources.replace("2 2 0 0", "5 5 0 0")
    cfg.write_text(f"command = {command}\n{'caps = 1 1' if origin == 'config' else 'seed = 1'}\n"
                   + sources)
    argv = [command, "--config", cfg]
    if origin == "--degree":
        argv.append("--degree=1,1")
    elif origin == "HARDYLAB_DEGREE":
        monkeypatch.setenv(origin, "1 1")
    assert run_cli(argv) == 2
    if origin == "default":
        message = "default caps (4, 4) are below the degrees (5, 5) of the symbol"
    else:
        where = "line 2" if origin == "config" else origin
        message = f"{where}: caps (1, 1) are below the degrees (2, 2) of the symbol"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-beurling", "check-brehmer", "identity-suite"])
def test_margins_above_the_caps_exit_two_for_every_window_command(tmp_path, capsys, command):
    cfg = tmp_path / "margins.cfg"
    cfg.write_text(f"command = {command}\ncaps = 2 2\nmargins = 3 3\n"
                   "symbol:\nnumerator\n1 0 0 0 1.0 0.0\nend\n")
    assert run_cli([command, "--config", cfg]) == 2
    message = "line 2: caps (2, 2) are below the margins (3, 3) from line 3"
    assert message in capsys.readouterr().err


def test_margins_setting_is_not_checked_for_a_tuple_source(tmp_path, capsys):
    # a tuple reads no window, so margins above the caps leave the run alone
    cfg = tmp_path / "tuple.cfg"
    cfg.write_text("command = check-brehmer\ncaps = 2 2\nmargins = 3 3\n"
                   "tuple:\ndim 1\ncount 2\nmatrix 0\n0 0\nmatrix 1\n0 0\nend\n")
    assert run_cli(["check-brehmer", "--config", cfg]) == 0


@pytest.mark.parametrize("margins, code", [("", 0), ("margins = 0 0\n", 1)],
                         ids=["default-window", "whole-grid"])
def test_check_brehmer_gates_a_symbol_on_the_margins_setting(tmp_path, capsys, margins, code):
    # b_0.5(z1) at caps 3: the invariance defect is 0.036 on the default
    # window (margins 1 1) and 0.080, above the gate 0.05, on the whole grid
    cfg = tmp_path / "margins.cfg"
    cfg.write_text(f"command = check-brehmer\ncaps = 3 3\n{margins}symbol:\nnumerator\n"
                   "1 0 0 0 1.0 0.0\n0 0 0 0 -0.5 0.0\ndenominator\n"
                   "0 0 0 0 1.0 0.0\n1 0 0 0 -0.5 0.0\nend\n")
    assert run_cli(["check-brehmer", "--config", cfg]) == code
    assert ("not shift-invariant" in capsys.readouterr().out) == bool(code)


def test_check_brehmer_on_a_constant_unitary_passes(tmp_path, capsys):
    # the quotient of a constant unitary is {0}: the extracted pair is 0 x 0
    cfg = tmp_path / "unit.cfg"
    cfg.write_text("command = check-brehmer\ncaps = 3 3\nsymbol:\n0 0 0 0 1.0 0.0\nend\n")
    assert run_cli(["check-brehmer", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "ok"
    assert all(doc["verdicts"].values()) and set(doc["residuals"].values()) == {0.0}


def _blaschke_division_cfg(radius):
    """b_a(z1) z2 divided by b_a(z1), |a| = radius, at caps 8 8 and tol 1e-8,
    expecting the witness within tolerance."""
    phi = AnalyticSymbol.blaschke(radius, 0, 2)
    theta = phi.matmul(AnalyticSymbol.monomial((0, 1)))
    return (f"command = factor\ncaps = 8 8\ntol = 1e-8\n"
            f"symbol:\n{dump_coefficient_text(theta)}end\n"
            f"phi:\n{dump_coefficient_text(phi)}end\n"
            "expect:\nwitness_within_tolerance = true\nend\n")


@pytest.mark.parametrize("radius", [0.3, 0.6, 0.9])
def test_factor_witness_of_an_exact_rational_division_is_within_tolerance(radius, tmp_path,
                                                                         capsys):
    """The witness reads exact residuals only, so an exact division passes at
    the default margins; N is gated by the check alone, which still refuses
    the split at |a| = 0.9."""
    cfg = tmp_path / "division.cfg"
    cfg.write_text(_blaschke_division_cfg(radius))
    code = run_cli(["factor", "--config", cfg])
    doc = json.loads(capsys.readouterr().out)
    if radius < 0.9:
        assert code == 0, doc
        assert "invariance" not in doc["residuals"]
        assert doc["residuals"]["witness_within_tolerance"] <= 1e-14
    else:
        assert code == 1
        assert doc["status"].startswith("error: subspace is not shift-invariant")


@pytest.mark.parametrize("command, sources, flag, wanted", [
    ("check-beurling", "caps = 2 2\n" + Z1_BLOCK + BASIS_BLOCK, None,
     "needs symbol or basis, got symbol and basis"),
    ("check-brehmer", "symbol:\nnumerator\n1 1 0 0 1.0 0.0\nend\n" + ZERO_PAIR_TUPLE, None,
     "needs symbol or tuple, got symbol and tuple"),
    ("check-beurling", Z1_BLOCK + Z1_BLOCK.replace("symbol", "phi"), None,
     "needs symbol or basis, got symbol and phi"),
    ("example42", "caps = 4 4\n" + Z1_BLOCK, None, "needs no source, got symbol"),
    ("check-beurling", "caps = 2 2\n" + Z1_BLOCK, "--basis-file",
     "needs symbol or basis, got symbol and basis"),
], ids=["basis-and-symbol", "tuple-and-symbol", "unread-phi", "example42-symbol",
        "basis-flag-over-symbol"])
def test_sources_other_than_one_group_exit_two(command, sources, flag, wanted, tmp_path, capsys):
    """The given sources must be exactly one of the command's groups: a second
    group, or a source that no group reads, exits 2 naming the groups and
    the sources, before any run."""
    cfg = tmp_path / "sources.cfg"
    cfg.write_text(f"command = {command}\n{sources}")
    argv = [command, "--config", cfg]
    if flag:
        basis = tmp_path / "basis.txt"
        basis.write_text(BASIS_BLOCK.split("\n")[1] + "\n")
        argv += [flag, basis]
    assert run_cli(argv) == 2
    assert f"command {command!r} {wanted}" in capsys.readouterr().err


def test_removed_example42_settings_are_unknown(tmp_path, capsys):
    for flag in ("--budget", "--pairs", "--pair-radius"):
        with pytest.raises(SystemExit) as exc:
            run_cli(["example42", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    cfg = tmp_path / "kernel.cfg"
    for key in ("budget", "pairs", "pair_radius"):
        cfg.write_text(f"command = example42\n{key} = 2\n")
        assert run_cli(["example42", "--config", cfg]) == 2
        assert f"line 2: unknown setting {key!r}" in capsys.readouterr().err


def test_config_basis_block_is_read_at_the_degree_flag_caps(tmp_path, capsys):
    cfg = tmp_path / "basis.cfg"
    cfg.write_text("command = check-beurling\ncaps = 1 1\nbasis:\n0 0 1 0 0 0 0 0\nend\n")
    assert run_cli(["check-beurling", "--config", cfg, "--degree", "1,1"]) == 0
    capsys.readouterr()
    assert run_cli(["check-beurling", "--config", cfg, "--degree", "2,2"]) == 2
    assert "basis block at line 3: line 4: row wants 18 floats" in capsys.readouterr().err


def test_undecodable_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"command = check-beurling\n\xff\xfe\n")
    assert run_cli(["check-beurling", "--config", cfg]) == 2
    assert "hardylab: error:" in capsys.readouterr().err

def test_seed_flag_reaches_report(tmp_path, capsys):
    assert run_cli(["example42", "--degree", "6,6", "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


def test_single_config_report_round_trips(mono_cfg, tmp_path):
    out = tmp_path / "r.json"
    run_cli(["check-beurling", "--config", mono_cfg, "--out", out])
    rep = json.loads(out.read_bytes())
    assert rep["status"] == "ok"
    assert rep["caps"] == [4, 4]


def test_batch_input_error_names_its_config(mono_cfg, tmp_path, capsys):
    bad = tmp_path / "margins.cfg"
    bad.write_text(COORD.replace("caps = 3 3\n", "caps = 3 3\nmargins = -1 -1\n"))
    assert run_cli(["check-beurling", "--config", mono_cfg, "--config", bad]) == 2
    err = capsys.readouterr().err
    assert f"config {str(bad)!r}: line 3: margins must be >= 0" in err
    assert str(mono_cfg) not in err


def test_internal_error_exits_three(mono_cfg, tmp_path, monkeypatch, capsys):
    from hardylab import scenarios

    def broken(s):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(scenarios.COMMANDS, "identity-suite",
                        scenarios.COMMANDS["identity-suite"]._replace(run=broken))
    assert run_cli(["identity-suite", "--symbol-file", _symbol_file(tmp_path),
                    "--degree", "3,3"]) == 3
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "internal error: TypeError: unsupported operand"
    assert "Traceback" in captured.err and "in broken" in captured.err

    # one broken run in a batch: every report is still written, exit 3
    other = tmp_path / "suite.cfg"
    other.write_text(MONO.replace("check-beurling", "identity-suite").split("expect:")[0])
    out = tmp_path / "batch.jsonl"
    code = run_cli(["identity-suite", "--config", other, "--config", other, "--out", out])
    assert code == 3
    assert len(out.read_text().splitlines()) == 2


def _symbol_file(tmp_path):
    sym = tmp_path / "sym.txt"
    sym.write_text("numerator\n1 1 0 0 1.0 0.0\n")
    return sym


@pytest.mark.parametrize("argv, named", [
    *[([command, flag, "0.5"], flag) for command in COMMANDS if command != "example42"
      for flag in ("--budget", "--pairs", "--pair-radius")],
    (["check-everything", "--degree", "4,4"], "invalid choice: 'check-everything'"),
])
def test_argument_errors_exit_two_naming_the_argument(mono_cfg, capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        run_cli([*argv, "--config", mono_cfg])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_help_lists_every_command_with_its_help_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, command in COMMANDS.items():
        assert any(line.split() == [name, *command.help.split()] for line in lines), name


@pytest.mark.parametrize("command, flags", [
    ("check-beurling", ["--degree", "5,5", "--tol", "1e-9", "--id", "probe"]),
    ("example42", ["--degree", "6,6", "--seed", "4"]),
])
def test_flags_before_the_command_give_the_same_report(mono_cfg, tmp_path, command, flags):
    source = ["--config", mono_cfg] if command == "check-beurling" else []
    after, before = tmp_path / "after.json", tmp_path / "before.json"
    assert run_cli([command, *source, *flags, "--out", after]) == 0
    assert run_cli([*source, *flags, "--out", before, command]) == 0
    assert before.read_bytes() == after.read_bytes()


@pytest.mark.parametrize("origin", ["--out", "HARDYLAB_OUT"])
@pytest.mark.parametrize("name", ["missing/r.json", "."])
def test_unwritable_out_exits_two_before_any_run(mono_cfg, tmp_path, monkeypatch, capsys,
                                                 origin, name):
    def no_run(scenario):
        raise AssertionError("run_scenario called")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    target = tmp_path / name
    argv = ["check-beurling", "--config", mono_cfg]
    if origin == "--out":
        argv += ["--out", target]
    else:
        monkeypatch.setenv(origin, str(target))
    assert run_cli(argv) == 2
    assert f"{origin}: cannot write {str(target)!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mono.cfg"]


def test_failed_run_removes_the_temp_file(mono_cfg, tmp_path, monkeypatch):
    def broken(scenario):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_scenario", broken)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["check-beurling", "--config", mono_cfg, "--out", tmp_path / "r.json"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mono.cfg"]


def test_one_parser_serves_every_call_and_keeps_nothing_between_them(mono_cfg, tmp_path,
                                                                      monkeypatch, capsys):
    """build_parser is built once per process; a call, a failing call and
    another call with other --config, --out and environment values see only
    their own settings."""
    coord = tmp_path / "coord.cfg"
    coord.write_text(COORD)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    monkeypatch.setenv("HARDYLAB_TOL", "1e-3")
    assert run_cli(["check-beurling", "--config", mono_cfg, "--out", first, "--degree", "5,5"]) == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["check-beurling", "--config", coord, "--bogus"])
    assert exc.value.code == 2
    assert "--bogus" in capsys.readouterr().err
    monkeypatch.delenv("HARDYLAB_TOL")
    assert run_cli(["check-beurling", "--config", coord, "--out", second]) == 0
    assert cli.build_parser() is cli.build_parser()
    one, two = json.loads(first.read_text()), json.loads(second.read_text())
    assert (one["scenario_id"], one["caps"], one["tolerance"]) == ("mono", [5, 5], 1e-3)
    # one pretty document: the first call's --config was not appended to
    assert (two["scenario_id"], two["caps"], two["tolerance"]) == ("coord", [3, 3], 1e-8)
    assert capsys.readouterr().out == ""
