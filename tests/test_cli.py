"""Command line behavior: flags, env precedence, exit codes, batch output."""

import json

import pytest

from hardylab.cli import main
from hardylab.reports import parse_report

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
    assert run_cli(["check-beurling", "--config", mono_cfg, "--out", out]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["command"] == "check-beurling"


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
        "command = check-beurling\ncaps = 4 4 4\nsymbol:\nnumerator\n"
        "1 1 0 0 1.0 0.0\nend\nexpect:\n"
        "status = error: caps (4, 4, 4) do not match 2 variables\nend\n"
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
    ("config", "example42", "budget = 0", "budget must be >= 1"),
    ("config", "example42", "pairs = 0", "pairs must be >= 1"),
    ("--degree", "check-beurling", "0,0", "caps must be >= 1"),
    ("--degree", "check-beurling", "-2,3", "caps must be >= 1"),
    ("--margins", "check-beurling", "1,-1", "margins must be >= 0"),
    ("--budget", "example42", "0", "budget must be >= 1"),
    ("--pairs", "example42", "-1", "pairs must be >= 1"),
    ("HARDYLAB_DEGREE", "check-beurling", "0 0", "caps must be >= 1"),
    ("HARDYLAB_TOL", "check-beurling", "-1e-8", "tol must be positive"),
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


def test_config_basis_block_is_read_at_the_degree_flag_caps(tmp_path, capsys):
    cfg = tmp_path / "basis.cfg"
    cfg.write_text("command = check-beurling\ncaps = 1 1\nbasis:\n0 0 1 0 0 0 0 0\nend\n")
    assert run_cli(["check-beurling", "--config", cfg, "--degree", "1,1"]) == 0
    capsys.readouterr()
    assert run_cli(["check-beurling", "--config", cfg, "--degree", "2,2"]) == 2
    assert "basis block at line 3: line 4: want 18 floats" in capsys.readouterr().err


def test_undecodable_config_exits_two(tmp_path, capsys):
    cfg = tmp_path / "binary.cfg"
    cfg.write_bytes(b"command = check-beurling\n\xff\xfe\n")
    assert run_cli(["check-beurling", "--config", cfg]) == 2
    assert "hardylab: error:" in capsys.readouterr().err

def test_seed_flag_reaches_report(tmp_path, capsys):
    assert run_cli(["example42", "--degree", "6,6", "--pairs", "2",
                    "--budget", "2", "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9


def test_single_config_report_round_trips(mono_cfg, tmp_path):
    out = tmp_path / "r.json"
    run_cli(["check-beurling", "--config", mono_cfg, "--out", out])
    rep = parse_report(out.read_bytes())
    assert rep.ok
    assert rep.caps == (4, 4)
