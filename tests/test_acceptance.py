"""End-to-end acceptance checks: the seven headline guarantees.

Each test pins one externally promised behavior of the package, with the
corpus pass shared across the first two so the measured runtime covers
the whole computation.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import hardylab
from hardylab.cli import main
from hardylab.corpus import corpus_entries
from hardylab.criteria import (
    beurling_criterion,
    cross_commutator_criterion,
    identity_suite,
    quotient_data,
)
from hardylab.dilation import (
    ContractionTuple,
    canonical_dilation,
    model_correspondence,
    random_brehmer_pair,
)
from hardylab.factorization import (
    beurling_submodule_check,
    divide_inner,
    invariant_subspace_from_factorization,
)
from hardylab.grids import TruncationGrid
from hardylab.kernels import reduced_kernel_suite
from hardylab.subspaces import submodule_projection, subspace_from_columns
from hardylab.symbols import AnalyticSymbol

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("SEED", "TOL", "FORMAT", "DEGREE", "OUT"):
        monkeypatch.delenv(f"HARDYLAB_{name}", raising=False)


@pytest.fixture(scope="module")
def corpus_pass():
    """One full pass over the seeded corpus: all detectors, timed."""
    entries = corpus_entries(seed=0)
    started = perf_counter()
    results = []
    for entry in entries:
        sub = entry.subspace()
        data = quotient_data(sub, margins=entry.margins)
        b = beurling_criterion(data, tol=1e-6)
        c = cross_commutator_criterion(sub, margins=entry.margins, tol=1e-6)
        suite = identity_suite(data, tol=1e-6)
        results.append((entry, b, c, suite))
    return results, perf_counter() - started


def test_criterion_1_three_detectors_agree_on_the_corpus(corpus_pass):
    results, elapsed = corpus_pass
    symbol_count = sum(1 for entry, *_ in results if entry.symbol is not None)
    assert symbol_count >= 50

    for entry, b, c, suite in results:
        product_verdict = b.verdict
        commutator_verdict = c.verdict
        xij_verdict = suite.residuals["xij"] <= 1e-6
        assert product_verdict == commutator_verdict == xij_verdict, entry.entry_id
        assert product_verdict == entry.beurling_expected, entry.entry_id

    assert elapsed < 60.0


def test_criterion_2_unconditional_identities_on_every_instance(corpus_pass):
    results, _ = corpus_pass
    assert any(entry.symbol is None for entry, *_ in results)  # vanishing-at-origin instance

    for entry, _, _, suite in results:
        r = suite.residuals
        assert r["defect_identity"] <= 1e-10, entry.entry_id
        assert r["commutator_identity"] <= 1e-10, entry.entry_id
        assert r["reduces"] <= 1e-10, entry.entry_id
        assert r["defect_domination_min_eig"] >= -1e-10, entry.entry_id


@pytest.mark.parametrize("seed", range(6))
def test_corpus_seed_sweep_passes_every_acceptance_check(seed):
    """Every entry of corpus_entries(seed): the three detectors agree on the
    entry's expected verdict, the unconditional identities sit under the
    1e-10 ceiling, and the defect domination is not below -1e-10."""
    for entry in corpus_entries(seed):
        sub = entry.subspace()
        data = quotient_data(sub, margins=entry.margins)
        suite = identity_suite(data, tol=1e-6)
        verdicts = {
            beurling_criterion(data, tol=1e-6).verdict,
            cross_commutator_criterion(sub, margins=entry.margins, tol=1e-6).verdict,
            suite.residuals["xij"] <= 1e-6,
        }
        assert verdicts == {entry.beurling_expected}, (seed, entry.entry_id, verdicts)
        for key in ("defect_identity", "commutator_identity", "reduces"):
            assert suite.residuals[key] <= 1e-10, (seed, entry.entry_id, key)
        assert suite.residuals["defect_domination_min_eig"] >= -1e-10, (seed, entry.entry_id)


def test_criterion_3_reduced_kernel_example():
    started = perf_counter()
    rep = reduced_kernel_suite()
    elapsed = perf_counter() - started

    kernel = rep["kernel"]
    assert kernel["pairs"] == 20
    assert kernel["caps"] == (20, 20)
    assert kernel["pair_radius"] == 0.6
    assert kernel["max_deviation"] <= 1e-8

    assert abs(rep["constants_quotient"]["beurling_residual"] - 1.0) <= 1e-12

    witness = rep["witness_symbol"]
    assert witness["inner_deviation"] <= 1e-10
    assert witness["numerator_origin_coefficient"] == 0.0

    gram = rep["gram"]
    assert gram["candidates"] == 64  # default budget
    assert gram["found"]
    assert gram["min_eigenvalue"] < -1e-6

    assert elapsed < 30.0


def test_criterion_4_factorization_roundtrip_is_exact():
    theta = AnalyticSymbol.monomial((1, 1))
    phi = AnalyticSymbol.monomial((1, 0))
    grid = TruncationGrid((6, 6))

    psi = divide_inner(theta, phi)
    assert set(psi.numerator) == {(0, 1)}
    assert np.array_equal(psi.numerator[(0, 1)], np.eye(1))  # coefficient error 0
    assert psi.denominator == {(0, 0): 1.0}

    witness = invariant_subspace_from_factorization(theta, phi, grid)
    assert witness.residuals["quotient_match"] <= 1e-10

    check = beurling_submodule_check(witness.m_basis, theta, grid)
    assert check.residuals["cross_commutator"] <= 1e-10
    assert check.residuals["beurling_defect_product"] <= 1e-10
    assert check.verdicts["conditions_agree"]


def test_criterion_5_dilation_exactness_and_model_consistency():
    for seed in range(20):
        pair = random_brehmer_pair(seed)
        d = canonical_dilation(pair, (4, 4), tail_tol=1e-12)
        assert d.isometry_residual <= 1e-12, seed
        assert d.intertwining_residual <= 1e-12, seed

    for k, caps in [((1, 1), (5, 5)), ((2, 1), (5, 5))]:
        rep = model_correspondence(AnalyticSymbol.monomial(k), caps=caps)
        assert rep.verdict, k
        assert rep.residuals["annihilation"] <= 1e-8, k

    grid = TruncationGrid((3, 3))
    origin = subspace_from_columns(grid, np.eye(grid.dim)[:, 1:])[0]
    data = quotient_data(origin, margins=(1, 1))
    constants_tuple = ContractionTuple(data.compressions)
    rep = model_correspondence(constants_tuple)
    assert not rep.verdicts["annihilation"]
    assert abs(rep.residuals["annihilation"] - 1.0) <= 1e-12


def test_criterion_6_truncation_residual_decreases():
    b_half = AnalyticSymbol.rational(
        {(1, 0): 1.0, (0, 0): -0.5},
        {(0, 0): 1.0, (1, 0): -0.5},
        nvars=2,
    )
    noise_floor = 1e-12
    chain = []
    for caps in [(4, 4), (6, 6), (8, 8)]:
        s = submodule_projection(b_half, TruncationGrid(caps))
        rep = beurling_criterion(quotient_data(s, margins=(1, 1)))
        chain.append(max(rep.residuals["beurling_defect_product"], noise_floor))

    assert chain[-1] <= 1e-6
    for prev, nxt in zip(chain, chain[1:]):
        assert nxt <= 1.1 * prev, chain


def test_criterion_7_cli_batch_byte_determinism(tmp_path):
    groups = {
        "check-beurling": ("monomial-pair", "blaschke-separated", "constants-quotient",
                           "free-variable-quotient"),
        "dilate": ("jordan-dilation",),
        "check-brehmer": ("zero-pair-model", "extracted-model"),
        "factor": ("product-roundtrip",),
        "identity-suite": ("mixed-identities",),
        "example42": ("reduced-kernel",),
    }
    shipped = {p.stem for p in SCENARIO_DIR.glob("*.cfg")}
    assert shipped == {name for names in groups.values() for name in names}

    for phase in ("first", "second"):
        for sub, names in groups.items():
            args = [sub]
            for name in names:
                args += ["--config", str(SCENARIO_DIR / f"{name}.cfg")]
            args += ["--out", str(tmp_path / f"{phase}-{sub}.out")]
            assert main(args) == 0, (phase, sub)

    for sub in groups:
        first = (tmp_path / f"first-{sub}.out").read_bytes()
        second = (tmp_path / f"second-{sub}.out").read_bytes()
        assert first == second, sub
        if len(groups[sub]) > 1:
            for line in first.splitlines():  # compact JSON Lines batch
                json.loads(line)
        else:
            json.loads(first)  # single pretty document


def test_in_process_reports_match_fresh_processes(tmp_path):
    """The grid tables and the parser are shared by every call of a process,
    so each shipped config, run in order and then in reverse in this
    process, must give the report and exit code of a fresh process."""
    configs = sorted(SCENARIO_DIR.glob("*.cfg"))
    assert len(configs) == 10
    src = str(Path(hardylab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv, fresh = {}, {}
    for cfg in configs:
        command = re.search(r"^command\s*=\s*(\S+)", cfg.read_text(), re.M).group(1)
        argv[cfg.stem] = [command, "--config", str(cfg), "--out"]
        out = tmp_path / f"fresh-{cfg.stem}.json"
        code = subprocess.run([sys.executable, "-m", "hardylab.cli", *argv[cfg.stem], str(out)],
                              env=env, capture_output=True).returncode
        fresh[cfg.stem] = (code, out.read_bytes())
    for phase, order in (("forward", configs), ("reverse", configs[::-1])):
        for cfg in order:
            out = tmp_path / f"{phase}-{cfg.stem}.json"
            code = main([*argv[cfg.stem], str(out)])
            assert (code, out.read_bytes()) == fresh[cfg.stem], (phase, cfg.stem)
