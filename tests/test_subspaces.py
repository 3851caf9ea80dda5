"""Subspace construction: submodule spans, complements, basis files."""

import numpy as np
import pytest

from hardylab.corpus import corpus_entries
from hardylab.criteria import beurling_criterion, cross_commutator_criterion, identity_suite, quotient_data
from hardylab.grids import TruncationGrid
from hardylab.operators import InnernessError, eval_margins
from hardylab.subspaces import (
    invariance_defect,
    orthonormal_columns,
    parse_basis_text,
    submodule_projection,
    subspace_from_columns,
    subspace_from_rows,
)
from hardylab.symbols import AnalyticSymbol


def phi_symbol():
    return AnalyticSymbol.rational(
        {(1, 1): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        {(0, 0): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        nvars=2,
    )


def test_monomial_submodule_is_coordinate_span():
    g = TruncationGrid((3, 3))
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), g)
    assert s.rank == 9
    diag = np.real(np.diag(s.projection))
    for i in range(g.dim):
        k, _ = g.unflatten(i)
        want = 1.0 if (k[0] >= 1 and k[1] >= 1) else 0.0
        assert diag[i] == pytest.approx(want, abs=1e-12)


def test_constant_unitary_submodule_is_everything():
    g = TruncationGrid((2, 2), channels=2)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    s = submodule_projection(AnalyticSymbol.constant(u, nvars=2), g, margins=(0, 0))
    assert s.rank == g.dim
    np.testing.assert_allclose(s.projection, np.eye(g.dim), atol=1e-12)


def test_phi_columns_stay_independent():
    g = TruncationGrid((4, 4))
    s = submodule_projection(phi_symbol(), g, margins=(1, 1))
    assert s.rank == 16
    assert s.discarded == 0


def test_projection_laws():
    g = TruncationGrid((3, 2))
    s = submodule_projection(AnalyticSymbol.blaschke(0.4, 0, nvars=2), g)
    _, q = subspace_from_columns(g, s.basis)
    eye = np.eye(g.dim)
    assert np.linalg.norm(s.projection + q.projection - eye, 2) <= 1e-12
    assert np.linalg.norm(s.projection @ s.projection - s.projection, 2) <= 1e-12
    assert np.linalg.norm(s.projection - s.projection.conj().T, 2) <= 1e-12
    assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(s.rank), 2) <= 1e-12


def test_innerness_gate_blocks_non_inner_symbols():
    g = TruncationGrid((3, 3))
    avg = AnalyticSymbol.polynomial({(1, 0): 0.5, (0, 1): 0.5}, nvars=2)
    with pytest.raises(InnernessError):
        submodule_projection(avg, g)
    # the gate can be lifted for exploratory use
    s = submodule_projection(avg, g, require_inner=False)
    assert s.rank > 0


def test_innerness_gate_blocks_symbol_unimodular_on_torus_samples():
    """(1 + z1 + z1^32 - z1^33)/2 has modulus one on the offset 32-point
    torus grid but is not inner; the coefficient gate sees it."""
    blind = AnalyticSymbol.polynomial({(0, 0): 0.5, (1, 0): 0.5, (32, 0): 0.5, (33, 0): -0.5}, nvars=2)
    with pytest.raises(InnernessError, match="coefficient deviation 1"):
        submodule_projection(blind, TruncationGrid((4, 4)))


def test_corpus_battery_evaluates_no_symbol(no_torus_evaluation):
    """The gate reads coefficients only: a dim-343 entry runs the whole
    battery with AnalyticSymbol.evaluate disabled."""
    entry = next(e for e in corpus_entries(0) if e.entry_id.startswith("product3"))
    sub = entry.subspace()
    assert sub.grid.dim == 343
    data = quotient_data(sub, margins=entry.margins)
    reports = (
        beurling_criterion(data),
        cross_commutator_criterion(sub, margins=entry.margins),
        identity_suite(data),
    )
    assert all(rep.verdict for rep in reports)


def test_rank_collapse_reports_discarded_columns():
    g = TruncationGrid((1, 1))
    v = g.basis_vector((1, 0)).astype(complex)
    s, _ = subspace_from_columns(g, np.stack([v, v, 2 * v], axis=1))
    assert s.rank == 1
    assert s.discarded == 2


def test_orthonormal_columns_helper():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    a[:, 2] = a[:, 0] + a[:, 1]
    b, dropped = orthonormal_columns(a)
    assert b.shape == (6, 2) and dropped == 1
    np.testing.assert_allclose(b.conj().T @ b, np.eye(2), atol=1e-12)


def test_contains():
    g = TruncationGrid((2, 2))
    s = submodule_projection(AnalyticSymbol.monomial((1, 0)), g)
    assert s.contains(g.basis_vector((1, 1)).astype(complex))
    assert not s.contains(g.basis_vector((0, 1)).astype(complex))


def test_invariance_defect_zero_for_coordinate_submodule():
    g = TruncationGrid((3, 3))
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), g)
    worst, per = invariance_defect(s, (1, 1))
    assert worst == 0.0 and len(per) == 2


def test_basis_text_round_trip():
    g = TruncationGrid((1, 1))
    rows = np.array([[1, 0, 0, 0, 0, 0, 0, 0],
                     [0, 0, 1, 0, 0, -1, 0, 0]], dtype=float)
    text = "\n".join(" ".join(repr(float(x)) for x in row) for row in rows)
    vecs = parse_basis_text(text, g)
    assert vecs.shape == (2, 4)
    assert vecs[1, 1] == pytest.approx(1.0)
    assert vecs[1, 2] == pytest.approx(-1j)
    s, _ = subspace_from_rows(g, vecs)
    assert s.rank == 2


def test_basis_text_errors():
    g = TruncationGrid((1, 1))
    with pytest.raises(ValueError, match="line 1"):
        parse_basis_text("1 0 0\n", g)
    with pytest.raises(ValueError, match="no basis rows"):
        parse_basis_text("# nothing here\n", g)


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_basis_text_bad_number_names_the_true_line(bad):
    g = TruncationGrid((1, 1))
    text = f"# rows\n\n1 0 0 0 0 0 0 0\n0 0 {bad} 0 0 0 0 0\n"
    with pytest.raises(ValueError, match=f"line 4: row wants finite numbers, got '{bad}'"):
        parse_basis_text(text, g)
