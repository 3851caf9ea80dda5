"""Compression identities and the Beurling-type criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.corpus import corpus_entries
from hardylab.grids import TruncationGrid
from hardylab.operators import eval_margins, shift_matrices, spectral_norm, windowed_norm
from hardylab.subspaces import InvarianceError, subspace_from_columns, submodule_projection
from hardylab.symbols import AnalyticSymbol
from hardylab.criteria import (
    beurling_criterion,
    cross_commutator_criterion,
    douglas_factor,
    identity_suite,
    psd_sqrt,
    quotient_data,
    shift_power,
)

UNCONDITIONAL = ("defect_identity", "commutator_identity", "reduces")


def make_quotient(symbol, caps, **kw):
    g = TruncationGrid(caps)
    s = submodule_projection(symbol, g)
    return quotient_data(s, margins=eval_margins(symbol), **kw)


def s00_subspace(caps=(3, 3)):
    """All functions vanishing at the origin: every monomial but the constant."""
    g = TruncationGrid(caps)
    cols = np.eye(g.dim, dtype=complex)[:, 1:]
    s, _ = subspace_from_columns(g, cols)
    return s


def test_monomial_quotient_is_float_exact():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    assert qd.invariance == 0.0
    rep = identity_suite(qd, tol=1e-10)
    assert rep.verdict
    for key in ("xij", "beurling_defect_product", *UNCONDITIONAL,
                "annihilation_1", "annihilation_2", "annihilation_3"):
        assert rep.residuals[key] <= 1e-12, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-12


def test_monomial_defect_is_named_projection():
    # for z1 z2 the first defect projects onto the pure z2 powers, windowed
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    g = qd.grid
    c1 = qd.compressions.extended[0]
    defect = qd.q.projection - c1.conj().T @ c1
    sub = defect[np.ix_(qd.window, qd.window)]
    want = np.zeros_like(sub)
    for t, i in enumerate(qd.window):
        k, _ = g.unflatten(i)
        if k[0] == 0 and k[1] >= 1:
            want[t, t] = 1.0
    np.testing.assert_allclose(sub, want, atol=1e-12)


def test_beurling_verdicts():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    rep = beurling_criterion(qd, tol=1e-10)
    assert rep.verdict
    assert rep.residuals["beurling_defect_product"] <= 1e-12

    qd0 = quotient_data(s00_subspace(), margins=(1, 1))
    rep0 = beurling_criterion(qd0, tol=1e-8)
    assert not rep0.verdict
    assert rep0.residuals["beurling_defect_product"] == pytest.approx(1.0, abs=1e-12)


def test_s00_identities_hold_but_criteria_fail():
    qd = quotient_data(s00_subspace(), margins=(1, 1))
    assert qd.q.rank == 1
    for c in qd.compressions.operators:
        assert spectral_norm(c) <= 1e-14
    rep = identity_suite(qd, tol=1e-10)
    for key in UNCONDITIONAL:
        assert rep.residuals[key] <= 1e-12, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-10
    assert rep.residuals["xij"] >= 0.5
    assert "annihilation_1" not in rep.residuals  # skipped: hypothesis fails

    cross = cross_commutator_criterion(s00_subspace(), margins=(1, 1))
    assert cross.residuals["cross_commutator"] >= 0.5
    assert not cross.verdict


def test_three_verdicts_agree_on_both_poles():
    tol = 1e-6
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    b = beurling_criterion(qd, tol=tol).verdict
    c = cross_commutator_criterion(qd.s, margins=qd.margins, tol=tol).verdict
    x = identity_suite(qd, tol=tol).residuals["xij"] <= tol
    assert b and c and x

    qd0 = quotient_data(s00_subspace(), margins=(1, 1))
    b0 = beurling_criterion(qd0, tol=tol).verdict
    c0 = cross_commutator_criterion(qd0.s, margins=(1, 1), tol=tol).verdict
    x0 = identity_suite(qd0, tol=tol).residuals["xij"] <= tol
    assert not (b0 or c0 or x0)


def test_detectors_share_one_defect_product():
    entry = next(e for e in corpus_entries(0) if len(e.caps) == 3 and e.symbol is not None)
    qd = quotient_data(entry.subspace(), margins=entry.margins)
    products = qd.defect_products
    b = beurling_criterion(qd, tol=1e-6)
    s = identity_suite(qd, tol=1e-6)
    assert qd.defect_products is products
    assert len(products) == 3
    assert b.residuals["beurling_defect_product"] == s.residuals["beurling_defect_product"]


def test_blaschke_half_embedded_quotient():
    sym = AnalyticSymbol.blaschke(0.5, 0, nvars=2)
    qd = make_quotient(sym, (8, 8))
    c2 = qd.compressions.extended[1]
    defect2 = qd.q.projection - c2.conj().T @ c2
    assert windowed_norm(defect2, qd.window) <= 1e-6
    assert beurling_criterion(qd, tol=1e-6).verdict
    cross = cross_commutator_criterion(qd.s, margins=qd.margins, tol=1e-6)
    assert cross.verdict


def test_corpus_scale_blaschke_product_meets_identity_ceiling():
    b1 = AnalyticSymbol.blaschke(0.05, 0, nvars=2)
    b2 = AnalyticSymbol.blaschke(0.04 + 0.02j, 1, nvars=2)
    qd = make_quotient(b1.matmul(b2), (6, 6))
    rep = identity_suite(qd, tol=1e-10)
    assert rep.verdict
    for key in UNCONDITIONAL:
        assert rep.residuals[key] <= 1e-10, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-10


def test_constant_unitary_quotient_is_trivial():
    g = TruncationGrid((2, 2), channels=2)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    s = submodule_projection(AnalyticSymbol.constant(u, nvars=2), g, margins=(0, 0))
    qd = quotient_data(s, margins=(1, 1))
    assert qd.q.rank == 0
    rep = identity_suite(qd, tol=1e-10)
    assert rep.verdict
    for key, val in rep.residuals.items():
        if key != "defect_domination_min_eig":
            assert val <= 1e-12, key


def test_invariance_gate_rejects_random_subspace():
    g = TruncationGrid((2, 2))
    rng = np.random.default_rng(11)
    cols = rng.normal(size=(g.dim, 3)) + 1j * rng.normal(size=(g.dim, 3))
    s, _ = subspace_from_columns(g, cols)
    with pytest.raises(InvarianceError):
        quotient_data(s, margins=(1, 1))


def test_empty_window_rejected():
    qd_caps = TruncationGrid((2, 2))
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), qd_caps)
    with pytest.raises(ValueError, match="empty"):
        quotient_data(s, margins=(3, 3))


def test_khat_validation_and_zero_case():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    rep = identity_suite(qd, khat=(0, 0), lhat=(0, 0))
    assert rep.residuals["commutator_identity"] <= 1e-12
    with pytest.raises(ValueError, match="zero entry"):
        identity_suite(qd, khat=(1, 0))
    with pytest.raises(ValueError, match="entries"):
        identity_suite(qd, khat=(0, 0, 0))
    # per-variable mapping form: variable 0 pairs with z2, variable 1 with z1
    rep2 = identity_suite(qd, khat={0: (0, 1), 1: (1, 0)})
    assert rep2.residuals["commutator_identity"] <= 1e-12


def test_shift_power():
    g = TruncationGrid((2, 2))
    mats = shift_matrices(g)
    m = shift_power(mats, (1, 2))
    np.testing.assert_array_equal(m @ g.basis_vector((0, 0)), g.basis_vector((1, 2)))
    np.testing.assert_array_equal(m @ g.basis_vector((1, 0)), g.basis_vector((2, 2)))
    np.testing.assert_array_equal(m @ g.basis_vector((1, 1)), np.zeros(g.dim))
    with pytest.raises(ValueError):
        shift_power(mats, (-1, 0))


def test_douglas_factor_is_contraction():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (4, 4))
    _, norm, recon = douglas_factor(qd, 0, 1)
    assert norm <= 1 + 1e-10
    assert recon <= 1e-12
    with pytest.raises(ValueError):
        douglas_factor(qd, 1, 1)


def test_psd_sqrt_clamps_and_squares():
    a = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    r = psd_sqrt(a)
    np.testing.assert_allclose(r @ r, a, atol=1e-12)
    tiny = psd_sqrt(np.array([[-1e-14]], dtype=complex))
    assert tiny[0, 0] == 0.0


@settings(max_examples=15)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       ncols=st.integers(min_value=1, max_value=7))
def test_defect_decomposition_exact_for_any_subspace(seed, ncols):
    """P_Q - C*C = P_Q M* P_S M P_Q + P_Q E P_Q holds for arbitrary splits.

    This is pure matrix algebra in the truncation, so it must hold at float
    accuracy even for subspaces that are nowhere near shift-invariant.
    """
    g = TruncationGrid((2, 2))
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(g.dim, ncols)) + 1j * rng.normal(size=(g.dim, ncols))
    s, q = subspace_from_columns(g, cols)
    p_s = s.projection
    p_q = np.eye(g.dim) - p_s
    for t, m in enumerate(shift_matrices(g)):
        chat = p_q @ m @ p_q
        e_t = np.zeros((g.dim, g.dim))
        for i in g.top_slice_indices(t):
            e_t[i, i] = 1.0
        lhs = p_q - chat.conj().T @ chat
        rhs = p_q @ m.conj().T @ p_s @ m @ p_q + p_q @ e_t @ p_q
        assert spectral_norm(lhs - rhs) <= 1e-13
        # and the defect is PSD for any subspace because shifts contract
        assert float(np.linalg.eigvalsh((lhs + lhs.conj().T) / 2)[0]) >= -1e-13
