"""Inner division, factorization witnesses, and the submodule dichotomies."""

import numpy as np
import pytest

import dense
from hardylab.criteria import beurling_criterion, cross_commutator_criterion, quotient_data
from hardylab.factorization import (
    FactorizationError,
    beurling_submodule_check,
    constancy_check,
    divide_inner,
    invariant_subspace_from_factorization,
)
from hardylab.grids import TruncationGrid
from hardylab.kernels import rational_inner_witness, reduced_kernel_suite
from hardylab.operators import (
    eval_margins,
    shift_matrices,
    spectral_norm,
    toeplitz_matrix,
    windowed_norm,
)
from hardylab.subspaces import SubspaceData, submodule_projection, subspace_from_columns
from hardylab.symbols import AnalyticSymbol


Z1 = AnalyticSymbol.monomial((1, 0))
Z2 = AnalyticSymbol.monomial((0, 1))
Z1Z2 = AnalyticSymbol.monomial((1, 1))


def test_monomial_division_is_exact():
    psi = divide_inner(Z1Z2, Z1, TruncationGrid((6, 6)))
    assert set(psi.numerator) == {(0, 1)}
    assert psi.numerator[(0, 1)][0, 0] == 1.0
    assert psi.is_polynomial


def test_self_division_gives_identity():
    psi = divide_inner(Z1Z2, Z1Z2, TruncationGrid((6, 6)))
    assert set(psi.numerator) == {(0, 0)}
    assert psi.numerator[(0, 0)][0, 0] == 1.0


def test_unit_division_returns_theta():
    one = AnalyticSymbol.constant([[1.0]], 2)
    psi = divide_inner(Z1Z2, one, TruncationGrid((6, 6)))
    assert set(psi.numerator) == {(1, 1)}
    assert psi.numerator[(1, 1)][0, 0] == 1.0


def test_monomials_with_disjoint_variables_not_divisible():
    with pytest.raises(FactorizationError, match="not divisible"):
        divide_inner(AnalyticSymbol.monomial((2, 0)), Z2, TruncationGrid((3, 3)))


def test_coarse_truncation_breaks_analyticity():
    # containment holds exactly, but the division operator picks up a large
    # non-Toeplitz correction from the truncated Blaschke tail
    b = AnalyticSymbol.blaschke(0.5, 0, 2)
    theta = b.matmul(Z2)
    with pytest.raises(FactorizationError, match="division not analytic"):
        divide_inner(theta, b, TruncationGrid((2, 2)))


def test_rational_division_recovers_second_factor():
    b1 = AnalyticSymbol.blaschke(0.05, 0, 2)
    b2 = AnalyticSymbol.blaschke(0.04, 1, 2)
    psi = divide_inner(b1.matmul(b2), b1, TruncationGrid((8, 8)), margins=(4, 4))
    table = b2.taylor_table(TruncationGrid((8, 8)))
    extracted = psi.taylor_table(TruncationGrid((8, 8)))
    assert np.max(np.abs(table - extracted)) < 1e-9


def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError, match="variable count"):
        divide_inner(Z1Z2, AnalyticSymbol.monomial((1,)), TruncationGrid((6, 6)))


# ---- factorization witness -------------------------------------------------

def test_monomial_witness_is_float_exact():
    wit = invariant_subspace_from_factorization(Z1Z2, Z1, TruncationGrid((6, 6)))
    for name, value in wit.residuals.items():
        assert value == 0.0, name
    assert wit.m_rank == 6


def test_monomial_witness_gap_spans_pure_powers():
    # M = z1 * (everything free of z2) = span of z1^k for k >= 1
    grid = TruncationGrid((6, 6))
    wit = invariant_subspace_from_factorization(Z1Z2, Z1, grid)
    expected = np.zeros((grid.dim, 6))
    for col, k in enumerate(range(1, 7)):
        expected[grid.flat_index((k, 0)), col] = 1.0
    p_m = wit.m_basis @ wit.m_basis.conj().T
    p_e = expected @ expected.T
    assert np.max(np.abs(p_m - p_e)) < 1e-12


def test_self_factorization_has_trivial_gap():
    wit = invariant_subspace_from_factorization(Z1Z2, Z1Z2, TruncationGrid((6, 6)))
    assert wit.m_rank == 0
    assert wit.residuals["quotient_match"] == 0.0


def test_unit_factorization_gap_is_whole_quotient():
    grid = TruncationGrid((6, 6))
    one = AnalyticSymbol.constant([[1.0]], 2)
    wit = invariant_subspace_from_factorization(Z1Z2, one, grid)
    s = submodule_projection(Z1Z2, grid)
    assert wit.m_rank == grid.dim - s.rank
    assert wit.residuals["quotient_match"] <= 1e-12


# ---- submodule check --------------------------------------------------------

def test_factorization_gap_passes_submodule_check():
    grid = TruncationGrid((6, 6))
    wit = invariant_subspace_from_factorization(Z1Z2, Z1, grid)
    rep = beurling_submodule_check(wit.m_basis, Z1Z2, grid)
    assert rep.verdict
    assert rep.residuals["cross_commutator"] <= 1e-10
    assert rep.residuals["beurling_defect_product"] <= 1e-10


def test_empty_gap_reduces_to_theta_submodule():
    grid = TruncationGrid((6, 6))
    empty = np.zeros((grid.dim, 0))
    rep = beurling_submodule_check(empty, Z1Z2, grid)
    assert rep.verdict


def test_origin_gap_of_rational_witness_fails_both_conditions():
    # wedge the vanishing-at-origin subspace between the witness submodule
    # and the grid: it is shift-invariant yet not of inner-quotient form,
    # and the defect-product residual saturates at one
    grid = TruncationGrid((6, 6))
    phi = rational_inner_witness()
    s_phi = submodule_projection(phi, grid)
    origin_cols = np.eye(grid.dim)[:, 1:]
    s00, _ = subspace_from_columns(grid, origin_cols)
    gap = (np.eye(grid.dim) - dense.projection(s_phi)) @ s00.basis
    u, sig, _ = np.linalg.svd(gap, full_matrices=False)
    m_basis = u[:, : int(np.sum(sig > 1e-10))]

    rep = beurling_submodule_check(m_basis, phi, grid)
    assert not rep.verdicts["condition_2"]
    assert not rep.verdicts["condition_3"]
    assert rep.verdicts["conditions_agree"]
    assert abs(rep.residuals["beurling_defect_product"] - 1.0) <= 1e-12


def test_submodule_check_rejects_overlapping_basis():
    grid = TruncationGrid((4, 4))
    s = submodule_projection(Z1Z2, grid)
    with pytest.raises(ValueError, match="not inside"):
        beurling_submodule_check(s.basis[:, :1], Z1Z2, grid)


def test_submodule_check_rejects_degenerate_columns():
    grid = TruncationGrid((4, 4))
    v = np.zeros((grid.dim, 2))
    v[grid.flat_index((1, 0)), 0] = 1.0
    v[grid.flat_index((1, 0)), 1] = 1.0
    with pytest.raises(ValueError, match="degenerate"):
        beurling_submodule_check(v, Z1Z2, grid)


def test_submodule_check_rejects_bad_shape():
    with pytest.raises(ValueError, match="m_basis"):
        beurling_submodule_check(np.zeros((3, 1)), Z1Z2, TruncationGrid((4, 4)))


# ---- constancy ---------------------------------------------------------------

def test_constant_unitary_passes_both_detectors():
    u = np.array([[0.6, 0.8], [-0.8, 0.6]])
    rep = constancy_check(AnalyticSymbol.constant(u, 2), TruncationGrid((4, 4)))
    assert rep.verdict
    assert rep.residuals["surjectivity"] <= 1e-12
    assert rep.residuals["coefficient"] == 0.0


def test_coordinate_fails_both_detectors_consistently():
    rep = constancy_check(Z1, TruncationGrid((4, 4)))
    assert not rep.verdicts["surjective"]
    assert not rep.verdicts["constant_coefficients"]
    assert rep.verdicts["tests_consistent"]
    assert rep.residuals["surjectivity"] == 1.0


def test_rational_witness_is_not_constant():
    rep = constancy_check(rational_inner_witness(), TruncationGrid((4, 4)))
    assert not rep.verdicts["surjective"]
    assert not rep.verdicts["constant_coefficients"]
    assert rep.verdicts["tests_consistent"]
    assert abs(rep.residuals["coefficient"] - 0.5) < 1e-15


# ---- the division, gap and check against the dense formulas they replaced ---

def _two_channel_pair():
    """theta = diag(z1 z2, z1) divided by phi = z1 I."""
    theta = AnalyticSymbol.polynomial(
        {(1, 1): np.diag([1.0, 0.0]), (1, 0): np.diag([0.0, 1.0])}, 2, rows=2, cols=2)
    return theta, AnalyticSymbol.polynomial({(1, 0): np.eye(2)}, 2, rows=2, cols=2)


def _rational_pair():
    b = AnalyticSymbol.blaschke(0.05 * np.exp(0.7j), 0, 2)
    return b.matmul(Z2), b


PAIRS = {
    # name: (theta, phi, caps, tol, margins)
    "monomial": (AnalyticSymbol.monomial((3, 2)), AnalyticSymbol.monomial((2, 0)),
                 (12, 12), 1e-10, None),
    "rational": _rational_pair() + ((8, 8), 1e-8, (4, 4)),
    "two-channel": _two_channel_pair() + ((6, 6), 1e-8, None),
}


def _dense_witness(wit, tol, margins):
    """Every witness residual, written out with dim x dim shifts and projections."""
    theta, phi, psi, grid = wit.theta, wit.phi, wit.psi, wit.grid
    margins = margins or tuple(max(a, b) for a, b in
                               zip(eval_margins(theta), eval_margins(phi)))
    s_phi = submodule_projection(phi, grid, inner_tol=tol)
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    p_phi, p_theta = s_phi.basis @ s_phi.basis.conj().T, s_theta.basis @ s_theta.basis.conj().T
    p_m = wit.m_basis @ wit.m_basis.conj().T
    eye = np.eye(grid.dim)
    mt, mp, mq = (toeplitz_matrix(f, grid) for f in (theta, phi, psi))
    dom_t, dom_p = grid.with_channels(theta.cols), grid.with_channels(phi.cols)
    col_window, row_window = dom_t.window_indices(margins), dom_p.window_indices(margins)
    rows = np.arange(grid.dim)
    x = mp.conj().T @ mt
    window = grid.window_indices(margins)
    return {
        "containment": windowed_norm((eye - p_phi) @ mt, rows, col_window),
        "shift_commutation": max(
            windowed_norm(x @ r - left @ x, row_window, col_window)
            for r, left in zip(shift_matrices(dom_t), shift_matrices(dom_p))),
        "psi_isometry": windowed_norm(mq.conj().T @ mq - np.eye(dom_t.dim), col_window),
        "reconstruction": windowed_norm(mt - mp @ mq, rows, col_window),
        "invariance": max(windowed_norm((eye - p_m - p_theta) @ m @ p_m, window)
                          for m in shift_matrices(grid)),
        "quotient_match": spectral_norm(p_phi - p_theta - p_m),
    }


def _dense_submodule_check(m_basis, theta, grid, tol):
    """cross_commutator and beurling_defect_product of N = M + S_theta, densely
    on the whole grid: the restricted-shift commutator, and the product of
    the defects P_Q M_t* P_N M_t P_Q."""
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    b = np.linalg.qr(np.hstack([s_theta.basis, m_basis]))[0]
    p_s = b @ b.conj().T
    p_q = np.eye(grid.dim) - p_s
    mats = shift_matrices(grid)
    r = [b.conj().T @ m @ b for m in mats]
    ghat = [p_q @ m.conj().T @ p_s @ m @ p_q for m in mats]
    return {
        "cross_commutator": spectral_norm(
            b @ (r[1].conj().T @ r[0] - r[0] @ r[1].conj().T) @ b.conj().T),
        "beurling_defect_product": spectral_norm(ghat[0] @ ghat[1]),
    }


# z1 z2 is not divisible by b_{1/2}(z1); tolerance 2 lets the division through
# with every residual of order one, so the comparison below is not one of zeros
FAR = (Z1Z2, AnalyticSymbol.blaschke(0.5, 0, 2), (5, 5), 2.0, (1, 1))


@pytest.mark.parametrize("name", sorted(PAIRS) + ["far"])
def test_witness_and_check_match_dense_formulas(name):
    theta, phi, caps, tol, margins = PAIRS.get(name, FAR)
    grid = TruncationGrid(caps)
    wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
    dense = _dense_witness(wit, tol, margins)
    assert list(wit.residuals) == list(dense)
    for key, want in dense.items():
        assert abs(wit.residuals[key] - want) <= 1e-13, (key, wit.residuals[key], want)
    assert wit.m_rank > 0
    assert np.allclose(wit.m_basis.conj().T @ wit.m_basis, np.eye(wit.m_rank), rtol=0, atol=1e-13)

    rep = beurling_submodule_check(wit.m_basis, theta, grid, tol=tol, margins=margins)
    dense = _dense_submodule_check(wit.m_basis, theta, wit.grid, tol)
    for key, want in dense.items():
        assert abs(rep.residuals[key] - want) <= 1e-13, (key, rep.residuals[key], want)


def _stacked_split_check(m_basis, theta, grid, tol, margins):
    """The check's residuals with N = S_theta + M split on the whole grid by
    one full SVD of the stacked columns [B_theta, M]."""
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    u, sig, _ = np.linalg.svd(np.hstack([s_theta.basis, m_basis]), full_matrices=True)
    r = int(np.sum(sig > 1e-10 * sig[0]))
    assert r == s_theta.rank + m_basis.shape[1]
    n = SubspaceData(s_theta.grid, u[:, :r], u[:, r:])
    margins = margins or eval_margins(theta)
    cross = cross_commutator_criterion(n, margins=margins, tol=tol)
    product = beurling_criterion(quotient_data(n, margins=margins), tol=tol)
    return {"cross_commutator": cross.residuals["cross_commutator"],
            "beurling_defect_product": product.residuals["beurling_defect_product"]}


@pytest.mark.parametrize("gap", ["witness", "origin"])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_submodule_check_matches_a_stacked_split(name, gap):
    # "origin" wedges every basis vector but the first between S_theta and
    # the grid: N is shift-invariant but not of Beurling type, so the
    # residuals compared are of order one rather than zeros
    theta, phi, caps, tol, margins = PAIRS[name]
    grid = TruncationGrid(caps)
    if gap == "witness":
        m_basis = invariant_subspace_from_factorization(
            theta, phi, grid, tol=tol, margins=margins).m_basis
    else:
        b = submodule_projection(theta, grid, inner_tol=tol).basis
        cols = np.eye(b.shape[0])[:, 1:]
        u, sig, _ = np.linalg.svd(cols - b @ (b.conj().T @ cols), full_matrices=False)
        m_basis = u[:, sig > 1e-10]
    rep = beurling_submodule_check(m_basis, theta, grid, tol=tol, margins=margins)
    want = _stacked_split_check(m_basis, theta, grid, tol, margins)
    assert list(rep.residuals) == list(want)
    if gap == "origin":
        assert not rep.verdict and min(want.values()) > 0.1
    for key, value in want.items():
        assert abs(rep.residuals[key] - value) <= 1e-13, (key, rep.residuals[key], value)


@pytest.mark.parametrize("kind", ["theta-column", "repeated", "combination", "zero"])
def test_degenerate_gap_is_reported_against_s_theta(kind):
    theta, phi, caps, tol, margins = PAIRS["rational"]
    grid = TruncationGrid(caps)
    m = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins).m_basis
    if kind == "theta-column":
        # a column of S_theta adds nothing to N; tolerance 2 lets it past the overlap gate
        m_basis, tol = submodule_projection(theta, grid).basis[:, :1], 2.0
    else:
        extra = {"repeated": m[:, :1], "combination": m[:, :1] - 2j * m[:, 1:2],
                 "zero": np.zeros((grid.dim, 1))}[kind]
        m_basis = np.hstack([m, extra])
    with pytest.raises(ValueError, match="degenerate against S_theta"):
        beurling_submodule_check(m_basis, theta, grid, tol=tol, margins=margins)


def test_division_and_check_take_no_grid_wide_singular_vectors(no_wide_singular_vectors):
    for name in ("monomial", "rational"):
        theta, phi, caps, tol, margins = PAIRS[name]
        grid = TruncationGrid(caps)
        no_wide_singular_vectors(grid.dim)
        wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
        assert max(wit.residuals.values()) <= tol, name
        assert beurling_submodule_check(wit.m_basis, theta, grid, tol=tol,
                                        margins=margins).verdict, name


def test_quotient_match_sees_a_dropped_gap():
    # a rank cut above every gap singular value leaves M empty, so S_theta + M
    # misses the whole of S_phi minus S_theta and the two quotients differ by 1
    theta, phi, caps, tol, margins = PAIRS["monomial"]
    wit = invariant_subspace_from_factorization(theta, phi, TruncationGrid(caps), tol=tol,
                                                margins=margins, rank_tol=2.0)
    assert wit.m_rank == 0
    dense = _dense_witness(wit, tol, margins)
    assert wit.residuals["quotient_match"] == dense["quotient_match"] == 1.0


@pytest.mark.parametrize("symbol, caps", [
    (AnalyticSymbol.constant(np.array([[0.6, 0.8], [-0.8, 0.6]]), 2), (4, 4)),
    (Z1, (4, 4)),
    (rational_inner_witness(), (5, 5)),
])
def test_constancy_surjectivity_matches_dense_formula(symbol, caps):
    grid = TruncationGrid(caps)
    s = submodule_projection(symbol, grid)
    window = s.grid.window_indices(eval_margins(symbol))
    dense = windowed_norm(np.eye(s.grid.dim) - s.basis @ s.basis.conj().T, window)
    rep = constancy_check(symbol, grid)
    assert abs(rep.residuals["surjectivity"] - dense) <= 1e-13


def test_submodule_check_rejects_an_empty_window():
    # N = z1 H^2 + span{z2, z2^2, z2^3} is the origin complement, which is not
    # of Beurling type; margins past the caps must not let it pass vacuously
    grid = TruncationGrid((3, 3))
    m_basis = np.stack([grid.basis_vector((0, k)) for k in (1, 2, 3)], axis=1)
    rep = beurling_submodule_check(m_basis, Z1, grid)
    assert not rep.verdicts["condition_2"] and not rep.verdicts["condition_3"]
    with pytest.raises(ValueError, match="empty evaluation window"):
        beurling_submodule_check(m_basis, Z1, grid, margins=(4, 4))


def test_division_and_gap_form_no_dense_shift_or_projection(no_dense_operators):
    for name, (theta, phi, caps, tol, margins) in PAIRS.items():
        grid = TruncationGrid(caps)
        divide_inner(theta, phi, grid, tol=tol, margins=margins)
        wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
        assert max(wit.residuals.values()) <= tol, name
        assert beurling_submodule_check(wit.m_basis, theta, grid, tol=tol,
                                        margins=margins).verdict, name
    assert constancy_check(Z1, TruncationGrid((4, 4))).verdicts["tests_consistent"]
    report = reduced_kernel_suite(caps=(6, 6), pairs=2, budget=2)
    assert report["verdicts"]["strict_inclusions"]
