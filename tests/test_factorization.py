"""Inner division, factorization witnesses, and the submodule dichotomies."""

import json

import numpy as np
import pytest

import dense
from hardylab import factorization
from hardylab.cli import main
from hardylab.criteria import beurling_criterion, cross_commutator_criterion, quotient_data
from hardylab.factorization import (
    FactorizationError,
    beurling_submodule_check,
    divide_inner,
    invariant_subspace_from_factorization,
)
from hardylab.grids import TruncationGrid
from hardylab.kernels import rational_inner_witness, reduced_kernel_suite
from hardylab.operators import eval_margins, shift_matrices, spectral_norm
from hardylab.subspaces import SubspaceData, submodule_projection, subspace_from_columns
from hardylab.symbols import AnalyticSymbol, dump_coefficient_text


Z1 = AnalyticSymbol.monomial((1, 0))
Z2 = AnalyticSymbol.monomial((0, 1))
Z1Z2 = AnalyticSymbol.monomial((1, 1))


def test_monomial_division_is_exact():
    psi = divide_inner(Z1Z2, Z1)
    assert set(psi.numerator) == {(0, 1)}
    assert psi.numerator[(0, 1)][0, 0] == 1.0
    assert psi.is_polynomial


def test_self_division_gives_identity():
    psi = divide_inner(Z1Z2, Z1Z2)
    assert set(psi.numerator) == {(0, 0)}
    assert psi.numerator[(0, 0)][0, 0] == 1.0


def test_unit_division_returns_theta():
    one = AnalyticSymbol.constant([[1.0]], 2)
    psi = divide_inner(Z1Z2, one)
    assert set(psi.numerator) == {(1, 1)}
    assert psi.numerator[(1, 1)][0, 0] == 1.0


def test_monomials_with_disjoint_variables_not_divisible():
    with pytest.raises(FactorizationError, match="not divisible"):
        divide_inner(AnalyticSymbol.monomial((2, 0)), Z2)


def test_coarse_truncation_divides_exactly():
    # the division reads no grid, so the witness at caps 2, far short of the
    # divisor's Taylor tail, still finds the exact quotient
    b = AnalyticSymbol.blaschke(0.5, 0, 2)
    grid = TruncationGrid((2, 2))
    wit = invariant_subspace_from_factorization(b.matmul(Z2), b, grid)
    assert wit.residuals["divisibility"] <= 1e-15
    assert wit.residuals["psi_innerness"] <= 1e-14
    assert np.abs(wit.psi.taylor_table(grid) - Z2.taylor_table(grid)).max() <= 1e-15


def test_rational_division_recovers_second_factor():
    b1 = AnalyticSymbol.blaschke(0.05, 0, 2)
    b2 = AnalyticSymbol.blaschke(0.04, 1, 2)
    psi = divide_inner(b1.matmul(b2), b1)
    table = b2.taylor_table(TruncationGrid((8, 8)))
    extracted = psi.taylor_table(TruncationGrid((8, 8)))
    assert np.max(np.abs(table - extracted)) < 1e-14


def test_a_non_isometric_quotient_is_refused():
    # 1/2 z1 = z1 * 1/2 exactly, but psi = 1/2 is no isometry: its
    # innerness deviation is |1/4 - 1| = 0.75
    half_z1 = AnalyticSymbol.polynomial({(1, 0): 0.5}, nvars=2)
    with pytest.raises(FactorizationError, match=r"non-isometric quotient: residual 7\.500e-01"):
        divide_inner(half_z1, Z1)


def test_a_zero_dividend_is_refused():
    # 0 = z1 * 0 solves with no residual and nothing to scale it by; the
    # quotient 0 then fails the innerness gate with deviation |0 - 1|
    zero = AnalyticSymbol.polynomial({}, nvars=2)
    with pytest.raises(FactorizationError, match=r"non-isometric quotient: residual 1\.000e\+00"):
        divide_inner(zero, Z1)


def test_a_divisor_into_another_channel_space_is_refused():
    phi = AnalyticSymbol.constant(np.eye(2), nvars=2)
    with pytest.raises(ValueError, match="same channel space"):
        divide_inner(Z1, phi)


def test_margins_past_the_caps_leave_no_exact_columns():
    # the witness reads no window, but the check's invariance gate does
    grid = TruncationGrid((3, 3))
    wit = invariant_subspace_from_factorization(Z1Z2, Z1, grid, margins=(4, 4))
    with pytest.raises(ValueError, match="empty evaluation window"):
        beurling_submodule_check(wit.m_basis, Z1Z2, grid, margins=(4, 4))



def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError, match="variable count"):
        divide_inner(Z1Z2, AnalyticSymbol.monomial((1,)))
    with pytest.raises(ValueError, match="symbol has 2 variables, grid has 3"):
        invariant_subspace_from_factorization(Z1Z2, Z1, TruncationGrid((2, 2, 2)))


# ---- known answers of the coefficient-space division ------------------------

def _bp_factor(v, var):
    """(I - P) + P z_var on two variables, P the projection onto v."""
    proj = np.outer(v, v.conj()) / np.vdot(v, v)
    e = tuple(int(t == var) for t in range(2))
    return AnalyticSymbol.polynomial({(0, 0): np.eye(2) - proj, e: proj}, 2, rows=2, cols=2)


def _blaschke_potapov_factors():
    """(phi1, phi2) with Theta_BP = phi1 phi2: rank-one Blaschke-Potapov
    factors in z1 and z2, their directions the first two complex normal
    draws of default_rng(0)."""
    rng = np.random.default_rng(0)
    v, u = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
    return _bp_factor(v, 0), _bp_factor(u, 1)


PHI1, PHI2 = _blaschke_potapov_factors()


@pytest.mark.parametrize("caps", [(2, 2), (8, 8)])
@pytest.mark.parametrize("radius", [0.05, 0.3, 0.6, 0.9])
def test_blaschke_division_is_exact_at_every_radius(radius, caps):
    """b_a(z1) z2 / b_a(z1) = z2 (1 - conj(a) z1) / (1 - conj(a) z1), the
    quotient P / q_theta left uncancelled, at every radius and caps."""
    a = radius * np.exp(0.7j)
    b = AnalyticSymbol.blaschke(a, 0, 2)
    wit = invariant_subspace_from_factorization(b.matmul(Z2), b, TruncationGrid(caps))
    assert wit.residuals["divisibility"] <= 1e-14
    assert wit.residuals["psi_innerness"] <= 1e-14
    psi = wit.psi
    assert psi.denominator == b.denominator
    assert set(psi.numerator) == {(0, 1), (1, 1)}
    assert abs(psi.numerator[(0, 1)][0, 0] - 1) <= 1e-15
    assert abs(psi.numerator[(1, 1)][0, 0] + np.conj(a)) <= 1e-15


def test_blaschke_potapov_division_recovers_the_right_factor():
    psi = divide_inner(PHI1.matmul(PHI2), PHI1)
    grid = TruncationGrid((4, 4))
    assert np.abs(psi.taylor_table(grid) - PHI2.taylor_table(grid)).max() <= 1e-14


@pytest.mark.parametrize("theta, phi, reads", [
    # PHI2 is a right factor of Theta_BP but no left divisor of it
    (PHI1.matmul(PHI2), PHI2, "6.988e-01"),
    (AnalyticSymbol.monomial((1, 2)), AnalyticSymbol.monomial((2, 0)), "1.000e[+]00"),
], ids=["right-factor", "z1z2^2-by-z1^2"])
def test_a_factor_that_does_not_divide_is_refused(theta, phi, reads):
    with pytest.raises(FactorizationError, match=f"not divisible: divisibility residual {reads}"):
        divide_inner(theta, phi)


def test_the_quotient_does_not_depend_on_the_caps():
    b = AnalyticSymbol.blaschke(0.6j, 0, 2)
    theta = b.matmul(Z2)
    psis = [invariant_subspace_from_factorization(theta, b, TruncationGrid(caps)).psi
            for caps in ((3, 3), (8, 8), (20, 20))]
    for psi in psis[1:]:
        assert psi.denominator == psis[0].denominator
        assert list(psi.numerator) == list(psis[0].numerator)
        for k, block in psi.numerator.items():
            assert np.array_equal(block, psis[0].numerator[k])


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
        expected[dense.flat(grid, (k, 0)), col] = 1.0
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
    v[dense.flat(grid, (1, 0)), 0] = 1.0
    v[dense.flat(grid, (1, 0)), 1] = 1.0
    with pytest.raises(ValueError, match="degenerate"):
        beurling_submodule_check(v, Z1Z2, grid)


def test_submodule_check_rejects_bad_shape():
    with pytest.raises(ValueError, match="m_basis"):
        beurling_submodule_check(np.zeros((3, 1)), Z1Z2, TruncationGrid((4, 4)))


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


def _dense_divisibility(theta, phi, psi):
    """||N_phi P - N_theta q_phi|| / ||N_theta q_phi|| with P the numerator
    of psi: both products summed entry by entry over every pair of keys and
    their coefficient blocks stacked, one per key."""
    lhs, rhs = {}, {}
    for ka, na in phi.numerator.items():
        for kb, pb in psi.numerator.items():
            k = tuple(np.add(ka, kb))
            lhs[k] = lhs.get(k, 0) + na @ pb
    for ka, na in theta.numerator.items():
        for kb, qb in phi.denominator.items():
            k = tuple(np.add(ka, kb))
            rhs[k] = rhs.get(k, 0) + qb * na
    zero = np.zeros((theta.rows, theta.cols))
    keys = sorted(set(lhs) | set(rhs))
    want = np.vstack([rhs.get(k, zero) for k in keys])
    return spectral_norm(np.vstack([lhs.get(k, zero) for k in keys]) - want) / spectral_norm(want)


def _dense_witness(wit, tol):
    """Every witness residual, written out: the division's from the
    coefficients entry by entry, the gap's with dim x dim projections."""
    theta, phi, psi, grid = wit.theta, wit.phi, wit.psi, wit.grid
    s_phi = submodule_projection(phi, grid, inner_tol=tol)
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    p_phi, p_theta = s_phi.basis @ s_phi.basis.conj().T, s_theta.basis @ s_theta.basis.conj().T
    p_n = p_theta + wit.m_basis @ wit.m_basis.conj().T
    return {
        "divisibility": _dense_divisibility(theta, phi, psi),
        "psi_innerness": dense.innerness_deviation(psi),
        "quotient_match": spectral_norm(p_phi - p_n),
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
# with its residuals of order one, so the comparison below is not one of zeros
FAR = (Z1Z2, AnalyticSymbol.blaschke(0.5, 0, 2), (5, 5), 2.0, (1, 1))
# b_{1/2}(z1) z2 / b_{1/2}(z1) at caps 2, far short of the divisor's Taylor tail;
# the division is exact all the same (test_coarse_truncation_divides_exactly)
COARSE = (AnalyticSymbol.blaschke(0.5, 0, 2).matmul(Z2), AnalyticSymbol.blaschke(0.5, 0, 2),
          (2, 2), 1e-8, None)


@pytest.mark.parametrize("name", sorted(PAIRS) + ["far"])
def test_witness_and_check_match_dense_formulas(name):
    theta, phi, caps, tol, margins = PAIRS.get(name, FAR)
    grid = TruncationGrid(caps)
    wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
    dense = _dense_witness(wit, tol)
    assert list(wit.residuals) == list(dense)
    for key, want in dense.items():
        assert abs(wit.residuals[key] - want) <= 1e-13, (key, wit.residuals[key], want)
    assert wit.m_rank > 0
    assert np.allclose(wit.m_basis.conj().T @ wit.m_basis, np.eye(wit.m_rank), rtol=0, atol=1e-13)

    rep = beurling_submodule_check(wit.m_basis, theta, grid, tol=tol, margins=margins)
    dense = _dense_submodule_check(wit.m_basis, theta, wit.grid, tol)
    for key, want in dense.items():
        assert abs(rep.residuals[key] - want) <= 1e-13, (key, rep.residuals[key], want)


def test_witness_does_not_read_margins():
    """The witness's residuals and gap are bit-identical whatever margins it
    is passed; only beurling_submodule_check gates N on a window."""
    theta, phi, caps, tol, _ = PAIRS["rational"]
    grid = TruncationGrid(caps)
    plain, windowed = (invariant_subspace_from_factorization(theta, phi, grid, tol=tol,
                                                             margins=margins)
                       for margins in (None, (4, 4)))
    assert list(plain.residuals) == ["divisibility", "psi_innerness", "quotient_match"]
    assert ([v.hex() for v in plain.residuals.values()]
            == [v.hex() for v in windowed.residuals.values()])
    assert np.array_equal(plain.m_basis, windowed.m_basis)

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


def test_free_variable_division_matches_the_stacked_dense_reference():
    """theta = z1^2 and phi = z1 leave z2 free, so S_theta and S_phi are
    tensored from cores on z1, while N = S_theta + M is split whole; the
    witness and the check match the dense and stacked references."""
    theta, grid, tol = AnalyticSymbol.monomial((2, 0)), TruncationGrid((6, 6)), 1e-10
    s_theta = submodule_projection(theta, grid)
    assert s_theta.core is not s_theta and s_theta.used == (0,)
    wit = invariant_subspace_from_factorization(theta, Z1, grid, tol=tol)
    want = _dense_witness(wit, tol)
    assert list(wit.residuals) == list(want)
    for key, value in want.items():
        assert abs(wit.residuals[key] - value) <= 1e-13, (key, wit.residuals[key], value)
    assert wit.m_rank == 7
    rep = beurling_submodule_check(wit.m_basis, theta, grid, tol=tol)
    assert rep.verdict
    for want in (_stacked_split_check(wit.m_basis, theta, grid, tol, None),
                 _dense_submodule_check(wit.m_basis, theta, grid, tol)):
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


ONE = AnalyticSymbol.constant(np.eye(1), 2)
FACTOR_VERDICTS = ("condition_2", "condition_3", "conditions_agree", "witness_within_tolerance")


@pytest.mark.parametrize("case", ["extended", "check-constant", "check-z1z2", "factor-cli"])
def test_a_sum_that_fills_the_grid_splits_by_index(case, tmp_path, capsys):
    """S + span(columns) with S the whole grid leaves an empty frame: the
    columns split by index, every one is discarded, and the complement is
    (dim, 0).  So the constant theta = 1 reads degenerate columns as
    theta = z1 z2 does, and theta = phi = 1 factors at caps 2 2."""
    grid = TruncationGrid((2, 2))
    if case == "extended":
        whole = subspace_from_columns(grid, np.eye(grid.dim))[0]
        summed = whole.extended(np.ones((grid.dim, 1)))
        assert (summed.rank, summed.discarded) == (grid.dim, 1)
        assert summed.complement.shape == (grid.dim, 0)
    elif case == "factor-cli":
        one = dump_coefficient_text(ONE)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"command = factor\ncaps = 2 2\nsymbol:\n{one}end\nphi:\n{one}end\n")
        assert main(["factor", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"] == dict.fromkeys(FACTOR_VERDICTS, True)
    else:
        theta = ONE if case == "check-constant" else Z1Z2
        with pytest.raises(ValueError, match="m_basis columns are degenerate against S_theta"):
            beurling_submodule_check(np.zeros((grid.dim, 1)), theta, grid)


def test_division_and_check_take_no_grid_wide_singular_vectors(no_wide_singular_vectors):
    for name in ("monomial", "rational"):
        theta, phi, caps, tol, margins = PAIRS[name]
        grid = TruncationGrid(caps)
        no_wide_singular_vectors(grid.dim)
        wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
        assert max(wit.residuals.values()) <= tol, name
        assert beurling_submodule_check(wit.m_basis, theta, grid, tol=tol,
                                        margins=margins).verdict, name


def test_division_and_check_take_no_unread_singular_vectors(no_unread_singular_vectors):
    for name, (theta, phi, caps, tol, margins) in PAIRS.items():
        grid = TruncationGrid(caps)
        wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
        assert max(wit.residuals.values()) <= tol, name
        assert beurling_submodule_check(wit.m_basis, theta, grid, tol=tol,
                                        margins=margins).verdict, name


@pytest.mark.parametrize("theta, caps", [((1, 1), (6, 6)), ((2, 3), (12, 12))])
def test_monomial_division_splits_its_sums_by_index(theta, caps, monkeypatch):
    """z^theta / z1: B_theta_c* C has zero or distinct unit columns, so the
    witness and the check split S_theta + M by index with no QR or SVD.
    Every basis is exactly 0/1 and every residual reads 0.0."""
    sums = []
    extended = SubspaceData.extended

    def refuse(*args, **kwargs):
        raise AssertionError("a coordinate sum was factored")

    def recorded(self, columns):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "qr", refuse)
            m.setattr(np.linalg, "svd", refuse)
            sums.append(extended(self, columns))
        return sums[-1]

    monkeypatch.setattr(SubspaceData, "extended", recorded)
    grid, symbol = TruncationGrid(caps), AnalyticSymbol.monomial(theta)
    wit = invariant_subspace_from_factorization(symbol, Z1, grid)
    check = beurling_submodule_check(wit.m_basis, symbol, grid)
    gap = [k for k in grid.multi_indices if k[0] >= 1 and not (k[0] >= theta[0] and k[1] >= theta[1])]
    assert len(sums) == 2 and wit.m_rank == len(gap)
    for array in (wit.m_basis, *(b for n in sums for b in (n.basis, n.complement))):
        assert set(np.unique(array)) <= {0, 1}
    assert set(wit.residuals.values()) | set(check.residuals.values()) == {0.0}
    assert check.verdict


def test_quotient_match_sees_a_dropped_gap(monkeypatch):
    # a split that adds nothing to S_theta leaves M empty, so S_theta + M
    # misses the whole of S_phi minus S_theta and the two quotients differ by 1
    theta, phi, caps, tol, margins = PAIRS["monomial"]
    monkeypatch.setattr(SubspaceData, "extended", lambda self, columns: self)
    wit = invariant_subspace_from_factorization(theta, phi, TruncationGrid(caps), tol=tol,
                                                margins=margins)
    assert wit.m_rank == 0
    dense = _dense_witness(wit, tol)
    assert wit.residuals["quotient_match"] == dense["quotient_match"] == 1.0


def test_submodule_check_rejects_an_empty_window():
    # N = z1 H^2 + span{z2, z2^2, z2^3} is the origin complement, which is not
    # of Beurling type; margins past the caps must not let it pass vacuously
    grid = TruncationGrid((3, 3))
    m_basis = np.stack([dense.unit(grid, (0, k)) for k in (1, 2, 3)], axis=1)
    rep = beurling_submodule_check(m_basis, Z1, grid)
    assert not rep.verdicts["condition_2"] and not rep.verdicts["condition_3"]
    with pytest.raises(ValueError, match="empty evaluation window"):
        beurling_submodule_check(m_basis, Z1, grid, margins=(4, 4))


def test_division_and_gap_form_no_dense_shift_or_projection(no_dense_operators):
    for name, (theta, phi, caps, tol, margins) in PAIRS.items():
        grid = TruncationGrid(caps)
        divide_inner(theta, phi, tol=tol)
        wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
        assert max(wit.residuals.values()) <= tol, name
        assert beurling_submodule_check(wit.m_basis, theta, grid, tol=tol,
                                        margins=margins).verdict, name
    report = reduced_kernel_suite(caps=(6, 6))
    assert report["verdicts"]["strict_inclusions"]


@pytest.mark.parametrize("name", sorted(PAIRS) + ["far", "coarse"])
def test_shift_commutation_matches_the_dense_commutator(name):
    # the divisibility residual, read off the least-squares solve on the
    # degree box, matches N_phi P - N_theta q_phi summed out entry by entry
    theta, phi, caps, tol, margins = {**PAIRS, "far": FAR, "coarse": COARSE}[name]
    wit = invariant_subspace_from_factorization(theta, phi, TruncationGrid(caps), tol=tol,
                                                margins=margins)
    thin, full = wit.residuals["divisibility"], _dense_divisibility(theta, phi, wit.psi)
    if name in ("monomial", "two-channel"):
        assert thin == full == 0.0
    elif name == "far":
        assert full > 0.1 and abs(thin - full) <= 1e-13, (thin, full)
    else:
        assert max(thin, full) <= 1e-14, (thin, full)


class _Recorded(np.ndarray):
    """An array whose matrix products, and the arrays derived from it, log their shapes."""

    shapes: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        def plain(arrays):
            return tuple(a.view(np.ndarray) if isinstance(a, _Recorded) else a for a in arrays)

        if "out" in kwargs:
            kwargs["out"] = plain(kwargs["out"])
        out = getattr(ufunc, method)(*plain(inputs), **kwargs)
        if ufunc is np.matmul:
            _Recorded.shapes.append(out.shape)
        return out.view(_Recorded) if isinstance(out, np.ndarray) else out


def test_division_and_gap_form_no_grid_wide_product(monkeypatch):
    toeplitz = factorization.toeplitz_matrix
    monkeypatch.setattr(factorization, "toeplitz_matrix",
                        lambda symbol, grid: toeplitz(symbol, grid).view(_Recorded))
    monkeypatch.setattr(_Recorded, "shapes", [])
    for name, (theta, phi, caps, tol, margins) in PAIRS.items():
        grid = TruncationGrid(caps)
        wide = {grid.with_channels(c).dim for c in (theta.rows, theta.cols, phi.cols)}
        divide_inner(theta, phi, tol=tol)
        wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol, margins=margins)
        assert beurling_submodule_check(wit.m_basis, theta, grid, tol=tol,
                                        margins=margins).verdict, name
        assert _Recorded.shapes, name
        grid_wide = [s for s in _Recorded.shapes if s[0] in wide and s[-1] in wide]
        assert not grid_wide, (name, grid_wide)
        _Recorded.shapes.clear()


def test_a_witness_builds_each_toeplitz_matrix_once(monkeypatch):
    """b_0.05(z1) z2 / b_0.05(z1): one Toeplitz matrix of N_phi on the degree
    box and one each for the splits of S_phi and S_theta, and the innerness
    of phi, psi and theta checked once each."""
    from hardylab import operators, subspaces

    calls = {"toeplitz_matrix": 0, "innerness_check": 0}
    for name in calls:
        real = getattr(operators, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        for module in (subspaces, factorization):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    blaschke = AnalyticSymbol.blaschke(0.05, 0, 2)
    wit = invariant_subspace_from_factorization(blaschke.matmul(Z2), blaschke,
                                                TruncationGrid((8, 8)), margins=(4, 4))
    assert max(wit.residuals.values()) <= 1e-8
    assert calls == {"toeplitz_matrix": 3, "innerness_check": 3}
