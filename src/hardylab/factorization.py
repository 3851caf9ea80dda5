"""Division of inner symbols and the subspaces their factorizations carve out.

When theta = phi * psi with all three inner, the submodule of theta sits
inside the submodule of phi, and the gap M = S_phi minus S_theta is a
shift-invariant piece of the quotient of theta.  Division is carried out
at the matrix level: X = M_phi^* M_theta is the unique contraction mapping
onto the quotient symbol, and its analytic (shift-commuting) structure is
verified on the core window rather than assumed, because a truncation that
is too small can fake containment without producing a genuine factor.

The converse direction is a test, not a construction: given a candidate
subspace M inside the quotient of theta, beurling_submodule_check decides
whether M + S_theta is the submodule of some larger inner factor, by the
same cross-commutator and defect-product residuals the rest of the package
uses.

Every residual is an exact identity on thin blocks of the subspace bases
(SubspaceData.basis and .complement), and the shifts are the grid's index
maps (TruncationGrid.shift_map), so no dense shift or dim x dim projection
is formed.  A projection P = B B* enters a norm only through B: with B_c
the complement basis, ||(I - P) A|| = ||B_c* A||, and a windowed norm of
B X B* is taken on the window factor of B (operators.norm_factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import (
    CriterionReport,
    beurling_criterion,
    cross_commutator_criterion,
    quotient_data,
)
from .grids import TruncationGrid
from .operators import (
    eval_margins,
    factored_norm,
    norm_factor,
    spectral_norm,
    toeplitz_matrix,
    unit_index,
    windowed_norm,
)
from .subspaces import (
    RANK_TOL,
    SubspaceData,
    submodule_projection,
)
from .symbols import AnalyticSymbol

__all__ = [
    "FactorizationError",
    "FactorizationWitness",
    "divide_inner",
    "invariant_subspace_from_factorization",
    "beurling_submodule_check",
    "constancy_check",
]


COEFF_CUTOFF = 1e-12


class FactorizationError(ValueError):
    """Division failed: no containment, or no analytic quotient at this size."""


@dataclass(frozen=True)
class FactorizationWitness:
    """One verified factorization theta = phi * psi and its subspace gap.

    m_basis spans M = S_phi minus S_theta; the residuals record every check
    the construction ran: containment, shift commutation of the division
    operator, reconstruction of theta, isometry of psi, invariance of M,
    and the match between the two descriptions of the final quotient.
    """

    theta: AnalyticSymbol
    phi: AnalyticSymbol
    psi: AnalyticSymbol
    grid: TruncationGrid
    m_basis: np.ndarray
    residuals: dict

    @property
    def m_rank(self) -> int:
        return self.m_basis.shape[1]


def _division_margins(theta, phi, margins):
    if margins is not None:
        return tuple(int(m) for m in margins)
    return tuple(max(a, b) for a, b in zip(eval_margins(theta), eval_margins(phi)))


def _divide(theta: AnalyticSymbol, phi: AnalyticSymbol, grid: TruncationGrid,
            tol: float, margins):
    if theta.nvars != phi.nvars or theta.nvars != grid.nvars:
        raise ValueError("theta, phi, and the grid must share the variable count")
    if theta.rows != phi.rows:
        raise ValueError("theta and phi must map into the same channel space")
    margins = _division_margins(theta, phi, margins)

    s_phi = submodule_projection(phi, grid, inner_tol=tol)
    mt = toeplitz_matrix(theta, grid)
    dom_t = grid.with_channels(theta.cols)
    dom_p = grid.with_channels(phi.cols)

    col_window = dom_t.window_indices(margins)
    if col_window.size == 0:
        raise ValueError(f"margins {margins} leave no exact columns at caps {grid.caps}")
    mt_w = mt[:, col_window]
    # ||(I - P_phi) M_theta W|| = ||B_phi_c* M_theta[:, W]||
    containment = spectral_norm(s_phi.complement.conj().T @ mt_w)
    if containment > tol:
        raise FactorizationError(
            f"not divisible: containment residual {containment:.3e} exceeds {tol:g}"
        )

    mp = toeplitz_matrix(phi, grid)
    x = mp.conj().T @ mt

    row_window = dom_p.window_indices(margins)
    commutation = 0.0
    for i in range(grid.nvars):
        # X M_i - M_i X: column src of X M_i is column dst of X, row dst of M_i X is row src of X
        e_i = unit_index(grid.nvars, i)
        src_t, dst_t = dom_t.shift_map(e_i)
        src_p, dst_p = dom_p.shift_map(e_i)
        comm = np.zeros_like(x)
        comm[:, src_t] = x[:, dst_t]
        comm[dst_p] -= x[src_p]
        commutation = max(commutation, windowed_norm(comm, row_window, col_window))
    if commutation > tol:
        raise FactorizationError(
            f"division not analytic: shift commutation residual {commutation:.3e} "
            f"exceeds {tol:g}; the truncation is too small"
        )

    coeffs = {}
    rows, cols = phi.cols, theta.cols
    for k in grid.multi_indices:
        r = dom_p.rank[k]
        block = x[r * rows:(r + 1) * rows, 0:cols]
        if np.abs(block).max() > COEFF_CUTOFF:
            coeffs[k] = block
    if not coeffs:
        coeffs[(0,) * grid.nvars] = np.zeros((rows, cols))
    psi = AnalyticSymbol.polynomial(coeffs, grid.nvars, rows=rows, cols=cols)

    # psi maps into phi.cols channels from theta.cols channels, so M_psi's
    # domain window is col_window
    mq_w = toeplitz_matrix(psi, grid)[:, col_window]
    isometry = spectral_norm(mq_w.conj().T @ mq_w - np.eye(col_window.size))
    if isometry > tol:
        raise FactorizationError(
            f"division produced a non-isometric quotient: residual {isometry:.3e}"
        )
    reconstruction = spectral_norm(mt_w - mp @ mq_w)

    residuals = {
        "containment": containment,
        "shift_commutation": commutation,
        "psi_isometry": isometry,
        "reconstruction": reconstruction,
    }
    return psi, s_phi, margins, residuals


def divide_inner(theta: AnalyticSymbol, phi: AnalyticSymbol, grid: TruncationGrid,
                 tol: float = 1e-8, margins=None) -> AnalyticSymbol:
    """Quotient symbol psi with theta = phi * psi, both factors inner.

    psi is read off the constant-monomial columns of X = M_phi^* M_theta,
    which is the division operator because M_phi acts isometrically; a
    coefficient block with no entry above COEFF_CUTOFF is dropped.  Three
    gates run before psi is returned: the columns of M_theta must lie in
    S_phi (else "not divisible"), X must commute with the shifts on the
    core window (else "division not analytic"), and M_psi must act
    isometrically on windowed columns.
    """
    psi, _, _, _ = _divide(theta, phi, grid, tol, margins)
    return psi


def invariant_subspace_from_factorization(
    theta: AnalyticSymbol, phi: AnalyticSymbol, grid: TruncationGrid,
    tol: float = 1e-8, margins=None, rank_tol: float = RANK_TOL,
) -> FactorizationWitness:
    """Carve M = S_phi minus S_theta out of a successful division.

    M is shift-invariant relative to S_theta: multiplying M by a coordinate
    lands in M + S_theta, and the windowed residual of that statement is
    reported.  The quotient of theta splits as M plus the quotient of phi,
    checked as an exact projection identity.

    Everything is read in the coordinates of the theta split.  The gap SVD
    B_theta_c* B_phi = U Sigma V* (SubspaceData.split_complement) gives
    M = B_theta_c U[:, :r], and the trailing columns N = B_theta_c U[:, r:]
    span the complement of S_theta + M, so I - P_M - P_theta = P_N.  The
    singular values are cosines of at most one, so the cut
    sig > rank_tol * max(1, sig[0]) is the absolute cut sig > rank_tol.
    The invariance residual ||W P_N M_t P_M W|| is ||R_N (N* M_t B_M) R_M*||
    with R the window factors, and the quotient match ||P_phi - P_theta - P_M|| is
    max(||N* B_phi||, ||B_phi_c* [B_theta, M]||), the norm of a difference
    of two orthogonal projections.
    """
    psi, s_phi, margins, residuals = _divide(theta, phi, grid, tol, margins)
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    m_basis, n_basis = s_theta.split_complement(s_phi.basis, rank_tol)

    g = s_theta.grid
    window = g.window_indices(margins)
    r_m, r_n = norm_factor(m_basis[window]), norm_factor(n_basis[window])
    invariance = 0.0
    for t in range(g.nvars):
        src, dst = g.shift_map(unit_index(g.nvars, t))
        block = n_basis[dst].conj().T @ m_basis[src]
        invariance = max(invariance, factored_norm(r_n, block, r_m))

    quotient_match = max(
        spectral_norm(n_basis.conj().T @ s_phi.basis),
        spectral_norm(s_phi.complement.conj().T @ np.hstack([s_theta.basis, m_basis])),
    )

    residuals = dict(residuals)
    residuals["invariance"] = invariance
    residuals["quotient_match"] = quotient_match
    return FactorizationWitness(
        theta=theta, phi=phi, psi=psi, grid=g,
        m_basis=m_basis, residuals=residuals,
    )


def beurling_submodule_check(m_basis: np.ndarray, theta: AnalyticSymbol,
                             grid: TruncationGrid, tol: float = 1e-8,
                             margins=None) -> CriterionReport:
    """Is M + S_theta the submodule of an inner factor of theta?

    Two equivalent formulations are evaluated and compared: the
    cross-commutator residual of the restricted shifts on N = M + S_theta,
    and the defect-product residual of the compressions to the complement
    of N.  Their verdicts must agree; both residuals are reported.

    N is built from the theta split alone: SubspaceData.split_complement
    splits the complement of S_theta along m_basis, whose part outside
    S_theta joins B_theta, and the rest of the complement is the complement
    of N.  Columns that add fewer dimensions than their number are
    degenerate against S_theta.
    """
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    m_basis = np.asarray(m_basis, dtype=complex)
    if m_basis.ndim != 2 or m_basis.shape[0] != s_theta.grid.dim:
        raise ValueError(f"m_basis must be ({s_theta.grid.dim}, r)")
    if margins is None:
        margins = eval_margins(theta)

    overlap = spectral_norm(s_theta.basis.conj().T @ m_basis)
    if overlap > tol:
        raise ValueError(
            f"M is not inside the quotient of theta: overlap {overlap:.3e}"
        )

    gain, rest = s_theta.split_complement(m_basis)
    if gain.shape[1] != m_basis.shape[1]:
        raise ValueError("m_basis columns are degenerate against S_theta")
    n_sub = SubspaceData(s_theta.grid, np.hstack([s_theta.basis, gain]), rest)

    cross = cross_commutator_criterion(n_sub, margins=margins, tol=tol)
    data = quotient_data(n_sub, margins=margins)
    product = beurling_criterion(data, tol=tol)

    c2 = cross.residuals["cross_commutator"]
    c3 = product.residuals["beurling_defect_product"]
    return CriterionReport(
        name="beurling_submodule",
        tolerance=tol,
        residuals={"cross_commutator": c2, "beurling_defect_product": c3},
        verdicts={
            "condition_2": cross.verdict,
            "condition_3": product.verdict,
            "conditions_agree": cross.verdict == product.verdict,
        },
    )


def constancy_check(theta: AnalyticSymbol, grid: TruncationGrid,
                    tol: float = 1e-8, margins=None) -> CriterionReport:
    """Two detectors for an inner symbol being a constant unitary.

    Surjectivity (the submodule covers the whole core window) and the
    coefficient test (no nonconstant Taylor coefficient) are computed
    independently; surjectivity implies constant coefficients, and that
    implication is checked rather than assumed.
    """
    s = submodule_projection(theta, grid, inner_tol=tol)
    if margins is None:
        margins = eval_margins(theta)
    window = s.grid.window_indices(tuple(margins))
    # ||W (I - P_S) W|| = ||B_c[W] B_c[W]*|| = ||B_c[W]||^2
    surjectivity = spectral_norm(s.complement[window]) ** 2

    table = theta.taylor_table(s.grid)
    coefficient = 0.0
    for r in range(1, table.shape[0]):
        coefficient = max(coefficient, float(np.abs(table[r]).max()))

    surjective = surjectivity <= tol
    constant = coefficient <= tol
    return CriterionReport(
        name="constancy",
        tolerance=tol,
        residuals={"surjectivity": surjectivity, "coefficient": coefficient},
        verdicts={
            "surjective": surjective,
            "constant_coefficients": constant,
            "tests_consistent": (not surjective) or constant,
        },
    )
