"""Division of inner symbols and the subspaces their factorizations carve out.

When theta = phi * psi with all three inner, the submodule of theta sits
inside the submodule of phi, and the gap M = S_phi minus S_theta is a
shift-invariant piece of the quotient of theta.  Division is carried out
at the matrix level: X = M_phi^* M_theta is the unique contraction mapping
onto the quotient symbol.  Only its constant-monomial columns are formed,
which give psi, and its analytic (shift-commuting) structure is verified on
the core window rather than assumed, as the distance of X from M_psi on the
window rows and the window columns with their one-step shifts, because a
truncation that is too small can fake containment without producing a
genuine factor.

The converse direction is a test, not a construction: given a candidate
subspace M inside the quotient of theta, beurling_submodule_check decides
whether M + S_theta is the submodule of some larger inner factor, by the
same cross-commutator and defect-product residuals the rest of the package
uses.

Every residual is an exact identity on thin blocks of the subspace bases
(SubspaceData.basis and .complement), and the shifts are applied by
TruncationGrid.shift, so no dense shift or dim x dim projection is formed.
A witness builds M_phi, M_theta and M_psi once each: the division splits
S_phi from the support block of its M_phi (the rows and columns on the
variables phi uses), and the witness splits S_theta likewise from M_theta.
A projection P = B B* enters a norm only through B: with B_c the
complement basis, ||(I - P) A|| = ||B_c* A||.  The gap and the check build
N = S_theta + M by one split (SubspaceData.extended).  The witness reports
the invariance defect of N (invariance_defect), and the check gates N on
the same defect through quotient_data and cross_commutator_criterion; the
innerness and the invariance gate both live in subspaces.
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
from .operators import eval_margins, spectral_norm, toeplitz_matrix
from .subspaces import _innerness_gate, _toeplitz_split, invariance_defect, submodule_projection
from .symbols import AnalyticSymbol

__all__ = [
    "FactorizationError",
    "FactorizationWitness",
    "divide_inner",
    "invariant_subspace_from_factorization",
    "beurling_submodule_check",
]


COEFF_CUTOFF = 1e-12


class FactorizationError(ValueError):
    """Division failed: no containment, or no analytic quotient at this size."""


@dataclass(frozen=True)
class FactorizationWitness:
    """One verified factorization theta = phi * psi and its subspace gap.

    m_basis spans M = S_phi minus S_theta; the residuals record every check
    the construction ran: containment, shift commutation of the division
    operator, reconstruction of theta, isometry of psi, invariance of
    N = S_theta + M, and the match between the two descriptions of the
    final quotient.
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


def _divide(theta: AnalyticSymbol, phi: AnalyticSymbol, grid: TruncationGrid,
            tol: float, margins):
    if theta.nvars != phi.nvars or theta.nvars != grid.nvars:
        raise ValueError("theta, phi, and the grid must share the variable count")
    if theta.rows != phi.rows:
        raise ValueError("theta and phi must map into the same channel space")
    if margins is None:
        margins = tuple(max(a, b) for a, b in zip(eval_margins(theta), eval_margins(phi)))
    margins = tuple(int(m) for m in margins)

    _innerness_gate(phi, grid, tol)
    mp = toeplitz_matrix(phi, grid)
    s_phi = _toeplitz_split(phi, grid, mp)
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

    # psi is read off the constant-monomial columns of X = M_phi^* M_theta
    x0 = mp.conj().T @ mt[:, :theta.cols]
    rows, cols = phi.cols, theta.cols
    blocks = x0.reshape(-1, rows, cols)
    kept = np.abs(blocks).max(axis=(1, 2)) > COEFF_CUTOFF
    coeffs = {k: block for k, block, keep in zip(grid.multi_indices, blocks, kept) if keep}
    if not coeffs:
        coeffs[(0,) * grid.nvars] = np.zeros((rows, cols))
    psi = AnalyticSymbol.polynomial(coeffs, grid.nvars, rows=rows, cols=cols)
    # psi maps into phi.cols channels from theta.cols channels, so M_psi's
    # domain is dom_t and its codomain dom_p
    mq = toeplitz_matrix(psi, grid)

    # X M_i - M_i X vanishes on R x W for every i exactly when X = M_psi on
    # R x W+, W+ = W with its shifts by each e_i: the commutation walks each
    # column of W+ back to the constant one, which M_psi copies
    row_window = dom_p.window_indices(margins)
    in_window = np.zeros(dom_t.dim, dtype=bool)
    in_window[col_window] = True
    reach = in_window.copy()
    for i in range(grid.nvars):
        reach |= dom_t.shift(in_window, i, adjoint=False)
    reach = np.flatnonzero(reach)
    commutation = spectral_norm(
        mp[:, row_window].conj().T @ mt[:, reach] - mq[np.ix_(row_window, reach)])
    if commutation > tol:
        raise FactorizationError(
            f"division not analytic: shift commutation residual {commutation:.3e} "
            f"exceeds {tol:g}; the truncation is too small"
        )

    mq_w = mq[:, col_window]
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
    return psi, s_phi, mt, margins, residuals


def divide_inner(theta: AnalyticSymbol, phi: AnalyticSymbol, grid: TruncationGrid,
                 tol: float = 1e-8, margins=None) -> AnalyticSymbol:
    """Quotient symbol psi with theta = phi * psi, both factors inner.

    psi is read off the constant-monomial columns of X = M_phi^* M_theta,
    which is the division operator because M_phi acts isometrically; a
    coefficient block with no entry above COEFF_CUTOFF is dropped.  Three
    gates run before psi is returned: the columns of M_theta must lie in
    S_phi (else "not divisible"), X must commute with the shifts on the
    core window, which holds exactly when X agrees with M_psi on the window
    rows and the window columns with their shifts (else "division not
    analytic"), and M_psi must act isometrically on windowed columns.
    """
    psi, _, _, _, _ = _divide(theta, phi, grid, tol, margins)
    return psi


def invariant_subspace_from_factorization(
    theta: AnalyticSymbol, phi: AnalyticSymbol, grid: TruncationGrid,
    tol: float = 1e-8, margins=None,
) -> FactorizationWitness:
    """Carve M = S_phi minus S_theta out of a successful division.

    M is shift-invariant relative to S_theta: multiplying M by a coordinate
    lands in N = S_theta + M.  theta passes the same innerness gate as in
    submodule_projection, and S_theta is split from the support block of
    the M_theta the division built.  N is split from the theta split alone
    (SubspaceData.extended along B_phi), M is the part of its basis past
    B_theta, and the invariance residual is the windowed defect of N
    (invariance_defect), the gate beurling_submodule_check runs on the same
    N.  The quotient of theta splits as M plus the quotient of phi, so
    P_phi = P_N: the quotient match ||P_phi - P_N|| is
    max(||B_N_c* B_phi||, ||B_phi_c* B_N||), the norm of a difference of
    two orthogonal projections.
    """
    psi, s_phi, mt, margins, residuals = _divide(theta, phi, grid, tol, margins)
    _innerness_gate(theta, grid, tol)
    s_theta = _toeplitz_split(theta, grid, mt)
    n = s_theta.extended(s_phi.basis)
    residuals["invariance"] = invariance_defect(n, margins)[0]
    residuals["quotient_match"] = max(
        spectral_norm(n.complement.conj().T @ s_phi.basis),
        spectral_norm(s_phi.complement.conj().T @ n.basis),
    )
    return FactorizationWitness(
        theta=theta, phi=phi, psi=psi, grid=n.grid,
        m_basis=n.basis[:, s_theta.rank:], residuals=residuals,
    )


def beurling_submodule_check(m_basis: np.ndarray, theta: AnalyticSymbol,
                             grid: TruncationGrid, tol: float = 1e-8,
                             margins=None) -> CriterionReport:
    """Is M + S_theta the submodule of an inner factor of theta?

    Two equivalent formulations are evaluated and compared: the
    cross-commutator residual of the restricted shifts on N = M + S_theta,
    and the defect-product residual of the compressions to the complement
    of N.  Their verdicts must agree; both residuals are reported.

    N is split from the theta split alone (SubspaceData.extended along
    m_basis).  Columns that add fewer dimensions than their number are
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

    n_sub = s_theta.extended(m_basis)
    if n_sub.discarded:
        raise ValueError("m_basis columns are degenerate against S_theta")

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

