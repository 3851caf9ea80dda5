"""Division of inner symbols and the subspaces their factorizations carve out.

When theta = phi * psi with all three inner, the submodule of theta sits
inside the submodule of phi, and the gap M = S_phi minus S_theta is a
shift-invariant piece of the quotient of theta.  Division is carried out
in coefficient space, not on the grid.  Write phi = N_phi / q_phi and
theta = N_theta / q_theta with scalar denominators free of zeros on the
closed polydisc, so that theta H^2 = N_theta H^2 (Rudin, Function Theory
in Polydiscs, 1969, ch. 5).  Then phi psi = theta exactly when

    N_phi P = N_theta q_phi,   psi = P / q_theta,

a finite identity of polynomial coefficients.  P is solved for by least
squares on the degree box of N_theta q_phi, with the product by N_phi
formed on that box widened by deg N_phi, so it is never truncated; N_phi
acts injectively because phi is inner, so P is unique.  The two gates are
exact: the relative solve residual (divisibility) and the coefficient
innerness of psi.  Neither depends on any caps, so a division holds or
fails the same way on every grid.

The converse direction is a test, not a construction: given a candidate
subspace M inside the quotient of theta, beurling_submodule_check decides
whether M + S_theta is the submodule of some larger inner factor, by the
same cross-commutator and defect-product residuals the rest of the package
uses.

The grid keeps one job: the witness splits S_phi and S_theta from the
Toeplitz blocks of their coupled variables (submodule_projection,
_toeplitz_split), so no grid-sized multiplication operator of theta, phi
or psi is formed.  Every residual
is an exact identity on thin blocks of the subspace bases
(SubspaceData.basis and .complement), and the shifts are applied by
TruncationGrid.shift, so no dense shift or dim x dim projection is formed.
A projection P = B B* enters a norm only through B: with B_c the
complement basis, ||(I - P) A|| = ||B_c* A||.  The gap and the check build
N = S_theta + M by one split (SubspaceData.extended).  Every residual of the
witness is exact; the check is the one place N is gated for invariance,
through quotient_data and cross_commutator_criterion, on the window of
margins.  The innerness and the invariance gate both live in subspaces.
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
from .grids import TruncationGrid, _as_data
from .operators import eval_margins, innerness_check, spectral_norm, toeplitz_matrix
from .subspaces import _check_finite, _innerness_gate, _toeplitz_split, submodule_projection
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
    """Division failed: phi does not divide theta, or the quotient is not inner."""


@dataclass(frozen=True)
class FactorizationWitness:
    """One verified factorization theta = phi * psi and its subspace gap.

    m_basis spans M = S_phi minus S_theta; the residuals record every check
    the construction ran, all exact: divisibility of theta by phi and
    innerness of psi in coefficient space, and the match between the two
    descriptions of the final quotient.  Invariance of N = S_theta + M is
    left to beurling_submodule_check.
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


def _divide(theta: AnalyticSymbol, phi: AnalyticSymbol, tol: float):
    """(psi, residuals) of the division theta = phi psi in coefficient space."""
    if theta.nvars != phi.nvars:
        raise ValueError("theta and phi must share the variable count")
    if theta.rows != phi.rows:
        raise ValueError("theta and phi must map into the same channel space")
    _innerness_gate(phi, tol)
    n, rows, cols = theta.nvars, phi.cols, theta.cols
    # the right-hand side N_theta q_phi, as a polynomial symbol
    target = AnalyticSymbol.polynomial(theta.numerator, n, theta.rows, cols).matmul(
        AnalyticSymbol.polynomial({k: v * np.eye(cols) for k, v in phi.denominator.items()},
                                  n, cols, cols))
    box = TruncationGrid(tuple(np.add(target.degrees, phi.degrees)))
    # P keeps the ranks inside deg(N_theta q_phi), whose products by N_phi stay in the box
    inside = np.flatnonzero(np.all(box.exponents <= target.degrees, axis=1))
    lhs = toeplitz_matrix(AnalyticSymbol.polynomial(phi.numerator, n, phi.rows, rows),
                          box)[:, box.with_channels(rows)._flat(inside)]
    rhs = target.taylor_table(box).reshape(-1, cols)
    p = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    scale = spectral_norm(rhs)
    divisibility = spectral_norm(lhs @ p - rhs) / scale if scale else 0.0
    if divisibility > tol:
        raise FactorizationError(
            f"not divisible: divisibility residual {divisibility:.3e} exceeds {tol:g}"
        )

    blocks = p.reshape(-1, rows, cols)
    kept = np.abs(blocks).max(axis=(1, 2)) > COEFF_CUTOFF
    coeffs = {box.multi_indices[r]: block for r, block, keep in zip(inside, blocks, kept) if keep}
    psi = AnalyticSymbol.rational(coeffs, theta.denominator, n, rows=rows, cols=cols)
    innerness = innerness_check(psi)
    if innerness > tol:
        raise FactorizationError(
            f"division produced a non-isometric quotient: residual {innerness:.3e}"
        )
    return psi, {"divisibility": divisibility, "psi_innerness": innerness}


def divide_inner(theta: AnalyticSymbol, phi: AnalyticSymbol, tol: float = 1e-8) -> AnalyticSymbol:
    """Quotient symbol psi with theta = phi * psi, both factors inner.

    phi must pass the innerness gate.  With phi = N_phi / q_phi and
    theta = N_theta / q_theta, P solves N_phi P = N_theta q_phi by least
    squares over the polynomials of degree at most deg(N_theta q_phi), and
    psi = P / q_theta is returned as it is, not reduced: b_a(z1) z2 divided
    by b_a(z1) gives z2 (1 - conj(a) z1) / (1 - conj(a) z1).  A coefficient
    block of P with no entry above COEFF_CUTOFF is dropped.  Two gates run
    before psi is returned: the solve residual ||N_phi P - N_theta q_phi||
    relative to ||N_theta q_phi|| (else "not divisible"), and the
    innerness_check deviation of psi (else "non-isometric quotient").  No
    grid enters, so the result is the same for every truncation.
    """
    return _divide(theta, phi, tol)[0]


def invariant_subspace_from_factorization(
    theta: AnalyticSymbol, phi: AnalyticSymbol, grid: TruncationGrid,
    tol: float = 1e-8, margins=None,
) -> FactorizationWitness:
    """Carve M = S_phi minus S_theta out of a successful division.

    M is shift-invariant relative to S_theta: multiplying M by a coordinate
    lands in N = S_theta + M.  After the division (divide_inner), S_theta
    is split by submodule_projection, which gates theta's innerness first,
    and S_phi by _toeplitz_split, phi having passed the gate in the
    division; each factors only the Toeplitz block of the variables its
    symbol couples, so theta = b_a(z1) z2 factors the block of b_a(z1)
    alone.  N is split from the theta split alone (SubspaceData.extended
    along B_phi), and M is the part of its basis past B_theta.  N is not
    gated here, and margins is not read: beurling_submodule_check gates N
    on its window of margins.
    The quotient of theta splits as M plus the quotient of phi, so
    P_phi = P_N: the quotient match ||P_phi - P_N|| is
    max(||B_N_c* B_phi||, ||B_phi_c* B_N||), the norm of a difference of
    two orthogonal projections.
    """
    psi, residuals = _divide(theta, phi, tol)
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    s_phi = _toeplitz_split(phi, grid)
    n = s_theta.extended(s_phi.basis)
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
    degenerate against S_theta, and a column with a NaN or infinite entry
    is refused by name before any norm is taken.  A real m_basis stays
    real (grids._as_data), as the witness of a real division gives it.
    """
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    m_basis = _as_data(m_basis)
    if m_basis.ndim != 2 or m_basis.shape[0] != s_theta.grid.dim:
        raise ValueError(f"m_basis must be ({s_theta.grid.dim}, r)")
    _check_finite(m_basis)
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

