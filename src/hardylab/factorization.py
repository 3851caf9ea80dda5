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
acts injectively because phi is inner, so P is unique.  Both sides are
laid out on that box straight from the coefficient arrays: N_theta q_phi
by one scatter of its pair products (_numerator_product), and the product
by N_phi by one scatter of its blocks (_product_operator).  No symbol is
built but psi, and no Taylor table or Toeplitz matrix is formed.  The two
gates are exact: the relative solve residual (divisibility) and the
coefficient innerness of psi.  Neither depends on any caps, so a division
holds or fails the same way on every grid.

The converse direction is a test, not a construction: given a candidate
subspace M inside the quotient of theta, beurling_submodule_check decides
whether M + S_theta is the submodule of some larger inner factor, by the
same cross-commutator and defect-product residuals the rest of the package
uses.

The grid keeps one job: the witness splits S_phi and S_theta from the
Toeplitz blocks of their coupled variables (submodule_projection,
_toeplitz_split), so no grid-sized multiplication operator of theta, phi
or psi is formed.  Every residual is an exact identity on thin blocks of
the quotient bases B_Q (SubspaceData.complement), the one basis a split
holds, and the shifts are applied by TruncationGrid.shift, so no dense
shift or dim x dim projection is formed: ||P_S A|| = ||A - B_Q (B_Q* A)||
(_outside).  The witness splits M and the quotient of N = S_theta + M by
one call of the splitter, and the check builds N by one split
(SubspaceData.extended).  Every residual of the witness is exact; the
check is the one place N is gated for invariance, through quotient_data
and cross_commutator_criterion, on the window of margins.  The innerness
and the invariance gate both live in subspaces.

S_theta is split once per division: the last successful witness leaves its
S_theta split in a one-entry memo (_last_split), and the check reuses it
exactly when its m_basis is that witness's array, its theta that witness's
symbol, and grid and tol equal the witness's.  The entry holds m_basis and
theta by weak reference only; any other call splits S_theta itself, and
submodule_projection stays uncached.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .criteria import (
    CriterionReport,
    beurling_criterion,
    cross_commutator_criterion,
    quotient_data,
)
from .grids import TruncationGrid, _as_data
from .operators import eval_margins, innerness_check, spectral_norm
from .subspaces import (
    _check_finite,
    _innerness_gate,
    _outside,
    _toeplitz_split,
    _with_complement,
    submodule_projection,
)
from .symbols import AnalyticSymbol

__all__ = [
    "FactorizationError",
    "FactorizationWitness",
    "divide_inner",
    "invariant_subspace_from_factorization",
    "beurling_submodule_check",
]


COEFF_CUTOFF = 1e-12

# (weakref to m_basis, weakref to theta, grid, tol, S_theta split) of the
# last successful witness, or None; beurling_submodule_check reads it
_last_split = None


def _remember_split(m_basis, theta, grid, tol, split) -> None:
    """Make (m_basis, theta, grid, tol) the one memo entry for split; the
    entry is dropped with its split when m_basis is collected."""
    global _last_split

    def forget(ref):
        global _last_split
        if _last_split is not None and _last_split[0] is ref:
            _last_split = None

    _last_split = (weakref.ref(m_basis, forget), weakref.ref(theta), grid, tol, split)


def _witness_split(m_basis, theta, grid, tol):
    """The memo's S_theta split if the last witness returned this very
    m_basis for this very theta on an equal grid and tol, else None."""
    if _last_split is None:
        return None
    basis_ref, theta_ref, last_grid, last_tol, split = _last_split
    if basis_ref() is m_basis and theta_ref() is theta and last_grid == grid and last_tol == tol:
        return split
    return None


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


def _numerator_product(theta: AnalyticSymbol, phi: AnalyticSymbol):
    """(keys, blocks) of N_theta q_phi: each pair product N_theta[a] (q_phi[b] I)
    summed at key a + b in the pair order (a outer, b inner, each in its
    dict's order), with every all-zero sum dropped.  keys is (K, nvars) in
    mixed-radix order, and blocks (K, rows, cols) is float64 or complex128
    as grids._as_data picks."""
    n, rows, cols = theta.nvars, theta.rows, theta.cols
    num_keys = np.array(list(theta.numerator), dtype=np.intp).reshape(-1, n)
    den_keys = np.array(list(phi.denominator), dtype=np.intp).reshape(-1, n)
    # the coefficients are complex128 as the symbols hold them
    num = np.array(list(theta.numerator.values())).reshape(-1, rows, cols)
    den = np.array(list(phi.denominator.values()))[:, None, None] * np.eye(cols)
    prods = np.matmul(num[:, None], den[None]).reshape(-1, rows, cols)
    # every key a + b lies in the box of spans deg(N_theta) + deg(q_phi) + 1
    span = num_keys.max(axis=0, initial=0) + den_keys.max(axis=0) + 1
    codes = (num_keys[:, None] + den_keys[None]).reshape(-1, n) @ (np.cumprod(span) // span)
    # a -0 start leaves the first product at each key as it is, a -0 included
    sums = np.full((int(np.prod(span)), rows, cols), complex(-0.0, -0.0))
    np.add.at(sums, codes, prods)
    kept = np.flatnonzero(sums.any(axis=(1, 2)))
    keys = np.stack(np.unravel_index(kept, tuple(span), order="F"), axis=-1)
    return keys, _as_data(sums[kept])


def _product_operator(phi: AnalyticSymbol, box: TruncationGrid, inside: np.ndarray) -> np.ndarray:
    """The matrix of P -> N_phi P from the polynomials on the ranks inside
    to the whole box, whose caps hold every product: block (d + j, j) is
    N_phi[d], laid out column-major, as LAPACK reads it.  It is float64
    when every coefficient of N_phi is real (grids._as_data)."""
    rows, cols = phi.rows, phi.cols
    keys = np.array(list(phi.numerator), dtype=np.intp).reshape(-1, phi.nvars)
    blocks = _as_data(list(phi.numerator.values()))
    dst = box.sum_ranks(box.ranks(keys)[:, None], inside)
    out = np.zeros((len(inside), cols, len(box.exponents), rows), dtype=blocks.dtype)
    out[np.arange(len(inside)), :, dst, :] = blocks.transpose(0, 2, 1)[:, None]
    return out.reshape(len(inside) * cols, -1).T


def _divide(theta: AnalyticSymbol, phi: AnalyticSymbol, tol: float):
    """(psi, residuals) of the division theta = phi psi in coefficient space."""
    if theta.nvars != phi.nvars:
        raise ValueError("theta and phi must share the variable count")
    if theta.rows != phi.rows:
        raise ValueError("theta and phi must map into the same channel space")
    _innerness_gate(phi, tol)
    n, rows, cols = theta.nvars, phi.cols, theta.cols
    # the right-hand side N_theta q_phi, laid out on the degree box
    keys, target = _numerator_product(theta, phi)
    degrees = keys.max(axis=0, initial=0)
    box = TruncationGrid(tuple((degrees + phi.degrees).tolist()))
    # P keeps the ranks inside deg(N_theta q_phi), whose products by N_phi stay in the box
    inside = np.flatnonzero(np.all(box.exponents <= degrees, axis=1))
    lhs = _product_operator(phi, box, inside)
    rhs = np.zeros((len(box.exponents), theta.rows, cols), dtype=target.dtype)
    rhs[box.ranks(keys)] = target
    rhs = rhs.reshape(-1, cols)
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
    by b_a(z1) gives z2 (1 - conj(a) z1) / (1 - conj(a) z1).  Both sides of
    the solve are scattered from the coefficient arrays of theta and phi,
    float64 when those are real, and psi is the one symbol built.  A
    coefficient block of P with no entry above COEFF_CUTOFF is dropped.
    Three gates run in turn: the innerness gate of phi, the solve residual
    ||N_phi P - N_theta q_phi|| relative to ||N_theta q_phi|| (else "not
    divisible"), and the innerness_check deviation of psi (else
    "non-isometric quotient").  No grid enters, so the result is the same
    for every truncation.
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
    alone.  With B_theta and B_phi their quotient bases, Q_phi lies in
    Q_theta, so M = Q_theta minus Q_phi is the range of the q_theta columns
    B_theta - B_phi (B_phi* B_theta).  One split of them on the frame
    B_theta at floor 1 (_with_complement) gives m_basis and the quotient
    basis B_N of N; its cut reads the squared sines I - W* W,
    W = B_phi* B_theta.  N is not gated here, and margins is not read:
    beurling_submodule_check gates N on its window of margins.
    The quotient of theta splits as M plus the quotient of phi, so
    P_phi = P_N: the quotient match ||P_phi - P_N||, a difference of two
    orthogonal projections, is that of the quotients' projections,
    max(||_outside(B_N, B_phi)||, ||_outside(B_phi, B_N)||).
    A witness that returns leaves its S_theta split in the module's one
    memo entry, for beurling_submodule_check on its own m_basis; one that
    raises leaves the entry as it was.
    """
    psi, residuals = _divide(theta, phi, tol)
    s_theta = submodule_projection(theta, grid, inner_tol=tol)
    b_theta, b_phi = s_theta.complement, _toeplitz_split(phi, grid).complement
    m_basis, b_n, _ = _with_complement(_outside(b_phi, b_theta), 1.0, b_theta)
    residuals["quotient_match"] = max(spectral_norm(_outside(b_n, b_phi)),
                                      spectral_norm(_outside(b_phi, b_n)))
    _remember_split(m_basis, theta, grid, tol, s_theta)
    return FactorizationWitness(
        theta=theta, phi=phi, psi=psi, grid=s_theta.grid,
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

    M must lie in the quotient of theta: the overlap ||P_S,theta M|| is
    ||M - B_theta (B_theta* M)|| for the quotient basis B_theta (_outside).
    N is split from the theta split alone (SubspaceData.extended along
    m_basis).  Columns that add fewer dimensions than their number are
    degenerate against S_theta, and a column with a NaN or infinite entry
    is refused by name before any norm is taken.  A real m_basis stays
    real (grids._as_data), as the witness of a real division gives it.
    S_theta is the last witness's split, with no second innerness gate or
    split, when m_basis is that witness's very array, theta its very
    symbol, and grid and tol equal its own; otherwise submodule_projection
    gates and splits it here.
    """
    s_theta = _witness_split(m_basis, theta, grid, tol)
    if s_theta is None:
        s_theta = submodule_projection(theta, grid, inner_tol=tol)
    m_basis = _as_data(m_basis)
    if m_basis.ndim != 2 or m_basis.shape[0] != s_theta.grid.dim:
        raise ValueError(f"m_basis must be ({s_theta.grid.dim}, r)")
    _check_finite(m_basis)
    if margins is None:
        margins = eval_margins(theta)

    overlap = spectral_norm(_outside(s_theta.complement, m_basis))
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

