"""Submodules and quotient modules as orthonormal column spans.

A subspace is held as a column-orthonormal basis plus the basis of its
complement.  Both come out of one unitary, so P_S + P_Q = I holds to
rounding, not merely to rank tolerance.  Columns that are distinct unit
vectors up to a unimodular phase (monomial submodules, the origin
complement) split by index into coordinate bases with no factorization.
Any other column set takes one complete Householder QR, whose triangular
factor R has the singular values of the columns (Golub & Van Loan, Matrix
Computations, 5.2).  Full rank is certified from R alone: by Weyl's
inequality its diagonal and the Frobenius norm of its strict upper triangle
bound every singular value, and when those bounds clear the RANK_TOL cut
twice over the split is read off Q with no SVD.  Only when they cannot
decide (more columns than dim, a zero or nearly dependent column, an
ill-conditioned basis) do the singular values of R set the rank, the same
cut as an SVD of the columns; only a cut that drops columns rotates the
leading block of Q by the left singular vectors of that small factor.
SubspaceData.split_complement enlarges a subspace along further columns in
the coordinates of its complement, without splitting the grid again.
Operators are read against one basis B at a time: SubspaceData.shift_blocks
gives B* A B and the part (I - B B*) A B of A B outside the span, for
A = M^k or M^k*, through the grid's index map, and window_factor turns a
windowed norm into the norm of a matrix no larger than the basis rank.
The quotient battery needs these for the basis of Q only.

Submodules generated by an inner symbol take the columns of the truncated
multiplication operator over the input window (domain degrees at least
deg_i(numerator) below the caps in each variable); those columns are exact
images.  Only the invariance gate (invariance_defect) reads a window; the
quotient battery downstream measures exact identities on the whole grid.
The symbol is gated first by operators.innerness_check, an exact identity
of its Taylor coefficients rather than a sampled torus test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import TruncationGrid
from .operators import (
    InnernessError,
    innerness_check,
    norm_factor,
    spectral_norm,
    toeplitz_matrix,
    unit_index,
)
from .symbols import AnalyticSymbol
from .textlines import content_lines, fields, numbers

__all__ = [
    "SubspaceData",
    "submodule_projection",
    "subspace_from_columns",
    "subspace_from_rows",
    "origin_complement",
    "parse_basis_text",
    "invariance_defect",
    "InvarianceError",
]

RANK_TOL = 1e-10
# factor by which a certified full-rank split clears the rank cut, far above
# the rounding of the bound and of the SVD it stands in for
CERT_SAFETY = 2.0


class InvarianceError(ValueError):
    """A subspace required to be a submodule failed the invariance gate."""


@dataclass(frozen=True)
class SubspaceData:
    """Orthonormal basis of a subspace of a truncated grid and of its complement.

    The complement as a subspace, shift blocks, window factors and the
    invariance defect are formed on first use and cached.
    """

    grid: TruncationGrid
    basis: np.ndarray          # (dim, r), column-orthonormal
    complement: np.ndarray     # (dim, dim - r), orthonormal basis of the complement
    discarded: int = 0         # columns dropped at the rank tolerance

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def complement_space(self) -> "SubspaceData":
        """The complement, with this subspace as its complement."""
        return SubspaceData(self.grid, self.complement, self.basis)

    @cached_property
    def _cache(self) -> dict:
        return {}

    def shift_blocks(self, k, adjoint: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(B* A B, A B - B B* A B) for A = M^k, or A = M^k* when adjoint.

        B is the basis, so the first block is A in the coordinates of the
        subspace and the second, (I - B B*) A B of shape (dim, rank), is the
        part of A B outside it.  A is applied as the grid's index map:
        (M^k X)[dst] = X[src] and (M^k* X)[src] = X[dst].  Cached per
        (k, adjoint).
        """
        key = ("shift", tuple(int(x) for x in k), bool(adjoint))
        if key not in self._cache:
            src, dst = self.grid.shift_map(key[1])
            if adjoint:
                src, dst = dst, src
            b = self.basis
            moved = np.zeros_like(b)
            moved[dst] = b[src]
            inside = b[dst].conj().T @ b[src]
            self._cache[key] = (inside, moved - b @ inside)
        return self._cache[key]

    def window_factor(self, margins) -> np.ndarray:
        """norm_factor of the basis rows in the window of these margins, cached.

        ||W B X B* W|| = ||R X R*|| for R = window_factor(margins).
        """
        key = ("window", tuple(int(m) for m in margins))
        if key not in self._cache:
            self._cache[key] = norm_factor(self.basis[self.grid.window_indices(key[1])])
        return self._cache[key]

    def split_complement(self, columns: np.ndarray,
                         rank_tol: float = RANK_TOL) -> tuple[np.ndarray, np.ndarray]:
        """Split the complement along columns: (B_c U[:, :r], B_c U[:, r:]).

        U is the left factor of the SVD of the thin block B_c* columns and r
        counts its singular values above rank_tol * max(1, sig[0]).  The
        first block is an orthonormal basis of the part of span(columns)
        outside this subspace, so [B, B_c U[:, :r]] spans their sum, and the
        second is the complement of that sum.
        """
        c = self.complement
        u, sig, _ = np.linalg.svd(c.conj().T @ columns, full_matrices=True)
        r = int(np.sum(sig > rank_tol * max(1.0, sig[0]))) if sig.size else 0
        frame = c @ u
        return frame[:, :r], frame[:, r:]


def _coordinate_mask(columns: np.ndarray):
    """Mask of the rows that hold the columns' one nonzero entries when every
    column is a distinct unit vector up to a unimodular phase, else None."""
    nonzero = columns != 0
    if not np.all(nonzero.sum(axis=0) == 1):
        return None
    rows = nonzero.argmax(axis=0)
    phases = columns[rows, np.arange(columns.shape[1])]
    inside = np.zeros(columns.shape[0], dtype=bool)
    inside[rows] = True
    if np.count_nonzero(inside) != rows.size or np.any(np.abs(np.abs(phases) - 1) > 1e-15):
        return None
    return inside


def _certified_full_rank(r: np.ndarray) -> bool:
    """True when every singular value of the square triangular r lies above
    the rank cut, RANK_TOL times the largest, with CERT_SAFETY to spare.

    Write r = D + N with D its diagonal and N its strict upper triangle.
    Weyl's inequality |sig_i(D + N) - sig_i(D)| <= ||N||_2 <= ||N||_F
    (Golub & Van Loan, Matrix Computations, 8.6) bounds sig_min below by
    min|r_ii| - ||N||_F and sig_max above by max|r_ii| + ||N||_F, in O(k^2)
    work.  False means only that the bound cannot decide.
    """
    d = np.abs(np.diagonal(r))
    off = np.linalg.norm(np.triu(r, 1))
    return bool(d.min() - off > CERT_SAFETY * RANK_TOL * (d.max() + off))


def _with_complement(grid: TruncationGrid, columns: np.ndarray):
    """Split the grid space into span(columns) and its complement.

    Distinct unit columns (the empty set included) split by index: S is
    their coordinates and Q the others, in grid order, exactly 0/1.  Other
    columns take Q, R = qr(columns, "complete").  When there are at most dim
    of them and _certified_full_rank clears R's leading square block, the
    split is (Q[:, :k], Q[:, k:]) with no SVD.  Otherwise the singular
    values of the leading min(dim, k) rows of R, which are those of the
    columns, set the rank: those above RANK_TOL times the largest count.
    When that cut drops a column, the leading block of Q is rotated by the
    left singular vectors of that block of R, so it ends with span(columns).
    """
    inside = _coordinate_mask(columns)
    if inside is not None:
        eye = np.eye(grid.dim, dtype=complex)
        return eye[:, inside], eye[:, ~inside], 0
    q, r = np.linalg.qr(columns, mode="complete")
    k = columns.shape[1]
    if k <= grid.dim and _certified_full_rank(r[:k]):
        return q[:, :k], q[:, k:], 0
    lead = min(columns.shape)
    sig = np.linalg.svd(r[:lead], compute_uv=False)
    rank = int(np.sum(sig > RANK_TOL * sig[0]))
    if rank < k:
        q[:, :lead] = q[:, :lead] @ np.linalg.svd(r[:lead])[0]
    return q[:, :rank], q[:, rank:], k - rank


def subspace_from_columns(
    grid: TruncationGrid,
    columns: np.ndarray,
) -> tuple[SubspaceData, SubspaceData]:
    """Orthonormalize columns at the rank cut RANK_TOL; return (span, complement)."""
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2 or columns.shape[0] != grid.dim:
        raise ValueError(f"columns must be ({grid.dim}, k), got {columns.shape}")
    sb, qb, dropped = _with_complement(grid, columns)
    s = SubspaceData(grid, sb, qb, discarded=dropped)
    return s, s.complement_space


def submodule_projection(
    symbol: AnalyticSymbol,
    grid: TruncationGrid,
    margins: tuple[int, ...] | None = None,
    inner_tol: float = 1e-8,
    require_inner: bool = True,
) -> SubspaceData:
    """S = closure of symbol * H^2 on the grid.

    The generating columns are the images of the monomials whose degree in
    variable i is at most caps[i] - margin_i, margin defaulting to the
    numerator degree; those images stay inside the caps exactly for
    polynomial symbols.  The symbol must pass the innerness gate
    (operators.innerness_check, exact in its coefficients) first unless
    require_inner is False.
    """
    if require_inner:
        rep = innerness_check(symbol, grid, tol=inner_tol)
        if not rep.verdict:
            raise InnernessError(
                f"symbol is not inner at tolerance {inner_tol:g}: coefficient deviation {rep.deviation:g}"
            )
    col_margins = tuple(int(d) for d in symbol.degrees) if margins is None else tuple(margins)
    mt = toeplitz_matrix(symbol, grid)
    dom = grid.with_channels(symbol.cols)
    cod = grid.with_channels(symbol.rows)
    keep = dom.window_indices(col_margins)
    s, _ = subspace_from_columns(cod, mt[:, keep])
    return s


def subspace_from_rows(grid: TruncationGrid, rows: np.ndarray):
    """Subspace spanned by coefficient row-vectors (one vector per row)."""
    rows = np.asarray(rows, dtype=complex)
    return subspace_from_columns(grid, rows.T)


def origin_complement(grid: TruncationGrid) -> SubspaceData:
    """The functions vanishing at the origin: every basis vector but the first."""
    s, _ = subspace_from_columns(grid, np.eye(grid.dim, dtype=complex)[:, 1:])
    return s


def parse_basis_text(text: str, grid: TruncationGrid) -> np.ndarray:
    """Rows of 2*dim floats (re im per basis coefficient, fixed basis order)."""
    vectors = []
    for lineno, line in content_lines(text):
        words = fields(line)
        if len(words) != 2 * grid.dim:
            raise ValueError(
                f"line {lineno}: want {2 * grid.dim} floats (re im per coefficient), got {len(words)}"
            )
        vals = np.array(numbers(words, float, f"line {lineno}: row"), dtype=float)
        vectors.append(vals[0::2] + 1j * vals[1::2])
    if not vectors:
        raise ValueError("no basis rows found")
    return np.stack(vectors, axis=0)


def invariance_defect(s: SubspaceData, margins: tuple[int, ...]) -> tuple[float, tuple]:
    """Windowed shift-invariance defect max_t ||W (P_S M_t P_S - M_t P_S) W||.

    P_S M_t P_S - M_t P_S = -P_Q M_t P_S = -B_Q V_t* with V_t = P_S M_t* B_Q
    (shift_blocks of the complement, adjoint), so each norm is
    ||R_Q V_t[W]*|| on the window factor of B_Q alone.  Returns (worst, per
    variable), cached on s per margins.
    """
    key = ("invariance", tuple(int(m) for m in margins))
    if key not in s._cache:
        q = s.complement_space
        window = s.grid.window_indices(key[1])
        r_q = q.window_factor(key[1])
        per = []
        for t in range(s.grid.nvars):
            v_t = q.shift_blocks(unit_index(s.grid.nvars, t), adjoint=True)[1]
            per.append(spectral_norm(r_q @ v_t[window].conj().T))
        s._cache[key] = (max(per, default=0.0), tuple(per))
    return s._cache[key]
