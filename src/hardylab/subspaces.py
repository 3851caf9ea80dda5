"""Submodules and quotient modules as orthonormal column spans.

A subspace is held as a column-orthonormal basis plus its projection.  The
basis always comes out of one full SVD, whose remaining columns are kept as
the complement basis, so a subspace and its complement share the same
unitary and P_S + P_Q = I holds to rounding, not merely to rank tolerance.

Submodules generated by an inner symbol take the columns of the truncated
multiplication operator over the input window (domain degrees at least
deg_i(numerator) below the caps in each variable); those columns are exact
images, and every residual downstream is then measured on a core window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TruncationGrid
from .operators import (
    InnernessError,
    innerness_check,
    shift_matrices,
    spectral_norm,
    toeplitz_matrix,
    windowed_norm,
)
from .symbols import AnalyticSymbol
from .textlines import content_lines, fields, numbers

__all__ = [
    "SubspaceData",
    "orthonormal_columns",
    "submodule_projection",
    "subspace_from_columns",
    "subspace_from_rows",
    "origin_complement",
    "parse_basis_text",
    "invariance_defect",
    "InvarianceError",
]

RANK_TOL = 1e-10


class InvarianceError(ValueError):
    """A subspace required to be a submodule failed the invariance gate."""


@dataclass(frozen=True)
class SubspaceData:
    """Orthonormal basis and projection of a subspace of a truncated grid."""

    grid: TruncationGrid
    basis: np.ndarray          # (dim, r), column-orthonormal
    projection: np.ndarray     # (dim, dim) = basis @ basis*
    complement: np.ndarray     # (dim, dim - r), orthonormal basis of the complement
    discarded: int = 0         # columns dropped at the rank tolerance

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def contains(self, vectors: np.ndarray, tol: float = 1e-10) -> bool:
        v = np.atleast_2d(vectors.T).T
        return spectral_norm(v - self.projection @ v) <= tol


def _with_complement(grid: TruncationGrid, columns: np.ndarray, rank_tol: float):
    """Split the grid space into span(columns) and its complement via one SVD."""
    dim = grid.dim
    if columns.size == 0:
        s_basis = np.zeros((dim, 0), dtype=complex)
        q_basis = np.eye(dim, dtype=complex)
        return s_basis, q_basis, 0
    u, sig, _ = np.linalg.svd(columns, full_matrices=True)
    if sig.size == 0:
        r = 0
    else:
        r = int(np.sum(sig > rank_tol * sig[0]))
    discarded = columns.shape[1] - r
    return u[:, :r], u[:, r:], max(discarded, 0)


def subspace_from_columns(
    grid: TruncationGrid,
    columns: np.ndarray,
    rank_tol: float = RANK_TOL,
) -> tuple[SubspaceData, SubspaceData]:
    """Orthonormalize columns; return (span, complement)."""
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2 or columns.shape[0] != grid.dim:
        raise ValueError(f"columns must be ({grid.dim}, k), got {columns.shape}")
    sb, qb, dropped = _with_complement(grid, columns, rank_tol)
    s = SubspaceData(grid, sb, sb @ sb.conj().T, qb, discarded=dropped)
    q = SubspaceData(grid, qb, qb @ qb.conj().T, sb)
    return s, q


def orthonormal_columns(a: np.ndarray, rank_tol: float = RANK_TOL) -> tuple[np.ndarray, int]:
    """Orthonormal basis of the column space and the discarded-column count."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return a.reshape(a.shape[0], 0), 0
    u, sig, _ = np.linalg.svd(a, full_matrices=False)
    r = int(np.sum(sig > rank_tol * sig[0])) if sig.size else 0
    return u[:, :r], a.shape[1] - r


def submodule_projection(
    symbol: AnalyticSymbol,
    grid: TruncationGrid,
    margins: tuple[int, ...] | None = None,
    inner_tol: float = 1e-8,
    rank_tol: float = RANK_TOL,
    torus_samples: int = 32,
    require_inner: bool = True,
) -> SubspaceData:
    """S = closure of symbol * H^2 on the grid.

    The generating columns are the images of the monomials whose degree in
    variable i is at most caps[i] - margin_i, margin defaulting to the
    numerator degree; those images stay inside the caps exactly for
    polynomial symbols.  The symbol must pass the torus innerness gate
    first unless require_inner is False.
    """
    if require_inner:
        rep = innerness_check(symbol, grid, torus_samples=torus_samples, tol=inner_tol)
        if not rep.verdict:
            raise InnernessError(
                f"symbol is not inner at tolerance {inner_tol:g}: torus deviation {rep.torus_deviation:g}"
            )
    col_margins = tuple(int(d) for d in symbol.degrees) if margins is None else tuple(margins)
    mt = toeplitz_matrix(symbol, grid)
    dom = grid.with_channels(symbol.cols)
    cod = grid.with_channels(symbol.rows)
    keep = dom.window_indices(col_margins)
    s, _ = subspace_from_columns(cod, mt[:, keep], rank_tol)
    return s


def subspace_from_rows(grid: TruncationGrid, rows: np.ndarray, rank_tol: float = RANK_TOL):
    """Subspace spanned by coefficient row-vectors (one vector per row)."""
    rows = np.asarray(rows, dtype=complex)
    return subspace_from_columns(grid, rows.T, rank_tol)


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


def invariance_defect(
    s: SubspaceData,
    margins: tuple[int, ...],
    shifts: list[np.ndarray] | None = None,
) -> tuple[float, list[float]]:
    """Windowed shift-invariance defect max_t ||W (P_S M_t P_S - M_t P_S) W||."""
    grid = s.grid
    mats = shift_matrices(grid) if shifts is None else shifts
    win = grid.window_indices(margins)
    per: list[float] = []
    for m in mats:
        a = s.projection @ m @ s.projection - m @ s.projection
        per.append(windowed_norm(a, win))
    return (max(per) if per else 0.0), per
