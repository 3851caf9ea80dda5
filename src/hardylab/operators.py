"""Dense operators on truncated Hardy grids: shifts, Toeplitz symbols, norms.

Multiplication by z_t on the truncated basis is the shift that drops any
product leaving the caps, so M_t* M_t = I - E_t where E_t projects onto the
top slice {k_t = cap_t}.  That single artifact is why operator identities
are always measured through a two-sided core window: inside the window the
truncated operators compose exactly like their infinite-dimensional
counterparts on polynomial symbols.

A truncated shift power is a 0/1 partial permutation, held as the grid's
index map (TruncationGrid.shift_map): (M^k X)[dst] = X[src].  shift_matrix
and toeplitz_matrix are laid out from those maps, and the quotient battery
applies them to bases directly, without forming a dense shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TruncationGrid
from .symbols import AnalyticSymbol

__all__ = [
    "shift_matrix",
    "shift_matrices",
    "unit_index",
    "toeplitz_matrix",
    "spectral_norm",
    "windowed_norm",
    "norm_factor",
    "factored_norm",
    "eval_margins",
    "innerness_check",
    "InnernessReport",
    "InnernessError",
]


class InnernessError(ValueError):
    """A symbol required to be inner failed the torus gate."""


def shift_matrix(grid: TruncationGrid, t: int) -> np.ndarray:
    """Matrix of multiplication by z_t (all channels), overflow dropped."""
    if not 0 <= t < grid.nvars:
        raise ValueError(f"variable {t} out of range for n={grid.nvars}")
    src, dst = grid.shift_map(unit_index(grid.nvars, t))
    out = np.zeros((grid.dim, grid.dim), dtype=complex)
    out[dst, src] = 1.0
    return out


def shift_matrices(grid: TruncationGrid) -> list[np.ndarray]:
    return [shift_matrix(grid, t) for t in range(grid.nvars)]


def unit_index(nvars: int, t: int) -> tuple[int, ...]:
    """The multi-index e_t."""
    return tuple(int(i == t) for i in range(nvars))


def toeplitz_matrix(symbol: AnalyticSymbol, grid: TruncationGrid) -> np.ndarray:
    """Matrix of f -> truncation(symbol * f) in the monomial bases.

    The domain grid carries symbol.cols channels and the codomain grid
    symbol.rows channels, both over grid.caps; grid.channels itself is
    ignored.  Entry blocks are the Taylor coefficients: block (k, j) equals
    coeff(k - j) whenever k - j is componentwise nonnegative.  Columns whose
    domain degree stays margin-deep inside the caps are exact.
    """
    if len(grid.caps) != symbol.nvars:
        raise ValueError("variable count mismatch between symbol and grid")
    dom = grid.with_channels(symbol.cols)
    cod = grid.with_channels(symbol.rows)
    table = symbol.taylor_table(cod)
    ranks = len(cod.multi_indices)
    p, q = symbol.rows, symbol.cols
    scalar = grid.with_channels(1)
    out = np.zeros((ranks, p, ranks, q), dtype=complex)
    # block (k, j) = coeff(d) exactly where z^d maps z^j to z^k = z^(j+d)
    for rd in np.flatnonzero(table.reshape(ranks, -1).any(axis=1)):
        src, dst = scalar.shift_map(cod.multi_indices[rd])
        out[dst, :, src, :] = table[rd]
    return out.reshape(cod.dim, dom.dim)


def spectral_norm(a: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def windowed_norm(a: np.ndarray, window: np.ndarray, col_window: np.ndarray | None = None) -> float:
    """Spectral norm of the two-sided window compression of a square matrix."""
    cols = window if col_window is None else col_window
    if len(window) == 0 or len(cols) == 0:
        return 0.0
    return spectral_norm(a[np.ix_(window, cols)])


def norm_factor(a: np.ndarray) -> np.ndarray:
    """A matrix R with a = V R for some column-orthonormal V.

    Then ||a X b*|| = ||R_a X R_b*|| for every X and every b factored the
    same way, so a windowed norm ||W B X B* W|| is the spectral norm of the
    small matrix R X R* with R = norm_factor(B[window]).  R is the thin-QR
    factor when a has more rows than columns, and a itself otherwise.
    """
    if a.shape[0] > a.shape[1]:
        return np.linalg.qr(a, mode="r")
    return a


def factored_norm(left: np.ndarray, x: np.ndarray, right: np.ndarray | None = None) -> float:
    """||left X right*||, a windowed norm taken on norm_factor outputs (right defaults to left)."""
    right = left if right is None else right
    return spectral_norm(left @ x @ right.conj().T)


def eval_margins(symbol: AnalyticSymbol) -> tuple[int, ...]:
    """Default core-window margins for a symbol's residual checks.

    Per-variable numerator degree, floored at 1: the floor keeps the top
    slice of every variable out of the window, which is where the truncated
    shifts stop being isometric.
    """
    return tuple(max(int(d), 1) for d in symbol.degrees)


@dataclass(frozen=True)
class InnernessReport:
    torus_deviation: float
    tolerance: float
    torus_samples: int

    @property
    def verdict(self) -> bool:
        return self.torus_deviation <= self.tolerance


def _torus_points(nvars: int, samples_per_axis: int) -> np.ndarray:
    """Uniform torus grid offset by half a step.

    The offset keeps algebraically degenerate points such as (1, ..., 1)
    off the sample set, where rational symbols that are inner a.e. may have
    0/0 form on the boundary.
    """
    angles = 2.0 * np.pi * (np.arange(samples_per_axis) + 0.5) / samples_per_axis
    axis = np.exp(1j * angles)
    grids = np.meshgrid(*([axis] * nvars), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def innerness_check(
    symbol: AnalyticSymbol,
    grid: TruncationGrid,
    torus_samples: int = 64,
    tol: float = 1e-8,
) -> InnernessReport:
    """Certify innerness by the exact torus test.

    torus_deviation is max over the sample grid of ||Theta(z)* Theta(z) - I||
    using the closed rational form.  The truncated isometry defect
    ||W (M_Theta* M_Theta - I) W|| is no substitute: for symbols with slowly
    decaying Taylor tails it converges too slowly to gate on.  The grid only
    fixes the variable count the symbol must match.
    """
    if torus_samples < 1:
        raise ValueError("torus_samples must be >= 1")
    if len(grid.caps) != symbol.nvars:
        raise ValueError("variable count mismatch between symbol and grid")
    pts = _torus_points(symbol.nvars, torus_samples)
    vals = symbol.evaluate(pts)
    gram = np.einsum("pij,pik->pjk", vals.conj(), vals)
    gram -= np.eye(symbol.cols)[None]
    # gram is Hermitian per point, so its spectral norm is the extreme eigenvalue
    dev = float(np.abs(np.linalg.eigvalsh(gram)).max()) if gram.size else 0.0
    return InnernessReport(
        torus_deviation=dev,
        tolerance=float(tol),
        torus_samples=int(torus_samples),
    )
