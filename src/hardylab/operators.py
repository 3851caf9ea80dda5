"""Dense operators on truncated Hardy grids: shifts, Toeplitz symbols, norms.

Multiplication by z_t on the truncated basis is the shift that drops any
product leaving the caps, so M_t* M_t = I - E_t where E_t projects onto the
top slice {k_t = cap_t}.  That single artifact is why operator identities
are always measured through a two-sided core window: inside the window the
truncated operators compose exactly like their infinite-dimensional
counterparts on polynomial symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TruncationGrid
from .symbols import AnalyticSymbol

__all__ = [
    "shift_matrix",
    "shift_matrices",
    "toeplitz_matrix",
    "spectral_norm",
    "windowed_norm",
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
    m = grid.channels
    out = np.zeros((grid.dim, grid.dim), dtype=complex)
    for r, k in enumerate(grid.multi_indices):
        up = grid.bumped(k, t)
        if up is None:
            continue
        ru = grid.rank[up]
        for s in range(m):
            out[ru * m + s, r * m + s] = 1.0
    return out


def shift_matrices(grid: TruncationGrid) -> list[np.ndarray]:
    return [shift_matrix(grid, t) for t in range(grid.nvars)]


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
    rank = cod.rank
    p, q = symbol.rows, symbol.cols
    out = np.zeros((cod.dim, dom.dim), dtype=complex)
    nz = [r for r in range(ranks) if np.any(table[r])]
    for rj, j in enumerate(dom.multi_indices):
        for rd in nz:
            diff = cod.multi_indices[rd]
            k = tuple(j[i] + diff[i] for i in range(symbol.nvars))
            rk = rank.get(k)
            if rk is None:
                continue
            out[rk * p:(rk + 1) * p, rj * q:(rj + 1) * q] = table[rd]
    return out


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
