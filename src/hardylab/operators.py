"""Dense operators on truncated Hardy grids: shifts, Toeplitz symbols, norms.

Multiplication by z_t on the truncated basis is the shift that drops any
product leaving the caps, so M_t* M_t = I - E_t where E_t projects onto the
top slice {k_t = cap_t}.  The quotient battery carries that artifact as an
explicit term, so its identities hold exactly on the whole grid.  The
invariance gate and the division checks instead read a two-sided core
window, where the truncated operators compose exactly like their
infinite-dimensional counterparts on polynomial symbols.

A truncated shift power is a 0/1 partial permutation, held as the grid's
index map (TruncationGrid.shift_map): (M^k X)[dst] = X[src].  shift_matrix
and toeplitz_matrix are laid out from those maps, and the quotient battery
applies them to bases directly, without forming a dense shift.

Innerness is not read from the truncated operators either: innerness_check
certifies Theta = N/q from the Taylor coefficients of N and q, through the
finite identity N* N = |q|^2 I on the torus, so the gate is exact and
samples nothing.
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
    "hermitian_norm",
    "windowed_norm",
    "norm_factor",
    "eval_margins",
    "innerness_check",
    "InnernessReport",
    "InnernessError",
]


class InnernessError(ValueError):
    """A symbol required to be inner failed the innerness gate."""


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
    """Largest singular value of a 2-D array, 0.0 when it is empty.

    The same LAPACK call as np.linalg.norm(a, 2), bit for bit, without its
    axis handling.
    """
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|, with no SVD."""
    if a.size == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(a)).max())


def windowed_norm(a: np.ndarray, window: np.ndarray, col_window: np.ndarray | None = None) -> float:
    """Spectral norm of the two-sided window compression of a square matrix."""
    cols = window if col_window is None else col_window
    if len(window) == 0 or len(cols) == 0:
        return 0.0
    return spectral_norm(a[np.ix_(window, cols)])


def norm_factor(a: np.ndarray) -> np.ndarray:
    """A matrix R with a = V R for some column-orthonormal V.

    Then ||a X b*|| = ||R_a X R_b*|| for every X and every b factored the
    same way: a product of thin blocks such as U_i U_j* is measured on
    their factors, and a windowed norm ||W B X B* W|| is the spectral norm
    of the small matrix R X R* with R = norm_factor(B[window]).  R is the
    thin-QR factor when a has more rows than columns, and a itself
    otherwise.
    """
    if a.shape[0] > a.shape[1]:
        return np.linalg.qr(a, mode="r")
    return a


def eval_margins(symbol: AnalyticSymbol) -> tuple[int, ...]:
    """Default core-window margins for a symbol's invariance gate and division checks.

    Per-variable numerator degree, floored at 1: the floor keeps the top
    slice of every variable out of the window, which is where the truncated
    shifts stop being isometric.
    """
    return tuple(max(int(d), 1) for d in symbol.degrees)


@dataclass(frozen=True)
class InnernessReport:
    deviation: float
    tolerance: float

    @property
    def verdict(self) -> bool:
        return self.deviation <= self.tolerance


def _lag_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b) of coefficients as its lag keys[b] - keys[a] and values[a]* values[b]."""
    lags = (keys[None, :, :] - keys[:, None, :]).reshape(-1, keys.shape[1])
    prods = np.einsum("aij,bik->abjk", values.conj(), values)
    return lags, prods.reshape(-1, values.shape[2], values.shape[2])


def innerness_check(
    symbol: AnalyticSymbol,
    grid: TruncationGrid,
    tol: float = 1e-8,
) -> InnernessReport:
    """Certify innerness of Theta = N/q from its coefficients.

    On the torus N(z)* N(z) - |q(z)|^2 I = sum_m z^m D_m, a trigonometric
    polynomial with the finitely many coefficients

        D_m = sum_k N_k* N_{k+m} - (sum_k conj(q_k) q_{k+m}) I,

    so Theta is inner exactly when every D_m vanishes.  deviation is
    sum_m ||D_m|| / sum_k |q_k|^2, which bounds sup over the torus of
    ||N* N - |q|^2 I|| / ||q||_2^2; nothing is sampled, so it cannot miss a
    defect between points, and no boundary zero of q needs avoiding.  The
    truncated isometry defect ||W (M_Theta* M_Theta - I) W|| is no
    substitute: for symbols with slowly decaying Taylor tails it converges
    too slowly to gate on.  The grid only fixes the variable count the
    symbol must match.
    """
    if len(grid.caps) != symbol.nvars:
        raise ValueError("variable count mismatch between symbol and grid")
    n, c = symbol.nvars, symbol.cols
    num_keys = np.array(list(symbol.numerator), dtype=int).reshape(-1, n)
    num_vals = np.array(list(symbol.numerator.values()), dtype=complex).reshape(-1, symbol.rows, c)
    den_keys = np.array(list(symbol.denominator), dtype=int).reshape(-1, n)
    den_vals = np.array(list(symbol.denominator.values()), dtype=complex).reshape(-1, 1, 1)
    num_lags, num_prods = _lag_sums(num_keys, num_vals)
    den_lags, den_prods = _lag_sums(den_keys, den_vals)
    lags, which = np.unique(np.concatenate([num_lags, den_lags]), axis=0, return_inverse=True)
    d = np.zeros((len(lags), c, c), dtype=complex)
    np.add.at(d, which.ravel(), np.concatenate([num_prods, -den_prods * np.eye(c)]))
    scale = float(np.sum(np.abs(den_vals) ** 2))
    return InnernessReport(deviation=float(np.linalg.norm(d, 2, axis=(1, 2)).sum()) / scale,
                           tolerance=float(tol))
