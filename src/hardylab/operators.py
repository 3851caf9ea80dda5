"""Dense operators on truncated Hardy grids: shifts, Toeplitz symbols, norms.

Multiplication by z_t on the truncated basis is the shift that drops any
product leaving the caps, so M_t* M_t = I - E_t where E_t projects onto the
top slice {k_t = cap_t}.  The quotient battery carries that artifact as an
explicit term, so its identities hold exactly on the whole grid.  The
invariance gate instead reads a two-sided core window, where the truncated
operators compose exactly like their infinite-dimensional counterparts on
polynomial symbols.

A truncated shift is a 0/1 partial permutation, which TruncationGrid.shift
applies to rows.  shift_matrix is that shift applied to the real
identity, and shift_matrices is one per variable; the package forms them
only for the free box that compressions are lifted over (criteria), and
applies every other shift to its bases through TruncationGrid.shift,
which keeps their dtype.  toeplitz_matrix places every Taylor block in one
scatter, each at the rank TruncationGrid.sum_ranks gives the sum of its
coefficient's and its source's multi-indices, in the dtype of the Taylor
table, so a symbol with real coefficients has a real Toeplitz matrix.

Every spectral norm (spectral_norm) is the square root of the largest
eigenvalue of a Gram of the short side, which keeps full relative accuracy
because a Gram is formed only of a matrix that already exists, never of two
factors whose product cancels.  Such a product A B* is measured with one
side factored: ||A B*|| = ||R_B A*|| for the thin-QR factor R_B of B
(norm_factor), so the cancellation happens in a formed matrix.  Every
least eigenvalue of a Hermitian block, or of each in a stack, is read by
_lambda_min.

Innerness is not read from the truncated operators either: innerness_check
returns the deviation of Theta = N/q from the finite identity N* N = |q|^2 I
on the torus, read from the Taylor coefficients of N and q, so every gate
built on it is exact and samples nothing.  Each caller compares that float
with the tolerance it holds.
"""

from __future__ import annotations

import numpy as np

from .grids import TruncationGrid
from .symbols import AnalyticSymbol

__all__ = [
    "shift_matrix",
    "toeplitz_matrix",
    "spectral_norm",
    "eval_margins",
    "innerness_check",
    "InnernessError",
]


class InnernessError(ValueError):
    """A symbol required to be inner failed the innerness gate."""


def shift_matrix(grid: TruncationGrid, t: int) -> np.ndarray:
    """Real 0/1 matrix of multiplication by z_t (all channels), overflow dropped."""
    return grid.shift(np.eye(grid.dim), t, adjoint=False)


def shift_matrices(grid: TruncationGrid) -> list[np.ndarray]:
    """shift_matrix of every variable, in variable order."""
    return [shift_matrix(grid, t) for t in range(grid.nvars)]


def toeplitz_matrix(symbol: AnalyticSymbol, grid: TruncationGrid) -> np.ndarray:
    """Matrix of f -> truncation(symbol * f) in the monomial bases.

    The domain grid carries symbol.cols channels and the codomain grid
    symbol.rows channels, both over grid.caps; grid.channels itself is
    ignored.  Entry blocks are the Taylor coefficients: block (k, j) equals
    coeff(k - j) whenever k - j is componentwise nonnegative.  Columns whose
    domain degree stays margin-deep inside the caps are exact.

    The blocks are laid out by one scatter over the pairs (d, j) of a
    nonzero coefficient d and a source j with j + d inside the caps, whose
    target rank TruncationGrid.sum_ranks reads off the sum of the codes of
    d and j, so the work grows with the number of nonzero coefficients and
    no multi-index is gathered per pair.  The matrix takes the dtype of
    symbol.taylor_table: float64 for a symbol with real coefficients.
    """
    if len(grid.caps) != symbol.nvars:
        raise ValueError("variable count mismatch between symbol and grid")
    dom = grid.with_channels(symbol.cols)
    cod = grid.with_channels(symbol.rows)
    table = symbol.taylor_table(cod)
    exps = cod.exponents
    size = len(exps)
    coeff = np.flatnonzero(table.reshape(size, -1).any(axis=1))
    room = np.subtract(cod.caps, exps)
    fits = np.ones((coeff.size, size), dtype=bool)
    for t in range(cod.nvars):
        fits &= exps[coeff, t][:, None] <= room[:, t]
    which, src = np.nonzero(fits)
    d = coeff[which]
    dst = cod.sum_ranks(d, src)
    out = np.zeros((size, symbol.rows, size, symbol.cols), dtype=table.dtype)
    out[dst, :, src, :] = table[d]
    return out.reshape(cod.dim, dom.dim)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a 2-D array, 0.0 when it is empty or zero.

    sigma_max(a)^2 is the largest eigenvalue of the Gram of a's short side
    (a* a or a a*), and that eigenvalue keeps full relative accuracy: the
    rounding of the Gram is at most a small multiple of eps ||a||^2.  a is
    first scaled by the exact power of two 2^-e that brings its largest
    real or imaginary part into [1/2, 1), so the Gram neither overflows nor
    underflows; a product by a power of two is exact.  That largest part is
    read by one np.abs over the float view of a's entries in memory order,
    real and imaginary parts interleaved.  A non-finite entry raises
    np.linalg.LinAlgError.
    """
    if a.size == 0:
        return 0.0
    flat = a.ravel(order="K")
    top = float(np.abs(flat.view(flat.real.dtype) if np.iscomplexobj(flat) else flat).max())
    if not np.isfinite(top):
        raise np.linalg.LinAlgError("spectral_norm of an array with a non-finite entry")
    if top == 0.0:
        return 0.0
    # a subnormal top keeps 2^-e finite by stopping at 2^1021
    e = max(int(np.frexp(top)[1]), -1021)
    x = np.ldexp(1.0, -e) * a
    gram = x.conj().T @ x if x.shape[0] >= x.shape[1] else x @ x.conj().T
    return float(np.ldexp(np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)), e))


def _lambda_min(a: np.ndarray):
    """Least eigenvalue of a Hermitian matrix, 0.0 when it is empty; of a
    stack of them (leading axes), the array of each one's, in one call."""
    low = np.linalg.eigvalsh(a)[..., 0] if a.size else np.zeros(a.shape[:-2])
    return float(low) if a.ndim == 2 else low


def hermitian_norm(a: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix: its largest |eigenvalue|, with
    no SVD, and 0.0 with no eigensolve when it is empty or zero."""
    if not a.any():
        return 0.0
    return float(np.abs(np.linalg.eigvalsh(a)).max())


# not exported: hlbench/tracing.py traces it, and nothing in the package reads it
def windowed_norm(a: np.ndarray, window: np.ndarray, col_window: np.ndarray | None = None) -> float:
    """Spectral norm of the two-sided window compression of a square matrix."""
    cols = window if col_window is None else col_window
    if len(window) == 0 or len(cols) == 0:
        return 0.0
    return spectral_norm(a[np.ix_(window, cols)])


def norm_factor(a: np.ndarray) -> np.ndarray:
    """A matrix R with a = V R for some column-orthonormal V.

    It serves one side of a two-factor product: ||X a*|| = ||X R*|| =
    ||R X*|| for every X with as many columns as a.  A product of thin
    blocks such as U_i U_j*, whose entries cancel, is measured as
    ||R_j U_i*|| with only U_j factored, and a windowed norm ||W B Y* W||
    as ||R Y[window]*|| with R = norm_factor(B[window]).  R is the
    thin-QR factor when a has more rows than columns, and a itself
    otherwise.
    """
    if a.shape[0] > a.shape[1]:
        return np.linalg.qr(a, mode="r")
    return a


def eval_margins(symbol: AnalyticSymbol) -> tuple[int, ...]:
    """Default core-window margins for a symbol's invariance gate.

    Per-variable numerator degree, floored at 1: the floor keeps the top
    slice of every variable out of the window, which is where the truncated
    shifts stop being isometric.
    """
    return tuple(max(int(d), 1) for d in symbol.degrees)


def _lag_sums(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (a, b) of coefficients as its lag keys[b] - keys[a] and values[a]* values[b]."""
    lags = (keys[None, :, :] - keys[:, None, :]).reshape(-1, keys.shape[1])
    prods = np.einsum("aij,bik->abjk", values.conj(), values)
    return lags, prods.reshape(-1, values.shape[2], values.shape[2])


def innerness_check(symbol: AnalyticSymbol) -> float:
    """The innerness deviation of Theta = N/q, read from its coefficients.

    On the torus N(z)* N(z) - |q(z)|^2 I = sum_m z^m D_m, a trigonometric
    polynomial with the finitely many coefficients

        D_m = sum_k N_k* N_{k+m} - (sum_k conj(q_k) q_{k+m}) I,

    so Theta is inner exactly when every D_m vanishes.  The deviation
    returned is sum_m ||D_m|| / sum_k |q_k|^2, which each caller compares
    with its own tolerance; it bounds sup over the torus of
    ||N* N - |q|^2 I|| / ||q||_2^2; nothing is sampled, so it cannot miss a
    defect between points, and no boundary zero of q needs avoiding.  The
    truncated isometry defect ||W (M_Theta* M_Theta - I) W|| is no
    substitute: for symbols with slowly decaying Taylor tails it converges
    too slowly to gate on.  No grid enters.  The lags m are grouped by one
    1-D np.unique over int64 codes (ValueError if they would overflow): m
    shifted by its reach r >= |m| in each variable, read in mixed radix
    2r + 1 with m_1 most significant, so codes sort as the lags do.
    """
    n, c = symbol.nvars, symbol.cols
    num_keys = np.array(list(symbol.numerator), dtype=int).reshape(-1, n)
    num_vals = np.array(list(symbol.numerator.values()), dtype=complex).reshape(-1, symbol.rows, c)
    den_keys = np.array(list(symbol.denominator), dtype=int).reshape(-1, n)
    den_vals = np.array(list(symbol.denominator.values()), dtype=complex).reshape(-1, 1, 1)
    num_lags, num_prods = _lag_sums(num_keys, num_vals)
    den_lags, den_prods = _lag_sums(den_keys, den_vals)
    lags = np.concatenate([num_lags, den_lags])
    reach = lags.max(axis=0)
    span = 2 * reach + 1
    if np.prod(span, dtype=float) >= 2.0**62:
        raise ValueError(f"lag codes over the spans {tuple(span.tolist())} overflow int64")
    codes, which = np.unique((lags + reach) @ (np.cumprod(span[::-1])[::-1] // span),
                             return_inverse=True)
    d = np.zeros((len(codes), c, c), dtype=complex)
    np.add.at(d, which, np.concatenate([num_prods, -den_prods * np.eye(c)]))
    scale = float(np.sum(np.abs(den_vals) ** 2))
    return float(np.linalg.svd(d, compute_uv=False)[:, 0].sum()) / scale
