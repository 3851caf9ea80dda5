"""Dense grid-wide reference operators, rebuilt from the bases of a split
or entry by entry.

The library holds a subspace as orthonormal bases and its compressions as
q x q blocks in Q coordinates, lays Toeplitz matrices out in one scatter,
and tensors the bases of a split with a free box only when they are read;
the dim x dim forms and the eager tensoring below are what tests compare
those against,
and psd_sqrt is the square root a dilation's defect root is checked by.
The last five references are the plain formulas that the grid order, the
innerness certificate, the norm scale, the Gram search and the kernel
identity's sample are built from in whole-array numpy; tests require
bit-identical results from both.  The index helpers
first spell out the flat basis index ranks(k) * channels + s.
"""

import itertools

import numpy as np

from hardylab.grids import TruncationGrid, order_key
from hardylab.kernels import (
    GRAM_BUDGET, GRAM_RADIUS, GRAM_SIZES, GRAM_THRESHOLD, PAIR_RADIUS, SAMPLE_PAIRS,
)
from hardylab.operators import _lag_sums, spectral_norm


def flat(grid, k, s=0):
    """Flat basis index of e_s z^k: its rank times the channel count, plus s."""
    return int(grid.ranks(k)) * grid.channels + s


def unflat(grid, i):
    """(multi-index, channel) of flat basis index i."""
    r, s = divmod(int(i), grid.channels)
    return grid.multi_indices[r], s


def unit(grid, k, s=0):
    """The basis vector e_s z^k of the grid."""
    v = np.zeros(grid.dim, dtype=complex)
    v[flat(grid, k, s)] = 1.0
    return v


def coefficient(symbol, k):
    """Numerator coefficient block of a symbol at k, zero when k is no key."""
    return symbol.numerator.get(tuple(k), np.zeros((symbol.rows, symbol.cols), dtype=complex))


def projection(s):
    """P_S = B B* for the basis B of a SubspaceData."""
    return s.basis @ s.basis.conj().T


def compressions(qd):
    """P_Q M_t P_Q = B_Q C_t B_Q* on the whole grid, one per variable."""
    b = qd.q.basis
    return tuple(b @ c @ b.conj().T for c in qd.compressions)


def contains(s, vectors, tol=1e-10):
    """Whether the columns of vectors (or one vector) lie in the span of s."""
    v = np.atleast_2d(vectors.T).T
    return spectral_norm(v - projection(s) @ v) <= tol


def toeplitz(symbol, grid):
    """M_symbol entry by entry: block (k, j) = coeff(k - j) when k - j >= 0."""
    dom, cod = grid.with_channels(symbol.cols), grid.with_channels(symbol.rows)
    table = symbol.taylor_table(cod)
    p, q = symbol.rows, symbol.cols
    rank = {k: r for r, k in enumerate(cod.multi_indices)}
    out = np.zeros((cod.dim, dom.dim), dtype=complex)
    for rk, k in enumerate(cod.multi_indices):
        for rj, j in enumerate(dom.multi_indices):
            d = tuple(a - b for a, b in zip(k, j))
            if min(d) >= 0:
                out[rk * p:(rk + 1) * p, rj * q:(rj + 1) * q] = table[rank[d]]
    return out


def tensored(b, grid, used):
    """Rows b on the support grid of the variables used (with grid's
    channels) tensored with the identity over the free box, entry by entry:
    one column per (free monomial, column of b), free monomials in grid
    order, each entry at the flat index of k_used + k_free."""
    support = TruncationGrid(tuple(grid.caps[t] for t in used), grid.channels)
    box = [k for k in grid.multi_indices if not any(k[t] for t in used)]
    r = b.shape[1]
    out = np.zeros((grid.dim, len(box) * r), dtype=complex)
    for f, k_free in enumerate(box):
        for i in range(support.dim):
            k_used, s = unflat(support, i)
            k = list(k_free)
            for a, t in enumerate(used):
                k[t] += k_used[a]
            out[flat(grid, tuple(k), s), f * r:(f + 1) * r] = b[i]
    return out


def psd_sqrt(a):
    """Principal square root of a Hermitian PSD matrix, clamping at zero."""
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def multi_indices(caps):
    """The multi-indices of the caps box, sorted by order_key."""
    return tuple(sorted(itertools.product(*(range(c + 1) for c in caps)), key=order_key))


def innerness_deviation(symbol):
    """innerness_check's deviation, its lags grouped by a row-wise
    np.unique and each ||D_m|| read by np.linalg.norm(., 2)."""
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
    return float(np.linalg.norm(d, 2, axis=(1, 2)).sum()) / scale


def two_part_spectral_norm(a):
    """spectral_norm with its scale read from the real and imaginary parts
    apart, one np.abs each."""
    if a.size == 0:
        return 0.0
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    top = max(float(np.abs(p).max()) for p in parts)
    if not np.isfinite(top):
        raise np.linalg.LinAlgError("spectral_norm of an array with a non-finite entry")
    if top == 0.0:
        return 0.0
    e = max(int(np.frexp(top)[1]), -1021)
    x = np.ldexp(1.0, -e) * a
    gram = x.conj().T @ x if x.shape[0] >= x.shape[1] else x @ x.conj().T
    return float(np.ldexp(np.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)), e))


def gram_search_by_candidate(seed):
    """gram_negativity_search one candidate at a time: each candidate's
    size, radii and angles drawn from default_rng([seed, idx]), its Gram
    matrix entry by entry of the factor, its least eigenvalue by eigvalsh,
    and the first strict minimum kept.  Returns (found, min_eigenvalue,
    points, matrix) as the search reports them."""
    best = (np.inf, None, None)
    for idx in range(GRAM_BUDGET):
        rng = np.random.default_rng([int(seed), idx])
        size = int(rng.choice(np.asarray(GRAM_SIZES)))
        rad = GRAM_RADIUS * np.sqrt(rng.uniform(size=(size, 2)))
        ang = rng.uniform(0.0, 2 * np.pi, size=(size, 2))
        pts = rad * np.exp(1j * ang)
        z1, z2 = pts[:, :1], pts[:, 1:]
        w1, w2 = np.conj(pts[:, 0]), np.conj(pts[:, 1])
        g = z1 * (1 - z2 * w2) * w1 + z2 * w2
        g = (g + g.conj().T) / 2
        low = float(np.linalg.eigvalsh(g)[0])
        if low < best[0]:
            best = (low, pts, g)
    low, pts, g = best
    return bool(low < GRAM_THRESHOLD), low, tuple(tuple(row) for row in pts), g


def sequential_pairs(seed):
    """reduced_kernel_suite's SAMPLE_PAIRS pairs (z, w), one pair of
    uniform draws (radii, then angles) at a time, as a list of (z, w)."""
    rng = np.random.default_rng(int(seed))
    pairs = []
    for _ in range(SAMPLE_PAIRS):
        rad = PAIR_RADIUS * np.sqrt(rng.uniform(size=(2, 2)))
        ang = rng.uniform(0.0, 2 * np.pi, size=(2, 2))
        pairs.append(tuple(tuple(point) for point in rad * np.exp(1j * ang)))
    return pairs
