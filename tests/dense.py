"""Dense grid-wide reference operators, rebuilt from the basis B_Q of a
split or entry by entry.

The library holds a subspace by the orthonormal basis B_Q of its
complement and its compressions as q x q blocks in Q coordinates, lays
Toeplitz matrices out in one scatter, and tensors B_Q of a split with a
free box only when it is read; the dim x dim forms and the eager
tensoring below are what tests compare those against,
and psd_sqrt is the square root a dilation's defect root is checked by.
The last five references are the plain formulas that the grid order, the
innerness certificate, the norm scale, the Gram search and the kernel
identity's sample are built from in whole-array numpy; tests require
bit-identical results from both.  So do the last two, the division by
symbol algebra (a product symbol, its Taylor table and a Toeplitz matrix)
and the dilation's adjoint powers one rank at a time, which the library
forms as array passes.  The index helpers
first spell out the flat basis index ranks(k) * channels + s.
"""

import itertools

import numpy as np

from hardylab.dilation import DilationData, brehmer_defect
from hardylab.factorization import COEFF_CUTOFF, FactorizationError
from hardylab.grids import TruncationGrid, _flat, order_key
from hardylab.kernels import (
    GRAM_BUDGET, GRAM_RADIUS, GRAM_SIZES, GRAM_THRESHOLD, PAIR_RADIUS, SAMPLE_PAIRS,
)
from hardylab.operators import _lag_sums, innerness_check, spectral_norm, toeplitz_matrix
from hardylab.subspaces import _innerness_gate
from hardylab.symbols import AnalyticSymbol


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
    """P_S = I - B_Q B_Q* for the complement basis B_Q of a SubspaceData."""
    return np.eye(s.grid.dim) - s.complement @ s.complement.conj().T


def span_basis(s):
    """An orthonormal basis of S, the orthogonal complement of B_Q, from a
    complete QR of B_Q."""
    b_q = s.complement
    return np.linalg.qr(b_q, mode="complete")[0][:, b_q.shape[1]:]


def compressions(qd):
    """P_Q M_t P_Q = B_Q C_t B_Q* on the whole grid, one per variable."""
    b = qd.s.complement
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
    apart, one np.abs each, and every scalar step (frexp, ldexp, sqrt)
    taken in numpy."""
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


def divide_by_symbols(theta, phi, tol):
    """(psi, residuals) of divide_inner's solve through symbol algebra: the
    right-hand side N_theta q_phi as the product symbol of N_theta and
    q_phi I and its Taylor table on the degree box, the left-hand side as
    the columns of toeplitz_matrix(N_phi) inside deg(N_theta q_phi), and
    the same three gates in the same order."""
    if theta.nvars != phi.nvars:
        raise ValueError("theta and phi must share the variable count")
    if theta.rows != phi.rows:
        raise ValueError("theta and phi must map into the same channel space")
    _innerness_gate(phi, tol)
    n, rows, cols = theta.nvars, phi.cols, theta.cols
    target = AnalyticSymbol.polynomial(theta.numerator, n, theta.rows, cols).matmul(
        AnalyticSymbol.polynomial({k: v * np.eye(cols) for k, v in phi.denominator.items()},
                                  n, cols, cols))
    box = TruncationGrid(tuple(np.add(target.degrees, phi.degrees)))
    inside = np.flatnonzero(np.all(box.exponents <= target.degrees, axis=1))
    lhs = toeplitz_matrix(AnalyticSymbol.polynomial(phi.numerator, n, phi.rows, rows),
                          box)[:, _flat(inside, rows)]
    rhs = target.taylor_table(box).reshape(-1, cols)
    p = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    scale = spectral_norm(rhs)
    divisibility = spectral_norm(lhs @ p - rhs) / scale if scale else 0.0
    if divisibility > tol:
        raise FactorizationError(
            f"not divisible: divisibility residual {divisibility:.3e} exceeds {tol:g}")
    blocks = p.reshape(-1, rows, cols)
    kept = np.abs(blocks).max(axis=(1, 2)) > COEFF_CUTOFF
    coeffs = {box.multi_indices[r]: block for r, block, keep in zip(inside, blocks, kept) if keep}
    psi = AnalyticSymbol.rational(coeffs, theta.denominator, n, rows=rows, cols=cols)
    innerness = innerness_check(psi)
    if innerness > tol:
        raise FactorizationError(
            f"division produced a non-isometric quotient: residual {innerness:.3e}")
    return psi, {"divisibility": divisibility, "psi_innerness": innerness}


def chain_dilation(t, caps):
    """canonical_dilation's DilationData with its adjoint powers formed one
    rank at a time, T*^k = T_f* T*^(k - e_f) for the first variable f with
    k_f > 0, in grid order; no gate is run and the tail is not compared
    with any tolerance."""
    root = brehmer_defect(t)[2]
    grid = TruncationGrid(caps, channels=root.shape[0])
    adj = [m.conj().T for m in t.matrices]
    stack = np.empty((len(grid.exponents), t.dim, t.dim), dtype=np.result_type(*adj))
    stack[0] = np.eye(t.dim)
    for rank, k in enumerate(grid.multi_indices[1:], start=1):
        f = next(i for i, a in enumerate(k) if a)
        parent = tuple(a - (i == f) for i, a in enumerate(k))
        stack[rank] = adj[f] @ stack[int(grid.ranks(parent))]
    pi = (root @ stack).reshape(grid.dim, t.dim)
    tail = 0.0
    for i in range(t.n):
        tail += float(np.sum(np.abs((root @ adj[i]) @ stack[grid.exponents[:, i] == caps[i]]) ** 2))
    return DilationData(
        grid=grid,
        pi=pi,
        isometry_residual=spectral_norm(pi.conj().T @ pi - np.eye(t.dim)),
        intertwining_residuals=tuple(spectral_norm(pi @ adj[i] - grid.shift(pi, i, adjoint=True))
                                     for i in range(t.n)),
        tail_mass=tail,
    )
