"""Dense grid-wide reference operators, rebuilt from the bases of a split
or entry by entry.

The library holds a subspace as orthonormal bases and its compressions as
q x q blocks in Q coordinates, and lays Toeplitz matrices out in one
scatter; the dim x dim forms below are what tests compare those against.
"""

import numpy as np

from hardylab.operators import spectral_norm


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
