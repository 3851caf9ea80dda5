"""Dense grid-wide reference operators, rebuilt from the bases of a split.

The library holds a subspace as orthonormal bases and its compressions as
q x q blocks in Q coordinates; the dim x dim forms below are what tests
compare those blocks against.
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
