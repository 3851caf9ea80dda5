"""A tour of the truncated Hardy space machinery.

The package works on H^2 of the polydisc chopped at per-variable degree
caps: the monomials z^k with k_i <= d_i form an orthonormal basis, listed
in graded order (total degree first).  Coordinate multiplication becomes
a dim x dim matrix M_i, and three structural facts make the truncation a
faithful laboratory rather than an approximation:

  1. M_i* M_i = I - E_i exactly, where E_i projects onto the top slice
     k_i = d_i.  Each truncated shift is an isometry away from one slice.
  2. M_i and M_j* commute exactly for i != j.  The cross-variable
     structure of the polydisc survives truncation with no error at all.
  3. Multiplication is functorial on analytic polynomials: the matrix of
     a product of symbols is the product of the matrices, exactly, as
     long as the degrees stay inside the caps.

This script prints each fact as a measured matrix residual so the zeros
are observed, not asserted.
"""

import numpy as np

from hardylab import (
    AnalyticSymbol,
    TruncationGrid,
    shift_matrix,
    spectral_norm,
    toeplitz_matrix,
)


def grid_anatomy():
    grid = TruncationGrid((3, 2))
    print(f"caps {grid.caps}: dimension {grid.dim}")
    print("first eight basis exponents in graded order:")
    for k in grid.multi_indices[:8]:
        print("   z^" + "".join(f"{e}" for e in k), k)
    print()


def shift_identities():
    grid = TruncationGrid((4, 4))
    shifts = [shift_matrix(grid, t) for t in range(grid.nvars)]
    eye = np.eye(grid.dim)

    for i, m in enumerate(shifts):
        gram = m.conj().T @ m
        # the defect of the isometry is exactly the top-slice projector
        top = grid.top_slice_indices(i)
        e_top = np.zeros_like(eye)
        e_top[top, top] = 1.0
        print(f"|| M_{i}* M_{i} - (I - E_{i}) || =",
              spectral_norm(gram - (eye - e_top)))

    cross = shifts[0] @ shifts[1].conj().T - shifts[1].conj().T @ shifts[0]
    print("|| M_0 M_1* - M_1* M_0 ||       =", spectral_norm(cross))
    print()


def toeplitz_multiplicativity():
    grid = TruncationGrid((6, 6))
    f = AnalyticSymbol.polynomial({(1, 0): 2.0, (0, 1): -1.0}, nvars=2)
    g = AnalyticSymbol.polynomial({(1, 1): 1.0, (0, 0): 0.5}, nvars=2)
    fg = AnalyticSymbol.polynomial(
        {(2, 1): 2.0, (1, 2): -1.0, (1, 0): 1.0, (0, 1): -0.5}, nvars=2
    )
    lhs = toeplitz_matrix(f, grid) @ toeplitz_matrix(g, grid)
    rhs = toeplitz_matrix(fg, grid)
    print("|| M_f M_g - M_fg ||            =", spectral_norm(lhs - rhs))
    print("(truncation keeps products of analytic symbols exactly)")


def main():
    grid_anatomy()
    shift_identities()
    toeplitz_multiplicativity()


if __name__ == "__main__":
    main()
