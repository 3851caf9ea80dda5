"""The reduced kernel of the bidisc: an identity, a failed positivity, a witness.

Removing the constants from the Szego kernel of the bidisc leaves the
reduced kernel S(z,w) - 1, which factors as

    S(z,w) - 1 = [ z1 (1 - z2 conj(w2)) conj(w1) + z2 conj(w2) ] S(z,w).

The bracketed factor is a perfectly good sesquianalytic function but NOT
a positive kernel, which is the obstruction to writing the quotient by a
certain rational inner function as a Beurling quotient.  This script
walks the whole chain numerically:

  1. the identity, tested against a basis summation oracle on a
     truncated grid at seeded interior pairs;
  2. a Gram matrix of the factor with a negative eigenvalue, found by a
     seeded search (two pinned points already exhibit one);
  3. the rational inner witness phi = (2 z1 z2 - z1 - z2)/(2 - z1 - z2),
     which vanishes at the origin and is unimodular on the torus;
  4. the strict inclusions phi H^2 < {f : f(0,0)=0} < H^2 on a small
     grid, and the constants quotient failing the Beurling test with
     residual exactly 1.
"""

import numpy as np

from hardylab import (
    gram_matrix,
    gram_negativity_search,
    kernel_factor,
    kernel_sum_oracle,
    rational_inner_witness,
    reduced_kernel_suite,
    reduced_szego_kernel,
    szego_kernel,
)


def identity_spot_check():
    z = (0.31 + 0.2j, -0.45)
    w = (0.18 - 0.52j, 0.4j)
    closed = reduced_szego_kernel(z, w)
    summed = kernel_sum_oracle(z, w, caps=(60, 60))
    print("reduced kernel at one interior pair:")
    print(f"  closed form {closed:.12f}")
    print(f"  S(z,w) - 1  {szego_kernel(z, w) - 1:.12f}")
    print(f"  basis sum   {summed:.12f}")
    print(f"  |difference| {abs(closed - summed):.3e}")
    print()


def pinned_negative_gram():
    points = [(0.9, 0.9), (-0.9, -0.9)]
    g = gram_matrix(points)
    eigs = np.linalg.eigvalsh(g)
    print(f"pinned Gram matrix at {points}:")
    print(f"  eigenvalues {eigs}")
    print(f"  kernel_factor(p, p) = {kernel_factor(points[0], points[0]):.6f}")
    print()


def seeded_search():
    witness = gram_negativity_search(seed=0)
    print(f"seeded search over {witness.candidates} candidate point sets:")
    print(f"  best min eigenvalue {witness.min_eigenvalue:.6f}"
          f" at {len(witness.points)} points (negative found: {witness.found})")
    print()


def full_suite():
    rep = reduced_kernel_suite()
    phi = rational_inner_witness()
    print("full suite verdicts:")
    for name, value in sorted(rep["verdicts"].items()):
        print(f"  {name:<28} {value}")
    print(f"phi(0.3, -0.2j) = {phi.evaluate((0.3, -0.2j))[0, 0]:.6f}")
    print(f"kernel max deviation {rep['kernel']['max_deviation']:.3e} "
          f"over {rep['kernel']['pairs']} pairs")
    print(f"inclusion ranks {rep['inclusions']['rank_symbol_submodule']} < "
          f"{rep['inclusions']['rank_vanishing_at_origin']} < "
          f"{rep['inclusions']['rank_full']}")
    print(f"constants quotient residual {rep['constants_quotient']['beurling_residual']}")


def main():
    identity_spot_check()
    pinned_negative_gram()
    seeded_search()
    full_suite()


if __name__ == "__main__":
    main()
