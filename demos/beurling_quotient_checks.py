"""Three detectors for the Beurling quotient property, run both ways.

A quotient module Q = H^2 minus theta H^2 for an inner symbol theta has
three equivalent fingerprints, each computable as a residual on the whole
truncated grid:

  * the product of the defect operators vanishes; on the grid each defect
    P_Q - Chat_t* Chat_t is P_Q M_t* P_S M_t P_Q plus the top-slice term
    P_Q E_t P_Q, and the product measured is that of the first parts,
  * the cross-commutators R_j* R_i - R_i R_j* of the shifts restricted
    to the submodule S vanish,
  * the cross terms X_ij = P_S M_i P_Q M_j* P_S vanish.

The equivalence is a theorem about genuine Beurling quotients and a
falsifiable computation here.  Positive case: theta = z1 z2.  Negative
case: the submodule of functions vanishing at the origin, whose quotient
(the constants) is famously NOT of Beurling type: all three detectors
must agree on the failure, and the defect-product residual lands at
exactly 1 because the two defects both act as the projection onto the
constants.
"""

import numpy as np

from hardylab import (
    AnalyticSymbol,
    TruncationGrid,
    beurling_criterion,
    cross_commutator_criterion,
    identity_suite,
    quotient_data,
    submodule_projection,
    subspace_from_columns,
)


def run_detectors(sub, margins, label):
    data = quotient_data(sub, margins=margins)
    product = beurling_criterion(data)
    commutator = cross_commutator_criterion(sub, margins=margins)
    suite = identity_suite(data)

    print(label)
    print(f"  defect product residual   {product.residuals['beurling_defect_product']:.3e}"
          f"  -> verdict {product.verdict}")
    print(f"  cross-commutator residual {commutator.residuals['cross_commutator']:.3e}"
          f"  -> verdict {commutator.verdict}")
    print(f"  cross-term X_ij residual  {suite.residuals['xij']:.3e}"
          f"  -> verdict {suite.residuals['xij'] <= 1e-8}")
    print()


def main():
    grid = TruncationGrid((6, 6))

    theta = AnalyticSymbol.monomial((1, 1))
    sub = submodule_projection(theta, grid)
    run_detectors(sub, (1, 1), "theta = z1 z2 (Beurling quotient)")

    origin_complement = subspace_from_columns(grid, np.eye(grid.dim)[:, 1:])[0]
    run_detectors(origin_complement, (1, 1),
                  "S = {f : f(0,0) = 0} (constants quotient, not Beurling)")

    # a rational inner symbol behaves like the monomial, up to truncation:
    # theta = z2 * (z1 - 0.05) / (1 - 0.05 z1)
    mixed = AnalyticSymbol.rational(
        {(1, 1): 1.0, (0, 1): -0.05}, {(0, 0): 1.0, (1, 0): -0.05}, nvars=2
    )
    sub = submodule_projection(mixed, grid)
    run_detectors(sub, (1, 1), "theta = b_0.05(z1) * z2 (rational inner)")


if __name__ == "__main__":
    main()
