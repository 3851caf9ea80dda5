"""Dividing inner symbols and auditing the gap between their submodules.

If theta = phi psi with all three inner, then theta H^2 sits inside
phi H^2.  Division happens in coefficient space: with phi = N_phi / q_phi
and theta = N_theta / q_theta, the numerator P of psi = P / q_theta solves
N_phi P = N_theta q_phi, a finite identity of polynomial coefficients.  The
division checks two residuals before accepting it (divisibility, the
relative residual of that solve, and the innerness of psi), so a
non-divisible pair is rejected rather than mis-divided.  No grid enters,
so a rational division is exact whatever the truncation.

The interesting object is the gap M = (phi H^2) minus (theta H^2): it is
jointly invariant under the shifts, and the two descriptions of the same
quotient space, Q_theta minus M and Q_phi, must coincide.  The audit
measures both, then runs the Beurling detectors on N = M + theta H^2:
the gap of a genuine inner factorization passes, while a subspace that
merely contains theta H^2 generally fails.
"""

import numpy as np

from hardylab import (
    AnalyticSymbol,
    FactorizationError,
    TruncationGrid,
    beurling_submodule_check,
    divide_inner,
    dump_coefficient_text,
    invariant_subspace_from_factorization,
)


def polynomial_roundtrip():
    theta = AnalyticSymbol.monomial((1, 1))
    phi = AnalyticSymbol.monomial((1, 0))
    grid = TruncationGrid((6, 6))

    psi = divide_inner(theta, phi)
    print("z1 z2 divided by z1 gives psi with coefficients:")
    print("  " + dump_coefficient_text(psi).strip().replace("\n", "\n  "))

    witness = invariant_subspace_from_factorization(theta, phi, grid)
    print(f"gap rank {witness.m_rank}")
    for name, value in sorted(witness.residuals.items()):
        print(f"  {name:<18} {value:.3e}")

    check = beurling_submodule_check(witness.m_basis, theta, grid)
    print(f"gap is a Beurling submodule inside the quotient: "
          f"{check.verdicts['condition_2']} / {check.verdicts['condition_3']}"
          f" (agree: {check.verdicts['conditions_agree']})")
    print()


def rational_roundtrip():
    # theta = b_a(z1) * z2 divided by phi = b_a(z1), a = 0.6
    a = 0.6
    theta = AnalyticSymbol.rational(
        {(1, 1): 1.0, (0, 1): -a}, {(0, 0): 1.0, (1, 0): -a}, nvars=2
    )
    phi = AnalyticSymbol.rational(
        {(1, 0): 1.0, (0, 0): -a}, {(0, 0): 1.0, (1, 0): -a}, nvars=2
    )
    psi = divide_inner(theta, phi)
    print(f"b_{a}(z1) z2 divided by b_{a}(z1): psi = P / q_theta with")
    for part, coeffs in (("P", psi.numerator), ("q_theta", psi.denominator)):
        terms = ", ".join(f"z^{k}: {complex(np.ravel(v)[0]).real:.15g}"
                          for k, v in sorted(coeffs.items()))
        print(f"  {part:<8} {terms}")
    print("(z2 (1 - a z1) / (1 - a z1): the quotient is z2, reported with the")
    print(" common factor of P and q_theta left in place)")
    print()


def rejected_division():
    theta = AnalyticSymbol.monomial((0, 2))
    phi = AnalyticSymbol.monomial((1, 0))
    try:
        divide_inner(theta, phi)
    except FactorizationError as exc:
        print(f"z2^2 divided by z1 is refused: {exc}")


def main():
    polynomial_roundtrip()
    rational_roundtrip()
    rejected_division()


if __name__ == "__main__":
    main()
