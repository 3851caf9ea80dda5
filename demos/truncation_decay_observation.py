"""How truncation error decays as the degree caps grow.

Polynomial symbols are represented exactly on any grid that contains
their degree, so every residual in this package is a float-noise zero
for them.  Rational inner symbols are different: the truncated column
space of b_a(z) = (z - a)/(1 - a z) is only approximately
shift-invariant, and the windowed invariance defect inherits a power-law
decay in the cap d driven by the Taylor tail of 1/(1 - a z).

Observed scaling for b_a(z1) embedded in two variables, margin-1
window (ratios printed below; d is the cap in z1):

  invariance defect        ~ |a|^(d+2)

The battery residuals, by contrast, sit at rounding for every cap.
"reduces" and "defect_identity" are exact identities of the truncated
matrices on the whole grid, which carry the top-slice term that the
truncated shift leaves behind, so no truncation error is left in them.
The Beurling defect product vanishes for this separated symbol at every
cap as well: the second variable's defect is only its top-slice term,
which the product G_11 G_22 of the compression formulas leaves out.  So
the truncation story of a rational symbol is told by the invariance
gate alone.
"""

from hardylab import (
    AnalyticSymbol,
    TruncationGrid,
    beurling_criterion,
    identity_suite,
    quotient_data,
    submodule_projection,
)


def blaschke(a):
    return AnalyticSymbol.rational(
        {(1, 0): 1.0, (0, 0): -a}, {(0, 0): 1.0, (1, 0): -a}, nvars=2
    )


def decay_table(a):
    print(f"b_{a}(z1) embedded in n = 2, margin (1, 1):")
    header = f"  {'caps':<10}{'invariance':>14}{'reduces':>14}{'defect_id':>14}{'product':>14}"
    print(header)
    rows = []
    for d in (4, 6, 8):
        s = submodule_projection(blaschke(a), TruncationGrid((d, d)))
        data = quotient_data(s, margins=(1, 1))
        suite = identity_suite(data)
        product = beurling_criterion(data).residuals["beurling_defect_product"]
        rows.append((data.invariance, suite.residuals["reduces"],
                     suite.residuals["defect_identity"], product))
        print(f"  {(d, d)!s:<10}{rows[-1][0]:>14.3e}{rows[-1][1]:>14.3e}"
              f"{rows[-1][2]:>14.3e}{rows[-1][3]:>14.3e}")
    noise = 1e-14
    ratios = [f"{rows[i + 1][0] / rows[i][0]:.2e}" if min(rows[i][0], rows[i + 1][0]) > noise
              else "(noise floor)" for i in range(len(rows) - 1)]
    print(f"  invariance cap-step ratios: {', '.join(ratios)}"
          f"   (power law predicts {a ** 2:.2e})")
    print(f"  worst reduces / defect_id / product over the caps: "
          f"{max(max(r[1:]) for r in rows):.1e}")
    print()


def main():
    decay_table(0.5)
    decay_table(0.05)


if __name__ == "__main__":
    main()
