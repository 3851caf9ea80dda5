"""The two-way bridge between quotient modules and contraction tuples.

Compressing the coordinate shifts to a Beurling quotient module produces
a commuting tuple of pure contractions whose alternating defect sum is
PSD and which annihilates a specific product expression; conversely a
tuple with those properties is, up to unitary equivalence, such a
compression.  model_correspondence runs the appropriate direction:

  * given a symbol, it builds the quotient, extracts the tuple, and
    checks positivity, pureness, and the vanishing product;
  * given a tuple, it checks the same three conditions directly.

Two instructive edge cases close the loop.  The pair (0, 0) on scalars
is literally the compression to the constants quotient, which is not of
Beurling type: positivity and pureness pass but the annihilation
residual is exactly 1.  And the Jordan-block pair (N/2, N^2/2) shows the
model class is strictly smaller than the dilatable class: its canonical
co-extension is an exact isometry, yet it is not a model tuple either.
"""

import numpy as np

from hardylab import (
    AnalyticSymbol,
    ContractionTuple,
    canonical_dilation,
    model_correspondence,
)


def show(rep, label):
    print(label)
    for name in sorted(rep.residuals):
        verdict = rep.verdicts.get(name)
        mark = "" if verdict is None else ("  [ok]" if verdict else "  [FAIL]")
        print(f"  {name:<18} {rep.residuals[name]: .3e}{mark}")
    print(f"  overall: {rep.verdict}")
    print()


def main():
    show(model_correspondence(AnalyticSymbol.monomial((1, 1)), caps=(5, 5)),
         "symbol direction: tuple extracted from the z1 z2 quotient")

    zero_pair = ContractionTuple((np.zeros((1, 1)), np.zeros((1, 1))))
    show(model_correspondence(zero_pair),
         "tuple direction: (0, 0), the constants-quotient compression")

    n = np.diag(np.ones(3), 1)
    jordan = ContractionTuple((n / 2, n @ n / 2))
    d = canonical_dilation(jordan, (4, 4))
    print("Jordan pair (N/2, N^2/2): dilation isometry residual "
          f"{d.isometry_residual:.3e} (exactly dilatable)")
    show(model_correspondence(jordan),
         "...yet not a model tuple: the annihilation product survives")


if __name__ == "__main__":
    main()
