"""Every compression identity for one subspace split, explained key by key.

Splitting the truncated space along a submodule S and compressing the
shifts to Q = S-perp yields a family of operator identities.  Three are
exact identities of the truncated matrices on the whole grid, for every
split, and act as self-tests of the construction:

  defect_identity      P_Q - Chat_t* Chat_t equals its compression formula
                       P_Q M_t* P_S M_t P_Q plus the top-slice term
                       P_Q E_t P_Q, where the truncated shift drops degree
  commutator_identity  [Chat_i, Chat*^k] equals
                       P_Q M*^k P_S M_i P_Q - P_Q M_i P_S M*^k P_Q
  reduces              P_Q M_t* P_S M_t P_S equals
                       -P_Q E_t P_S - Chat_t* P_Q M_t P_S

One more holds for every submodule:

  defect_domination_min_eig
                       (P_Q - Chat_i* Chat_i) - [C,C*]*[C,C*] stays PSD on Q
                       (smallest eigenvalue reported, must be >= -tol)

Three more vanish exactly WHEN the quotient is of Beurling type, so they
double as detectors:

  xij                      the cross terms P_S M_i P_Q M_j* P_S
  beurling_defect_product  the product of the defect compression formulas
  annihilation_1..3        three product expressions that the vanishing
                           defect product forces to zero (only evaluated
                           once the defect product is below tolerance)

No residual is windowed.  Only the invariance gate of quotient_data reads
the low-degree window that the margins keep; here they come from the
symbol's numerator degree (eval_margins), which is what the scenario
runner does.
"""

from hardylab import (
    AnalyticSymbol,
    TruncationGrid,
    eval_margins,
    identity_suite,
    quotient_data,
    submodule_projection,
)


def walkthrough(symbol, caps, label):
    grid = TruncationGrid(caps)
    sub = submodule_projection(symbol, grid)
    margins = eval_margins(symbol)
    data = quotient_data(sub, margins=margins)
    suite = identity_suite(data)

    print(f"{label}  (caps {caps}, dim {grid.dim}, rank of Q {data.q.rank})")
    print(f"  shift-invariance defect of S: {data.invariance:.3e} "
          f"(gate on margins {margins}, not identity)")
    for name in sorted(suite.residuals):
        verdict = suite.verdicts.get(name)
        mark = "" if verdict is None else f"  [{'ok' if verdict else 'FAIL'}]"
        print(f"  {name:<26} {suite.residuals[name]: .3e}{mark}")
    print()


def main():
    walkthrough(AnalyticSymbol.monomial((2, 1)), (5, 5),
                "theta = z1^2 z2 (polynomial, exact)")

    blaschke_pair = AnalyticSymbol.rational(
        {(1, 1): 1.0, (1, 0): -0.03, (0, 1): -0.04, (0, 0): 0.0012},
        {(0, 0): 1.0, (1, 0): -0.04, (0, 1): -0.03, (1, 1): 0.0012},
        nvars=2,
    )
    walkthrough(blaschke_pair, (6, 6),
                "theta = b_0.04(z1) b_0.03(z2) (rational, truncation-limited)")


if __name__ == "__main__":
    main()
