"""Canonical co-extensions: when truncation is exact and when it warns.

A commuting pair of pure contractions (T1, T2) with PSD alternating
defect sum co-extends to the coordinate shifts on a vector-valued
truncated Hardy space: the map Pi sends x to the family R (T*)^k x, read
as Taylor coefficients against the defect space, where R = B* D^(1/2) is
the root of the defect sum D on its range (B an orthonormal basis of it).  Finite caps make Pi a
finite matrix; the construction reports

  isometry_residual      || Pi* Pi - I ||
  intertwining_residual  max_i || Pi T_i* - M_i* Pi ||
  tail_mass              the mass of the first coefficient shell the
                         caps drop; zero means nothing was lost

Nilpotent pairs need only finitely many shells, so once the caps cover
the nilpotency order both residuals are exact zeros.  A pair with
spectral radius below one is not exactly representable at any finite
caps, and tail_mass quantifies the cut.
"""

import numpy as np

from hardylab import (
    ContractionTuple,
    DilationError,
    brehmer_defect,
    canonical_dilation,
    random_brehmer_pair,
)


def jordan_pair():
    n = np.diag(np.ones(3), 1)
    return ContractionTuple((n / 2, n @ n / 2))


def exact_nilpotent_case():
    pair = jordan_pair()
    defect, psd, root = brehmer_defect(pair)
    print("Jordan-block pair (N/2, N^2/2):")
    print(f"  defect sum diagonal {np.diag(defect).real} (PSD: {psd},"
          f" rank {root.shape[0]})")
    d = canonical_dilation(pair, (4, 4))
    print(f"  isometry residual     {d.isometry_residual:.3e}")
    print(f"  intertwining residual {d.intertwining_residual:.3e}")
    print(f"  tail mass             {d.tail_mass:.3e}")
    print()


def seeded_pairs():
    print("20 seeded nilpotent pairs at caps (4, 4): worst residuals")
    worst_iso = worst_inter = 0.0
    for seed in range(20):
        d = canonical_dilation(random_brehmer_pair(seed), (4, 4))
        worst_iso = max(worst_iso, d.isometry_residual)
        worst_inter = max(worst_inter, d.intertwining_residual)
    print(f"  isometry {worst_iso:.3e}   intertwining {worst_inter:.3e}")
    print()


def scalar_pair_tail():
    pair = ContractionTuple(
        (np.array([[0.3 + 0.0j]]), np.array([[0.5 + 0.2j]]))
    )
    print("scalar pair (0.3, 0.5+0.2i): tail mass shrinks as caps grow")
    for caps in [(4, 4), (8, 8), (16, 16)]:
        try:
            d = canonical_dilation(pair, caps, tail_tol=1e-30)
            print(f"  caps {caps}: tail {d.tail_mass:.3e}")
        except DilationError as exc:
            print(f"  caps {caps}: {exc}")
    d = canonical_dilation(pair, (40, 40))
    print(f"  caps (40, 40): isometry residual {d.isometry_residual:.3e}"
          f" (default tail gate passes)")


def main():
    exact_nilpotent_case()
    seeded_pairs()
    scalar_pair_tail()


if __name__ == "__main__":
    main()
