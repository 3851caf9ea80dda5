"""Truncated monomial bases for vector-valued Hardy spaces on the polydisc.

Everything downstream works on a finite grid: fix per-variable degree caps
d = (d_1, ..., d_n) and a channel count m, and represent a C^m-valued
analytic function by its Taylor coefficients on the multi-indices k with
0 <= k_i <= d_i.  The monomials e_s z^k form an orthonormal basis of the
truncated space, so operators become plain complex matrices and subspaces
become column spans.  TruncationGrid.ranks is the one place a multi-index
becomes a basis rank: shifts, Toeplitz matrices and Taylor recursions all
rest on z^j z^k = z^(j+k), and each reads it off the grid by passing j + k
(or k - j) to ranks.  TruncationGrid.shift applies a coordinate shift M_t
or its adjoint to an array of rows; it is the one place a shift is applied.

Basis order is graded: multi-indices sort by total degree, ties broken by
the reversed tuple, and the channel index varies fastest.  The order is part
of the file-format contract (coefficient files address entries by
multi-index, reports address basis vectors by flat index) and is pinned by
tests; do not change it.  TruncationGrid.exponents lays the box out in this
order with one np.lexsort, and multi_indices reads it as tuples; order_key
sorts the keys of a coefficient dict the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["TruncationGrid", "order_key"]


def order_key(k: tuple[int, ...]) -> tuple:
    """Sort key giving the graded basis order of multi-indices."""
    return (sum(k), tuple(reversed(k)))


@dataclass(frozen=True)
class TruncationGrid:
    """Degree-truncated monomial basis of C^m-valued polynomials.

    ``caps[i]`` is the largest allowed exponent of the i-th variable;
    ``channels`` is the dimension m of the coefficient space.  The flat
    basis index of the monomial e_s z^k is ``ranks(k) * channels + s``.
    """

    caps: tuple[int, ...]
    channels: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", tuple(int(c) for c in self.caps))
        object.__setattr__(self, "channels", int(self.channels))
        if len(self.caps) == 0:
            raise ValueError("need at least one variable")
        if any(c < 0 for c in self.caps):
            raise ValueError(f"caps must be nonnegative, got {self.caps}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")

    @property
    def nvars(self) -> int:
        return len(self.caps)

    @cached_property
    def multi_indices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.exponents.tolist()))

    @cached_property
    def exponents(self) -> np.ndarray:
        """Every multi-index inside the caps as a read-only (ranks, nvars)
        intp array, one per row in graded order: np.lexsort on the keys
        (k_1, ..., k_n, |k|) sorts by |k| first, then by k_n, ..., k_1,
        which is order_key order.
        """
        box = np.indices(tuple(c + 1 for c in self.caps), dtype=np.intp).reshape(self.nvars, -1)
        out = box.T[np.lexsort((*box, box.sum(axis=0)))]
        out.flags.writeable = False
        return out

    @cached_property
    def _radix(self) -> tuple[np.ndarray, np.ndarray]:
        """Mixed-radix place values and the rank of every mixed-radix code.

        A multi-index k inside the caps has code sum_i k_i * place_i with
        place_i = prod_{j<i} (caps_j + 1).  Only ranks reads these tables.
        """
        place = np.cumprod((1,) + tuple(c + 1 for c in self.caps[:-1]), dtype=np.intp)
        rank_of_code = np.empty(len(self.exponents), dtype=np.intp)
        rank_of_code[self.exponents @ place] = np.arange(len(rank_of_code))
        return place, rank_of_code

    def ranks(self, exps) -> np.ndarray:
        """Ranks of the multi-indices along the last axis of an int array.

        Every multi-index must lie inside the caps; nothing checks it, so a
        caller forms a sum j + k or a difference k - j only where it fits.
        The result has the shape of exps without its last axis, and
        multi_indices[ranks(k)] == k.
        """
        place, rank_of_code = self._radix
        return rank_of_code[np.asarray(exps) @ place]

    @cached_property
    def _shift_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only flat index maps (src, dst) of M_t, one per variable t.

        M_t sends e_s z^j to e_s z^(j + e_t) when that stays inside the
        caps and drops it otherwise, so (M_t x)[dst] = x[src].
        """
        pairs = []
        for t in range(self.nvars):
            src = np.flatnonzero(self.exponents[:, t] < self.caps[t])
            dst = self.ranks(self.exponents[src] + (np.arange(self.nvars) == t))
            src, dst = self._flat(src), self._flat(dst)
            src.flags.writeable = False
            dst.flags.writeable = False
            pairs.append((src, dst))
        return tuple(pairs)

    @property
    def dim(self) -> int:
        return len(self.exponents) * self.channels

    def with_channels(self, channels: int) -> "TruncationGrid":
        """Same caps, the given coefficient-space dimension.

        Returns self when the channel count is unchanged, so the cached
        multi-index tables and shift index maps are reused.
        """
        if int(channels) == self.channels:
            return self
        return TruncationGrid(self.caps, channels)

    # ---- indexing -------------------------------------------------------

    def _flat(self, ranks: np.ndarray) -> np.ndarray:
        """Flat indices of every channel of the given ranks, rank-major."""
        m = self.channels
        return (ranks[:, None] * m + np.arange(m)).ravel()

    def shift(self, x: np.ndarray, t: int, adjoint: bool) -> np.ndarray:
        """M_t x, or M_t* x when adjoint, for x with one row per basis index:
        (M_t x)[dst] = x[src] and (M_t* x)[src] = x[dst] for the index map
        (src, dst) of M_t, every other row zero."""
        if not 0 <= t < self.nvars:
            raise ValueError(f"variable {t} out of range for n={self.nvars}")
        src, dst = self._shift_pairs[t]
        if adjoint:
            src, dst = dst, src
        out = np.zeros_like(x)
        out[dst] = x[src]
        return out

    # ---- distinguished index sets ---------------------------------------

    def window_indices(self, margins: tuple[int, ...]) -> np.ndarray:
        """Flat indices of the low-degree window k_i <= d_i - margins[i].

        All channels of a surviving multi-index are kept.  The window is
        where degree-raising truncation damage cannot reach, so two-sided
        compressions to it see the true (untruncated) operator products.
        """
        margins = tuple(int(w) for w in margins)
        if len(margins) != self.nvars:
            raise ValueError("one margin per variable")
        if any(w < 0 for w in margins):
            raise ValueError(f"margins must be nonnegative, got {margins}")
        inside = np.all(self.exponents <= np.subtract(self.caps, margins), axis=1)
        return self._flat(np.flatnonzero(inside))

    def top_slice_indices(self, t: int) -> np.ndarray:
        """Flat indices with k_t == caps[t].

        This is the slice annihilated going up: the truncated shift in
        variable t satisfies S_t* S_t = I - E_t with E_t the orthogonal
        projection onto this slice.
        """
        return self._flat(np.flatnonzero(self.exponents[:, t] == self.caps[t]))
