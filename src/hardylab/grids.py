"""Truncated monomial bases for vector-valued Hardy spaces on the polydisc.

Everything downstream works on a finite grid: fix per-variable degree caps
d = (d_1, ..., d_n) and a channel count m, and represent a C^m-valued
analytic function by its Taylor coefficients on the multi-indices k with
0 <= k_i <= d_i.  The monomials e_s z^k form an orthonormal basis of the
truncated space, so operators become plain matrices and subspaces become
column spans.  Those matrices are float64 when every input is real and
complex128 otherwise; _as_data is the one rule, read where data enters a
grid (a Taylor table, a column set), and numpy's type promotion carries
the dtype from there.  TruncationGrid.ranks is the one place a multi-index
becomes a basis rank.  Shifts, Toeplitz matrices and Taylor recursions all
rest on z^j z^k = z^(j+k), and read the rank of a sum or a difference off
mixed-radix codes: k has the code sum_i k_i * prod_{j<i} (caps_j + 1), and
codes add as multi-indices do wherever the result stays inside the caps.
TruncationGrid.sum_ranks gives the rank of a sum k + d from the ranks of k
and d, and TruncationGrid.predecessors(j) the rank of k - j for every rank
k, with a sentinel where k - j leaves the box.  TruncationGrid.shift
applies a coordinate shift M_t or its adjoint to an array of rows; it is
the one place a shift is applied.

Basis order is graded: multi-indices sort by total degree, ties broken by
the reversed tuple, and the channel index varies fastest.  The order is part
of the file-format contract (coefficient files address entries by
multi-index, reports address basis vectors by flat index) and is pinned by
tests; do not change it.  TruncationGrid.exponents lays the box out in this
order with one np.lexsort, and multi_indices reads it as tuples; order_key
sorts the keys of a coefficient dict the same way.

A grid's index tables depend only on its caps and, for flat indices, its
channel count, so they are shared by every grid of a process rather than
held per instance: the graded order, the multi-index tuples, the codes and
the rank table are kept per caps, the predecessors per (caps, j), the
shift index maps per (caps, channels), the windows per (caps, channels,
margins), the top slices per (caps, channels, t), and the support/free row
map of a tensored split or of a monomial factor per (caps, channels, used),
with used empty for a symbol z^m C/q_0 that couples no variable.
Each table is built once by one module-level builder and returned
read-only, so no caller can change what another grid reads.  Each builder keeps at most TABLE_CACHE =
128 tables and drops the least recently used one first.  The bound is well
above what a run reads: a corpus pass reads 10 distinct caps, 4
predecessor tables, 22 windows and 10 row maps, the row maps only to place
the monomial factors of its mixed entries and the coordinates of its
monomial entries, since its detectors read the core of every tensored
split; ten corpus seeds in one process read 12 caps, 45 windows and 12 row
maps; and a pass over the shipped scenarios or the
division and dilation checks reads fewer than 10 of any table.  It
is still a bound, so a long-lived process that walks through many grids
holds a fixed number of tables, each a few index arrays of its grid's
dimension.  An evicted table is rebuilt by the same code on its next read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["TruncationGrid"]

# tables each builder keeps; the module docstring gives the reason for the value
TABLE_CACHE = 128


def order_key(k: tuple[int, ...]) -> tuple:
    """Sort key giving the graded basis order of multi-indices."""
    return (sum(k), tuple(reversed(k)))


def _as_data(a) -> np.ndarray:
    """a as a float64 array when no entry has a nonzero imaginary part, else
    as complex128: the one rule by which data entering a grid picks its
    dtype, so real data is carried by real arithmetic from there on."""
    a = np.asarray(a)
    real = not (np.iscomplexobj(a) and a.imag.any())
    return np.asarray(a.real if real else a, dtype=float if real else complex)


def _integral(x, name: str) -> int:
    """x as an int when it is an int, a numpy integer or a float with no
    fractional part; ValueError naming it otherwise, so a size or an
    exponent is never truncated."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)) and float(x).is_integer():
        return int(x)
    raise ValueError(f"{name} must be an integer, got {x!r}")


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


def _flat(ranks: np.ndarray, channels: int) -> np.ndarray:
    """Flat indices of every channel of the given ranks, rank-major."""
    return (ranks[:, None] * channels + np.arange(channels)).ravel()


@lru_cache(maxsize=TABLE_CACHE)
def _exponents(caps: tuple[int, ...]) -> np.ndarray:
    """Every multi-index inside the caps, one per row in graded order:
    np.lexsort on the keys (k_1, ..., k_n, |k|) sorts by |k| first, then by
    k_n, ..., k_1, which is order_key order."""
    box = np.indices(tuple(c + 1 for c in caps), dtype=np.intp).reshape(len(caps), -1)
    out = box.T[np.lexsort((*box, box.sum(axis=0)))]
    _frozen(out)
    return out


@lru_cache(maxsize=TABLE_CACHE)
def _multi_indices(caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, _exponents(caps).tolist()))


def _place(caps: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix place values: a multi-index k inside the caps has code
    sum_i k_i * place_i with place_i = prod_{j<i} (caps_j + 1)."""
    return np.cumprod((1,) + tuple(c + 1 for c in caps[:-1]), dtype=np.intp)


@lru_cache(maxsize=TABLE_CACHE)
def _codes(caps: tuple[int, ...]) -> np.ndarray:
    """The mixed-radix code of every rank.  Codes add as multi-indices do,
    so the code of k + d is codes[k] + codes[d] and that of k - j is
    codes[k] - codes[j] wherever the sum or difference stays inside the caps."""
    out = _exponents(caps) @ _place(caps)
    _frozen(out)
    return out


@lru_cache(maxsize=TABLE_CACHE)
def _radix(caps: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Mixed-radix place values and the rank of every mixed-radix code."""
    place = _place(caps)
    codes = _codes(caps)
    rank_of_code = np.empty(len(codes), dtype=np.intp)
    rank_of_code[codes] = np.arange(len(codes))
    _frozen(place, rank_of_code)
    return place, rank_of_code


def _ranks(caps: tuple[int, ...], exps) -> np.ndarray:
    place, rank_of_code = _radix(caps)
    return rank_of_code[np.asarray(exps) @ place]


def _sum_ranks(caps: tuple[int, ...], a, b) -> np.ndarray:
    codes = _codes(caps)
    return _radix(caps)[1][codes[a] + codes[b]]


@lru_cache(maxsize=TABLE_CACHE)
def _predecessors(caps: tuple[int, ...], j: tuple[int, ...]) -> np.ndarray:
    """The rank of k - j for every rank k, and the sentinel len(ranks)
    where k - j leaves the box (some k_i < j_i)."""
    exps = _exponents(caps)
    out = np.full(len(exps), len(exps), dtype=np.intp)
    inside = np.all(exps >= j, axis=1)
    if inside.any():
        place, rank_of_code = _radix(caps)
        out[inside] = rank_of_code[_codes(caps)[inside] - np.dot(j, place)]
    _frozen(out)
    return out


@lru_cache(maxsize=TABLE_CACHE)
def _shift_pairs(caps: tuple[int, ...], channels: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Flat index maps (src, dst) of M_t, one per variable t.

    M_t sends e_s z^j to e_s z^(j + e_t) when that stays inside the caps
    and drops it otherwise, so (M_t x)[dst] = x[src].
    """
    exps = _exponents(caps)
    pairs = []
    for t in range(len(caps)):
        src = np.flatnonzero(exps[:, t] < caps[t])
        dst = _ranks(caps, exps[src] + (np.arange(len(caps)) == t))
        src, dst = _flat(src, channels), _flat(dst, channels)
        _frozen(src, dst)
        pairs.append((src, dst))
    return tuple(pairs)


@lru_cache(maxsize=TABLE_CACHE)
def _window(caps: tuple[int, ...], channels: int, margins: tuple[int, ...]) -> np.ndarray:
    inside = np.all(_exponents(caps) <= np.subtract(caps, margins), axis=1)
    out = _flat(np.flatnonzero(inside), channels)
    _frozen(out)
    return out


@lru_cache(maxsize=TABLE_CACHE)
def _top_slice(caps: tuple[int, ...], channels: int, t: int) -> np.ndarray:
    out = _flat(np.flatnonzero(_exponents(caps)[:, t] == caps[t]), channels)
    _frozen(out)
    return out


@lru_cache(maxsize=TABLE_CACHE)
def _tensor_rows(caps: tuple[int, ...], channels: int, used: tuple[int, ...]) -> np.ndarray:
    exps = _exponents(caps)
    free = [t for t in range(len(caps)) if t not in used]
    on_support = np.flatnonzero(~exps[:, free].any(axis=1))
    on_free = np.flatnonzero(~exps[:, list(used)].any(axis=1))
    ranks = _sum_ranks(caps, on_support[:, None], on_free)
    rows = _flat(ranks.T.ravel(), channels).reshape(on_free.size, -1).T
    _frozen(rows)
    return rows


@dataclass(frozen=True)
class TruncationGrid:
    """Degree-truncated monomial basis of C^m-valued polynomials.

    ``caps[i]`` is the largest allowed exponent of the i-th variable;
    ``channels`` is the dimension m of the coefficient space.  The flat
    basis index of the monomial e_s z^k is ``ranks(k) * channels + s``.
    Every index table it returns is shared with the other grids of the
    same caps (and channels) and is read-only.
    """

    caps: tuple[int, ...]
    channels: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", tuple(_integral(c, "cap") for c in self.caps))
        object.__setattr__(self, "channels", _integral(self.channels, "channels"))
        if len(self.caps) == 0:
            raise ValueError("need at least one variable")
        if any(c < 0 for c in self.caps):
            raise ValueError(f"caps must be nonnegative, got {self.caps}")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")

    @property
    def nvars(self) -> int:
        return len(self.caps)

    @property
    def multi_indices(self) -> tuple[tuple[int, ...], ...]:
        return _multi_indices(self.caps)

    @property
    def exponents(self) -> np.ndarray:
        """Every multi-index inside the caps as a read-only (ranks, nvars)
        intp array, one per row in graded order."""
        return _exponents(self.caps)

    def ranks(self, exps) -> np.ndarray:
        """Ranks of the multi-indices along the last axis of an int array.

        Every multi-index must lie inside the caps; nothing checks it, so a
        caller forms a sum j + k or a difference k - j only where it fits.
        The result has the shape of exps without its last axis, and
        multi_indices[ranks(k)] == k.
        """
        return _ranks(self.caps, exps)

    def sum_ranks(self, a, b) -> np.ndarray:
        """Ranks of the sums k + d of the multi-indices of ranks a and b,
        broadcast together, read as the rank of the sum of their codes.

        Every sum must lie inside the caps; nothing checks it.
        """
        return _sum_ranks(self.caps, a, b)

    def predecessors(self, j) -> np.ndarray:
        """Read-only ranks of k - j for every rank k, in rank order, with
        the sentinel len(exponents) where k - j leaves the box.  j may lie
        outside the caps, and then every entry is the sentinel."""
        return _predecessors(self.caps, tuple(int(a) for a in j))

    @property
    def _shift_pairs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only flat index maps (src, dst) of M_t, one per variable t:
        (M_t x)[dst] = x[src]."""
        return _shift_pairs(self.caps, self.channels)

    @property
    def dim(self) -> int:
        return len(self.exponents) * self.channels

    def with_channels(self, channels: int) -> "TruncationGrid":
        """Same caps, the given coefficient-space dimension; self when the
        channel count is unchanged."""
        if _integral(channels, "channels") == self.channels:
            return self
        return TruncationGrid(self.caps, channels)

    # ---- indexing -------------------------------------------------------

    def _variable(self, t: int) -> int:
        """t as an int, after checking that it names a variable."""
        if not 0 <= t < self.nvars:
            raise ValueError(f"variable {t} out of range for n={self.nvars}")
        return int(t)

    def shift(self, x: np.ndarray, t: int, adjoint: bool) -> np.ndarray:
        """M_t x, or M_t* x when adjoint, for x with one row per basis index:
        (M_t x)[dst] = x[src] and (M_t* x)[src] = x[dst] for the index map
        (src, dst) of M_t, every other row zero."""
        src, dst = self._shift_pairs[self._variable(t)]
        if adjoint:
            src, dst = dst, src
        out = np.zeros_like(x)
        out[dst] = x[src]
        return out

    def _tensor_rows(self, used: tuple[int, ...]) -> np.ndarray:
        """The row map of a split on the variables used, in order, tensored
        with the box of the free variables F, the others.

        rows[i, b] is the flat index in this grid of flat index i of the
        support grid of used (the ranks with k_F = 0, in its own graded
        order, with this grid's channels) tensored with free monomial b
        (the b-th rank with k_used = 0): the rank of k_used + k_F, in the
        same channel.  With used empty the support is the origin alone, so
        rows[s, b] is channel s of rank b.
        """
        return _tensor_rows(self.caps, self.channels, tuple(int(t) for t in used))

    # ---- distinguished index sets ---------------------------------------

    def window_indices(self, margins: tuple[int, ...]) -> np.ndarray:
        """Flat indices of the low-degree window k_i <= d_i - margins[i].

        All channels of a surviving multi-index are kept.  The window is
        where degree-raising truncation damage cannot reach, so two-sided
        compressions to it see the true (untruncated) operator products.
        """
        margins = tuple(_integral(w, "margin") for w in margins)
        if len(margins) != self.nvars:
            raise ValueError("one margin per variable")
        if any(w < 0 for w in margins):
            raise ValueError(f"margins must be nonnegative, got {margins}")
        return _window(self.caps, self.channels, margins)

    def top_slice_indices(self, t: int) -> np.ndarray:
        """Flat indices with k_t == caps[t].

        This is the slice annihilated going up: the truncated shift in
        variable t satisfies S_t* S_t = I - E_t with E_t the orthogonal
        projection onto this slice.
        """
        return _top_slice(self.caps, self.channels, self._variable(t))
