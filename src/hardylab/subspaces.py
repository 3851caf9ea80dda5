"""Submodules and quotient modules as orthonormal column spans.

A split S + Q of a grid is held by one basis, the column-orthonormal basis
B_Q of the quotient Q (SubspaceData.complement), and S is read only as
P_S = I - B_Q B_Q*, so P_S + P_Q = I is exact by construction and
P_S A = A - B_Q (B_Q* A) is formed from thin blocks (_outside).  Every
split, of a column set or of a sum (SubspaceData.extended), goes through
_with_complement and its one cut: a singular value counts above
RANK_TOL * max(floor, sig_max), relative for a column set and absolute for
a sum, whose singular values are cosines.  Columns that are zero or
distinct unit vectors up to a unimodular phase (monomial sums, the window
columns of a unit coefficient block) split by index with no factorization:
a column set into float64 0/1 coordinate columns whatever the phases, a
sum into the frame's columns; the origin complement is such a split,
built from its index mask alone (origin_complement).  Others take one
complete Householder QR, whose triangular factor R has the singular values
of the columns (Golub & Van Loan, Matrix Computations, 5.2).  Full rank
is certified from R alone: by Weyl's inequality its diagonal and the
Frobenius norm of its strict upper triangle bound every singular value,
and when those bounds clear the cut twice over the split is read off Q
with no SVD.  Otherwise one thin SVD of R sets the rank, and only a cut
that drops columns rotates Q by its left factor.  A column with a NaN or
infinite entry is refused by name before any of this.  Arithmetic follows
the data: real columns give real bases (float64, read by grids._as_data),
so every QR, Gram and product downstream of a real split is real, and a
complex column anywhere, in a column set or in a sum, makes the bases
complex128 by numpy's type promotion.
Operators are read against B_Q: SubspaceData.shift_blocks gives B_Q* A B_Q
and the part P_S A B_Q of A B_Q in S, for A = M_t or M_t* applied by
TruncationGrid.shift; B_Q* M_t B_Q is a product for the first direction
asked, and the other takes its adjoint.

Submodules generated by an inner symbol take the columns of the truncated
multiplication operator over the input window (domain degrees at least
deg_i(numerator) below the caps in each variable); those columns are exact
images.  The split reads three kinds of variable off the symbol's keys
(_toeplitz_split).  A free variable appears in no key; a monomial variable
t appears in every numerator key with one exponent m_t >= 1 and in no
denominator key, so the symbol is z_M^m times a symbol of the others; every
other variable is coupled, and a constant, which uses no variable, takes
variable 0 as coupled.  H^2 of the polydisc is the tensor product of H^2
in each kind, and on the box grid so is the operator, entry for entry:
M_symbol is the Toeplitz matrix T on the grid of the coupled variables,
tensored with the 0/1 shift by m over the monomial box and with the
identity over the free box.  So only the window columns of T are built and
split, by the one factorization or by index.  The monomial factor costs an
index step: its window maps onto the coordinates k_M >= m, so S is T's S
tensored with those coordinates and Q is T's Q tensored with the whole
monomial box plus T's S tensored with the other coordinates
(_times_monomial).  That split of the coupled and monomial variables, the
used ones, is laid out on their grid; a symbol with no monomial variable
has T's split there.  A symbol z^m C/q_0 with no coupled variable builds no
Toeplitz matrix: its T is the zero-variable one, the coefficient block
C/q_0, and S is read off the core grid's exponents.  A free variable costs
nothing until the grid-sized B_Q is read.
The split returned (_TensoredSplit) keeps the split on the used variables'
grid as its core (SubspaceData.core) and the used variables
(SubspaceData.used), and its B_Q is tensored from the core's, so the
quotient battery runs on the core; every other split is its own core.  Its
rank and discarded count are the core's times the free box size, and its
grid-sized B_Q, the core's tensored with the free box and its rows placed
in grid order by the grid's shared row map, is formed only when read.  The
core holds no reference back to the tensored split.
The exact S intersected with the grid, which for a symbol with singular
leading coefficients holds more than the window columns span, factors the
same way: it is the used variables' part tensored with the free box.
Only the invariance gate reads a window, and it lives here whole
(invariance_defect, _invariance_gate); the quotient battery downstream
measures exact identities of the whole grid's matrices.  The symbol is
gated first by operators.innerness_check, an exact identity of its Taylor
coefficients rather than a sampled torus test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grids import TruncationGrid, _as_data, _integral
from .operators import (
    InnernessError,
    innerness_check,
    norm_factor,
    spectral_norm,
    toeplitz_matrix,
)
from .symbols import AnalyticSymbol
from .textlines import complex_row, content_lines, fields

__all__ = [
    "SubspaceData",
    "submodule_projection",
    "subspace_from_columns",
    "parse_basis_text",
    "invariance_defect",
    "InvarianceError",
]

RANK_TOL = 1e-10
# windowed invariance defect above which a subspace is refused as a submodule
INVARIANCE_GATE = 5e-2
# factor by which a certified full-rank split clears the rank cut, far above
# the rounding of the bound and of the SVD it stands in for
CERT_SAFETY = 2.0


class InvarianceError(ValueError):
    """A subspace required to be a submodule failed the invariance gate."""


@dataclass(frozen=True)
class SubspaceData:
    """A subspace S of a truncated grid, held by the orthonormal basis B_Q
    of its complement Q alone: S is read only as P_S = I - B_Q B_Q*.

    Shift blocks and the invariance defect are formed on first use and
    cached.  A split that _toeplitz_split tensored from the grid of the
    variables its symbol uses keeps that split as its core and forms its
    own B_Q only when read (_TensoredSplit); every other split is its own
    core.
    """

    grid: TruncationGrid
    complement: np.ndarray     # (dim, q), orthonormal basis B_Q of the complement
    discarded: int = 0         # columns dropped at the rank tolerance

    @property
    def rank(self) -> int:
        """dim S = dim - q."""
        return self.grid.dim - self.complement.shape[1]

    @property
    def core(self) -> "SubspaceData":
        """The split on the grid of the used variables that this one is
        tensored from with the identity over the free box, or self."""
        return self

    @property
    def used(self) -> tuple[int, ...]:
        """The grid variables of the core, in order; the others are free."""
        return tuple(range(self.grid.nvars))

    @cached_property
    def _cache(self) -> dict:
        return {}

    def shift_blocks(self, t: int, adjoint: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(B_Q* A B_Q, A B_Q - B_Q B_Q* A B_Q) for A = M_t, or A = M_t* when adjoint.

        t is a variable number, so the first block is the compression of the
        shift of variable t to Q in Q coordinates and the second, P_S A B_Q
        of shape (dim, q), is the part of A B_Q in S; A B_Q is
        TruncationGrid.shift of B_Q.  B_Q* A B_Q is a product for the first
        direction asked only, and the other direction takes its adjoint,
        B_Q* M_t* B_Q = (B_Q* M_t B_Q)*.  Cached per (t, adjoint).
        """
        key = ("shift", int(t), bool(adjoint))
        if key not in self._cache:
            b = self.complement
            moved = self.grid.shift(b, key[1], key[2])
            other = self._cache.get(("shift", key[1], not key[2]))
            inside = b.conj().T @ moved if other is None else other[0].conj().T
            self._cache[key] = (inside, moved - b @ inside)
        return self._cache[key]

    def extended(self, columns: np.ndarray) -> "SubspaceData":
        """The split of S + span(columns): _with_complement of the columns
        on the frame B_Q at floor 1, which splits B_Q* columns, so the cut
        is absolute (the singular values are cosines).  The part of
        span(columns) outside S is split off B_Q's range, and the rest of
        that range is the sum's Q; discarded counts the columns that add no
        dimension.  The sum is no tensor product, so it is its own core.
        """
        _, rest, dropped = _with_complement(columns, 1.0, self.complement)
        return SubspaceData(self.grid, rest, discarded=dropped)


class _TensoredSplit(SubspaceData):
    """The split core (x) H^2(F) on grid: the core's B_Q tensored with the
    identity over the box of the free variables F, the grid variables not
    in used, one column per (free monomial, core column) in free-major
    order.  rank and discarded come from the core, and complement, of the
    grid's dimension, is formed on first read and cached.  The core holds no
    reference back to the split.
    """

    def __init__(self, core: SubspaceData, grid: TruncationGrid, used: tuple[int, ...]) -> None:
        box = math.prod(c + 1 for t, c in enumerate(grid.caps) if t not in used)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "discarded", core.discarded * box)
        object.__setattr__(self, "_core", core)
        object.__setattr__(self, "_used", used)
        object.__setattr__(self, "_box", box)

    @property
    def rank(self) -> int:
        return self._core.rank * self._box

    @property
    def core(self) -> SubspaceData:
        return self._core

    @property
    def used(self) -> tuple[int, ...]:
        return self._used

    @cached_property
    def complement(self) -> np.ndarray:
        return _tensored(self._core.complement, self.grid._tensor_rows(self._used), self.grid.dim)


def _tensored(b: np.ndarray, rows: np.ndarray, dim: int) -> np.ndarray:
    """b tensored with one unit vector per column of a row map: column j of
    rows (TruncationGrid._tensor_rows, or some of its columns) names the
    rows of a grid of dimension dim that b's rows go to, so the result has
    one column per (map column, column of b), map-column-major."""
    out = np.zeros((dim, rows.shape[1], b.shape[1]), dtype=b.dtype)
    out[rows, np.arange(rows.shape[1])] = b[:, None, :]
    return out.reshape(dim, -1)


def _outside(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(I - B B*) A = A - B (B* A) for a column-orthonormal B, from thin
    blocks: the part of A outside span(B), so P_S A = _outside(B_Q, A)."""
    return a - b @ (b.conj().T @ a)


def _coordinate_mask(columns: np.ndarray):
    """Mask of the rows that hold the columns' nonzero entries when each
    column is zero or a unit vector up to a unimodular phase, no two on one
    row, else None.  Columns with no rows, as a frame with no columns
    leaves them, give the empty mask."""
    nonzero = columns != 0
    units = np.flatnonzero(nonzero.any(axis=0))
    if np.count_nonzero(nonzero) != units.size:
        return None
    rows = nonzero[:, units].argmax(axis=0) if units.size else units
    inside = np.zeros(columns.shape[0], dtype=bool)
    inside[rows] = True
    if np.count_nonzero(inside) != rows.size or np.any(np.abs(np.abs(columns[rows, units]) - 1) > 1e-15):
        return None
    return inside


def _coordinates(inside: np.ndarray) -> np.ndarray:
    """The float64 0/1 coordinate columns at the rows of the mask, in
    increasing row order: the identity's columns, scattered without forming
    the identity, in its column-major layout."""
    rows = np.flatnonzero(inside)
    b = np.zeros((inside.size, rows.size), order="F")
    b[rows, np.arange(rows.size)] = 1.0
    return b


def _certified_full_rank(r: np.ndarray, floor: float) -> bool:
    """True when every singular value of the square triangular r lies above
    the rank cut, RANK_TOL * max(floor, sig_max), with CERT_SAFETY to spare.

    Write r = D + N with D its diagonal and N its strict upper triangle.
    Weyl's inequality |sig_i(D + N) - sig_i(D)| <= ||N||_2 <= ||N||_F
    (Golub & Van Loan, Matrix Computations, 8.6) bounds sig_min below by
    min|r_ii| - ||N||_F and sig_max above by max|r_ii| + ||N||_F, in O(k^2)
    work.  False means only that the bound cannot decide.
    """
    d = np.abs(np.diagonal(r))
    off = np.linalg.norm(np.triu(r, 1))
    return bool(d.min() - off > CERT_SAFETY * RANK_TOL * max(floor, d.max() + off))


def _rank(sig: np.ndarray, floor: float) -> int:
    """The count of singular values above the cut RANK_TOL * max(floor, sig_max)."""
    return int(np.sum(sig > RANK_TOL * max(floor, sig[0])))


def _check_finite(columns: np.ndarray) -> None:
    """Raise ValueError naming the first column with a NaN or infinite entry."""
    bad = np.flatnonzero(~np.isfinite(columns).all(axis=0))
    if bad.size:
        raise ValueError(f"column {bad[0]} has a non-finite entry")


def _with_complement(columns: np.ndarray, floor: float, frame: np.ndarray | None = None):
    """(B_S, B_Q, discarded): the span of the columns' projection onto the
    range of the orthonormal frame (the identity when None) and its
    complement in that range, both as grid vectors, and the count of
    columns that add no dimension.

    The one splitter, with one cut: a singular value of frame* columns
    counts above RANK_TOL * max(floor, sig_max).  A column with a NaN or
    infinite entry is refused first (_check_finite).  Zero or distinct unit
    columns split by index: B_S is the frame's columns at their rows and
    B_Q the rest, float64 0/1 coordinate columns when there is no frame,
    and each zero column is discarded.  Other columns take
    Q, R = qr(columns, "complete"): k of them, no more than the rows, whose
    leading R block _certified_full_rank clears split as (Q[:, :k],
    Q[:, k:]).  Otherwise one thin SVD of the leading min(rows, k) rows of
    R, whose singular values are the columns', sets the rank; a cut that
    drops a column, as every cut of k > rows columns does, rotates the
    leading block of Q by its left singular vectors, so that block begins
    with span(columns), and a cut that keeps every column leaves Q as the
    QR gave it.
    """
    _check_finite(columns)
    if frame is not None:
        columns = frame.conj().T @ columns
    inside = _coordinate_mask(columns)
    if inside is not None:
        pick = _coordinates if frame is None else (lambda mask: frame[:, mask])
        return pick(inside), pick(~inside), columns.shape[1] - int(inside.sum())
    q, r = np.linalg.qr(columns, mode="complete")
    k = rank = columns.shape[1]
    if k > columns.shape[0] or not _certified_full_rank(r[:k], floor):
        lead = min(columns.shape)
        u, sig, _ = np.linalg.svd(r[:lead], full_matrices=False)
        rank = _rank(sig, floor)
        if rank < k:
            q[:, :lead] = q[:, :lead] @ u
    if frame is not None:
        q = frame @ q
    return q[:, :rank], q[:, rank:], k - rank


def subspace_from_columns(
    grid: TruncationGrid,
    columns: np.ndarray,
) -> tuple[SubspaceData, np.ndarray]:
    """Orthonormalize columns at the relative cut, floor 0; return (split, B_S).

    B_S, the orthonormal basis of the span formed alongside B_Q, is
    returned, not held.  Columns with no nonzero imaginary part are split
    as float64 and give real bases (grids._as_data); a NaN or infinite
    entry is refused.
    """
    columns = _as_data(columns)
    if columns.ndim != 2 or columns.shape[0] != grid.dim:
        raise ValueError(f"columns must be ({grid.dim}, k), got {columns.shape}")
    span, rest, dropped = _with_complement(columns, 0.0)
    return SubspaceData(grid, rest, discarded=dropped), span


def submodule_projection(symbol: AnalyticSymbol, grid: TruncationGrid,
                         inner_tol: float = 1e-8) -> SubspaceData:
    """S = closure of symbol * H^2 on the grid.

    The generating columns are the images of the monomials whose degree in
    variable i is at most caps[i] minus the numerator degree in i; those
    images stay inside the caps exactly for polynomial symbols.  The symbol
    must pass the innerness gate (operators.innerness_check, exact in its
    coefficients) first.  Only the Toeplitz block of the variables the
    symbol couples is built and split; its monomial factor enters as an
    index split and the free variables as a tensor factor (_toeplitz_split).
    """
    if symbol.nvars != grid.nvars:
        raise ValueError(f"symbol has {symbol.nvars} variables, grid has {grid.nvars}")
    _innerness_gate(symbol, inner_tol)
    return _toeplitz_split(symbol, grid)


def _innerness_gate(symbol: AnalyticSymbol, inner_tol: float) -> float:
    """The innerness_check deviation of symbol; raise InnernessError unless
    it passes at inner_tol."""
    deviation = innerness_check(symbol)
    if not deviation <= inner_tol:
        raise InnernessError(
            f"symbol is not inner at tolerance {inner_tol:g}: coefficient deviation {deviation:g}"
        )
    return deviation


def _toeplitz_split(symbol: AnalyticSymbol, grid: TruncationGrid) -> SubspaceData:
    """The submodule of symbol, split on the variables its keys couple.

    Each variable t is one of three kinds.  It is free when no numerator or
    denominator key uses it, monomial when every numerator key has one
    exponent m_t >= 1 in it and no denominator key uses it, so that symbol =
    z_M^m * symbol' over the monomial variables M, and coupled otherwise (a
    constant, which uses no variable, takes variable 0 as coupled).  Every
    Taylor coefficient sits at k_F = 0 and k_M = m, so on the box grid
    M_symbol = T (x) S^m (x) I_F entry for entry: T is the Toeplitz matrix
    of symbol' on the support grid of the coupled variables U, and S^m the
    0/1 shift by m on the box of M, whose window columns map onto
    {e_k : k_M >= m}.  Only the window columns of T are built and split, by
    one factorization or by index; the monomial and free variables cost no
    factorization and no Toeplitz matrix.  A symbol z^m C/q_0 with no
    coupled variable builds no Toeplitz matrix, no Taylor table and no
    restricted symbol at all: T is the zero-variable Toeplitz matrix, the
    coefficient block C/q_0, so S = range(C/q_0) (x) {e_k : k >= m} is read
    off the core grid's exponents.  On the core grid of U and M (used), the
    split is that of T tensored with the split of S^m (_times_monomial);
    with no monomial variable it is T's split itself.  With no free
    variable the core grid is the grid and the core split is returned as it
    is.  Otherwise it is the core of the returned _TensoredSplit, whose B_Q
    is the Kronecker product of the core's B_Q with the identity over the
    free box, its rows scattered to the ranks of k_used + k_F by the grid's
    shared row map (TruncationGrid._tensor_rows) and formed only when read;
    rank and discarded grow by the free box size.
    """
    numerator, denominator = list(symbol.numerator), list(symbol.denominator)
    keys = numerator + denominator
    used = tuple(t for t in range(grid.nvars) if any(k[t] for k in keys))
    shift = {t: numerator[0][t] for t in used if not any(k[t] for k in denominator)
             and all(k[t] == numerator[0][t] for k in numerator)}
    coupled = tuple(t for t in used if t not in shift) if used else (0,)
    used = used or coupled
    cod = grid.with_channels(symbol.rows)
    core = TruncationGrid(tuple(grid.caps[t] for t in used), symbol.rows) if len(used) < grid.nvars else cod
    m = tuple(0 if t in coupled else shift[t] for t in used)
    if coupled:
        support = TruncationGrid(tuple(grid.caps[t] for t in coupled))
        if len(coupled) < grid.nvars:
            restricted = [{tuple(k[t] for t in coupled): v for k, v in part.items()}
                          for part in (symbol.numerator, symbol.denominator)]
            symbol = AnalyticSymbol(len(coupled), symbol.rows, symbol.cols, *restricted)
        keep = support.with_channels(symbol.cols).window_indices(symbol.degrees)
        block = toeplitz_matrix(symbol, support)[:, keep]
    else:
        # symbol = z^m C/q_0, divided as AnalyticSymbol.taylor_table divides it
        c = _as_data(np.concatenate([symbol.numerator[numerator[0]].ravel(),
                                     list(symbol.denominator.values())]))
        block = c[:-1].reshape(symbol.rows, symbol.cols) / c[-1]
    if len(coupled) < len(used):
        s = _times_monomial(block, core, tuple(used.index(t) for t in coupled), m)
    else:
        s, _ = subspace_from_columns(support.with_channels(symbol.rows), block)
    return s if core is cod else _TensoredSplit(s, cod, used)


def _times_monomial(columns: np.ndarray, core: TruncationGrid, coupled: tuple[int, ...],
                    m: tuple[int, ...]) -> SubspaceData:
    """The split of z_M^m times the span of the columns, the window columns
    of T on the grid of the coupled variables U, on the core grid of U and
    the monomial variables M.  coupled names the positions of U among the
    core's variables, and m holds m_t > 0 at the others and 0 at these.
    With no coupled variable T is the zero-variable Toeplitz matrix, the
    coefficient block C/q_0 itself (rows x cols), and U's grid is the
    channel space.

    On the box of M, the window columns of S^m (k_M <= caps_M - m) map one
    to one onto the coordinates {e_k : k_M >= m}, and the rest of the box
    is their complement.  So with B_S,U and B_Q,U the split of the columns
    (_with_complement, at the relative cut), S is spanned by
    B_S,U (x) {e_k : k_M >= m} and B_Q = [B_Q,U (x) I_M, B_S,U (x) {e_k : k_M not >= m}], its rows
    placed by the core grid's row map (TruncationGrid._tensor_rows), and
    discarded is the columns' times the number of window columns of S^m.
    Columns that split by index give a product of coordinates, so B_Q is
    the coordinates off S, as _with_complement's index split gives them:
    float64 0/1 columns in increasing row order, with no factorization; a
    scalar unimodular C/q_0 is such a column.  The columns enter as in
    subspace_from_columns: real data as float64, and a non-finite entry is
    refused.
    """
    columns = _as_data(columns)
    _check_finite(columns)
    rows = core._tensor_rows(coupled)
    # rows[0] places the monomial box at k_U = 0, in the order of the map's columns
    hit = np.all(core.exponents[rows[0] // core.channels] >= m, axis=1)
    window = int(np.count_nonzero(hit))
    inside = _coordinate_mask(columns)
    if inside is not None:
        placed = np.zeros(core.dim, dtype=bool)
        placed[rows[inside][:, hit]] = True
        return SubspaceData(core, _coordinates(~placed), (columns.shape[1] - int(inside.sum())) * window)
    b_s, b_q, dropped = _with_complement(columns, 0.0)
    complement = np.hstack([_tensored(b_q, rows, core.dim), _tensored(b_s, rows[:, ~hit], core.dim)])
    return SubspaceData(core, complement, dropped * window)


def origin_complement(grid: TruncationGrid) -> SubspaceData:
    """The functions vanishing at the origin, split by index: rank 0 is the
    origin in the graded order, so B_Q is the float64 0/1 coordinate
    columns of its grid.channels flat indices and Q is C^channels."""
    return SubspaceData(grid, _coordinates(np.arange(grid.dim) < grid.channels))


def parse_basis_text(text: str, grid: TruncationGrid) -> np.ndarray:
    """Rows of 2*dim floats (re im per basis coefficient, fixed basis order)."""
    vectors = []
    for lineno, line in content_lines(text):
        vectors.append(complex_row(fields(line), grid.dim, f"line {lineno}: row"))
    if not vectors:
        raise ValueError("no basis rows found")
    return np.stack(vectors, axis=0)


def invariance_defect(s: SubspaceData, margins: tuple[int, ...]) -> tuple[float, tuple]:
    """Windowed shift-invariance defect max_t ||W (P_S M_t P_S - M_t P_S) W||.

    margins, one per grid variable, must lie in 0..cap, since an empty
    window would pass every subspace.  P_S M_t P_S - M_t P_S = -B_Q V_t* with
    V_t = P_S M_t* B_Q (SubspaceData.shift_blocks, adjoint), so each
    norm is ||R_Q V_t[W]*|| for R_Q = norm_factor(B_Q[W]), as
    ||W B_Q X B_Q* W|| = ||R_Q X R_Q*||.  It is measured on the core, on the
    one window of the used variables' margins; a free variable f, whose V_f
    is 0, reads 0.0.  Returns (worst, per variable), cached on s per margins.
    """
    key = ("invariance", tuple(_integral(m, "margin") for m in margins))
    if key not in s._cache:
        margins, grid = key[1], s.grid
        if len(margins) != grid.nvars:
            raise ValueError(f"need {grid.nvars} margins, got {len(margins)}")
        if any(m < 0 for m in margins):
            raise ValueError(f"margins must be nonnegative, got {margins}")
        if any(m > c for m, c in zip(margins, grid.caps)):
            raise ValueError(f"margins {margins} leave an empty evaluation window")
        core, used = s.core, s.used
        window = core.grid.window_indices(tuple(margins[t] for t in used))
        r_q = norm_factor(core.complement[window])
        per = [0.0] * grid.nvars
        for a, t in enumerate(used):
            per[t] = spectral_norm(r_q @ core.shift_blocks(a, adjoint=True)[1][window].conj().T)
        s._cache[key] = (max(per), tuple(per))
    return s._cache[key]


def _invariance_gate(s: SubspaceData, margins) -> tuple[float, tuple]:
    """invariance_defect of S on margins (1 per variable when None), gated:
    InvarianceError above INVARIANCE_GATE, since the compressions only carry
    meaning for a submodule."""
    margins = (1,) * s.grid.nvars if margins is None else margins
    inv_max, inv_per = invariance_defect(s, margins)
    if inv_max > INVARIANCE_GATE:
        raise InvarianceError(f"subspace is not shift-invariant: windowed defect {inv_max:.3e} "
                              f"exceeds the gate {INVARIANCE_GATE:g}")
    return inv_max, inv_per
