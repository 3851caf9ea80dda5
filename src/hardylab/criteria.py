"""Quotient-module compressions and the residual battery that probes them.

Given a shift-invariant subspace S of a truncated Hardy grid and its
complement Q, the compressed shifts C_t = P_Q M_t|_Q generate a family of
matrix identities, taken one pair of variables (i, j) at a time.  Some
hold for every split of the grid and act as self-tests of the
construction; others vanish exactly when Q is the quotient of an inner
multiplier and so serve as numerical criteria.

Everything is computed from the orthonormal basis B_Q of Q alone, the one
basis a split holds (SubspaceData.complement): P_S = I - B_Q B_Q*, and with
the coordinate shifts M_t applied by TruncationGrid.shift (no dim x dim
shift or projection is multiplied) four kinds of thin blocks, one per
variable t, carry every residual:

    C_t = B_Q* M_t B_Q              the compressions (q x q), one product each
    U_t = P_S M_t B_Q               the part of M_t Q that lands in S,
        = M_t B_Q - B_Q C_t         (dim x q), with Grams G_ab = U_a* U_b
    V_t = P_S M_t* B_Q              the part of M_t* Q that lands in S
        = M_t* B_Q - B_Q C_t*       (dim x q); P_Q M_t P_S = B_Q V_t* is
                                    what the invariance gate measures
    T_t = B_Q[top_t]                the rows of B_Q on the top slice k_t = cap_t

Each residual is an exact identity of the truncated matrices on the whole
grid, with no window.  The truncated shift satisfies M_t* M_t = I - E_t,
E_t the projection onto the top slice, so the defect D_t = I - C_t* C_t
splits exactly as

    D_t = G_tt + T_t* T_t,

the compression formula B_Q* M_t* P_S M_t B_Q plus the top-slice term.
Truncated shifts in different variables doubly commute exactly on the box
grid (M_i M_j* = M_j* M_i for i != j), so with the commutator
K = C_i C_j* - C_j* C_i (QuotientData.commutator, the one place it is formed)

    K = G_ji - V_i* V_j,

and with R_t = B_S* M_t B_S the shifts restricted to S,

    B_S [R_j*, R_i] B_S* = U_i U_j* - V_j V_i*,

the cross term minus the leak term.  The Beurling quantities carry no
top-slice term: the defect product G_ii G_jj and the cross terms U_i U_j*.
The products of Grams that vanish with the cross terms, G_ji G_ji, G_ii G_ji
and G_ji G_jj, are U_a* (U_i U_j*) U_b with ||U_t|| <= 1, so each is at most
||U_i U_j*|| and none is reported apart from it.
Since ||B_Q X B_Q*|| = ||X||, every q x q residual is a plain spectral norm,
taken from a Gram of the formed residual (operators.spectral_norm).  A
product of two dim-row factors whose entries cancel, the cross term U_i U_j*
or the commutator U_i U_j* - V_j V_i*, is measured with one side factored:
||A B*|| = ||R_B A*|| with R_B the thin-QR factor of B (norm_factor), so a
Gram is only ever formed of a matrix that already exists.  A single tall
block such as the reduces residual cancels nothing and is measured as is.
Only the invariance gate of subspaces (_invariance_gate), which S passes
first, reads a window: the low-degree rows margins keep.

When the split is tensored from a core (SubspaceData.core),
Q = Q_U (x) H^2(F) for the free variables F, and every block above is
formed from the core's B_Q, indexed by core variable, and reported over
the grid's variables; only QuotientData.compressions is lifted to the
grid, on first read.  A pair of used variables reads the core's value.  A free variable f has C_f =
M_f (x) I, so U_f = V_f = 0, K = 0 for every pair with f, and
D_f = E_f (x) I with E_f the top slice of the free box: the residuals that
involve f are those exact tensor values (0.0, and in the domination term
lambda_min of the core's D_i or of D_f), not measured rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import TruncationGrid
from .operators import _lambda_min, hermitian_norm, norm_factor, shift_matrices, spectral_norm
from .subspaces import SubspaceData, _invariance_gate

__all__ = [
    "QuotientData",
    "CriterionReport",
    "quotient_data",
    "beurling_criterion",
    "cross_commutator_criterion",
    "identity_suite",
]


@dataclass(frozen=True)
class CriterionReport:
    name: str
    tolerance: float
    residuals: dict
    verdicts: dict = field(default_factory=dict)

    @property
    def verdict(self) -> bool:
        return all(self.verdicts.values())


@dataclass(frozen=True)
class QuotientData:
    """One subspace split S + Q and the blocks every detector reads.

    The members below the fields are computed on first use and cached, so
    however many detectors read them each is formed once per split.  Every
    block is formed from B_Q of the core of the split (SubspaceData.core)
    and indexed by core variable, which is grid variable s.used[t]; a split
    that is its own core reads its whole grid.  Only compressions is lifted
    to the grid, and only when read.
    """

    s: SubspaceData
    invariance: float
    invariance_per_variable: tuple

    @property
    def grid(self) -> TruncationGrid:
        return self.s.grid

    @cached_property
    def compressions(self) -> tuple:
        """C_t = B_Q* M_t B_Q on the grid, one q x q block per grid
        variable, lifted from the core's (_lifted_compressions)."""
        return _lifted_compressions(self.s)

    def leak(self, t: int) -> np.ndarray:
        """U_t = P_S M_t B_Q = M_t B_Q - B_Q C_t (dim x q) for core variable t."""
        return self.s.core.shift_blocks(t)[1]

    @cached_property
    def _grams(self) -> dict:
        return {}

    def gram(self, a: int, b: int) -> np.ndarray:
        """U_a* U_b = B_Q* M_a* P_S M_b B_Q, cached."""
        grams = self._grams
        if (a, b) not in grams:
            grams[(a, b)] = self.leak(a).conj().T @ self.leak(b)
        return grams[(a, b)]

    def commutator(self, i: int, j: int) -> np.ndarray:
        """K = C_i C_j* - C_j* C_i in Q coordinates; K for (j, i) is its adjoint."""
        c_i, c_j = (self.s.core.shift_blocks(t)[0] for t in (i, j))
        return c_i @ c_j.conj().T - c_j.conj().T @ c_i

    @cached_property
    def defect_split(self) -> tuple:
        """G_tt + T_t* T_t per core variable, the exact split of the defect
        D_t: the compression formula U_t* U_t plus the top-slice term of B_Q."""
        core = self.s.core
        split = []
        for t in range(core.grid.nvars):
            top = core.complement[core.grid.top_slice_indices(t)]
            split.append(self.gram(t, t) + top.conj().T @ top)
        return tuple(split)

    @cached_property
    def defect_blocks(self) -> tuple:
        """D_t = I - C_t* C_t in Q coordinates, one per core variable."""
        core = self.s.core
        return tuple(np.eye(core.complement.shape[1]) - c.conj().T @ c
                     for c in (core.shift_blocks(t)[0] for t in range(core.grid.nvars)))

    @cached_property
    def defect_identity(self) -> float:
        """Worst deviation max_t ||D_t - G_tt - T_t* T_t|| of the defect split.

        The deviation is Hermitian, so its norm is its largest |eigenvalue|.
        A free variable f has D_f = T_f* T_f and G_ff = 0 exactly, so the
        worst is the core's.
        """
        return max((hermitian_norm(d - g) for d, g in zip(self.defect_blocks, self.defect_split)),
                   default=0.0)

    @cached_property
    def defect_products(self) -> dict:
        """{(i, j): ||G_ii G_jj||} for grid variables i < j, the norm of the
        product of the compression formulas P_Q M_t* P_S M_t P_Q of the two
        defects; a pair with a free variable reads 0.0, since its G_ff is 0."""
        on_core = {(i, j): spectral_norm(self.gram(i, i) @ self.gram(j, j))
                   for i, j in _pairs(self.s.core.grid.nvars)}
        return _lifted(on_core, self.s.used, _pairs(self.grid.nvars))

    @cached_property
    def xij(self) -> float:
        """Worst norm of the cross terms P_S M_i P_Q M_j* P_S = U_i U_j*.

        U_j = W_j R_j with W_j column-orthonormal (norm_factor), so
        ||U_i U_j*|| = ||R_j U_i*||: only the right factor is factored, and
        only U_t for t >= 1 is ever one.  The (j, i) term is the adjoint of
        the (i, j) one.  U_f = 0 for a free variable f, so the worst is the
        core's.
        """
        n = self.s.core.grid.nvars
        r = {t: norm_factor(self.leak(t)) for t in range(1, n)}
        return max((spectral_norm(r[j] @ self.leak(i).conj().T) for i, j in _pairs(n)),
                   default=0.0)


def _pairs(n: int) -> list:
    """The unordered pairs (i, j), i < j, of n variables."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _lifted(values: dict, used: tuple, pairs) -> dict:
    """Values keyed by pairs of core variables, rekeyed by the given pairs
    of grid variables: a pair of used variables reads its core value, and
    a pair with a free variable reads 0.0."""
    at = {(used[a], used[b]): value for (a, b), value in values.items()}
    return {pair: at.get(pair, 0.0) for pair in pairs}


def _lifted_compressions(s: SubspaceData) -> tuple:
    """C_t on the grid from the compressions of the core of s, in the
    free-major column order of a tensored split: I (x) C_t for a used
    variable t and M_f (x) I for a free variable f, M_f the shift of the
    free box."""
    used, core = s.used, s.core
    compressions = [core.shift_blocks(t)[0] for t in range(core.grid.nvars)]
    free = [t for t in range(s.grid.nvars) if t not in used]
    if not free:
        return tuple(compressions)
    box = TruncationGrid(tuple(s.grid.caps[t] for t in free))
    shifts = shift_matrices(box)
    b_q = core.complement
    eye_box, eye_q = np.eye(box.dim), np.eye(b_q.shape[1], dtype=b_q.dtype)
    return tuple(np.kron(eye_box, compressions[used.index(t)]) if t in used
                 else np.kron(shifts[free.index(t)], eye_q)
                 for t in range(s.grid.nvars))


# not exported: hlbench/tracing.py traces it, and nothing in the package reads it
def shift_power(shifts, k) -> np.ndarray:
    """Product of commuting truncated shifts, one power per variable."""
    dim = shifts[0].shape[0]
    out = np.eye(dim, dtype=complex)
    for m, p in zip(shifts, k):
        if p < 0:
            raise ValueError("powers must be non-negative")
        for _ in range(int(p)):
            out = m @ out
    return out


def quotient_data(s: SubspaceData, margins=None) -> QuotientData:
    """Split the grid along S and compress the shifts.

    S must first pass the invariance gate on the window of margins.  The
    compressions are formed and guarded on the core; a free variable's
    compression M_f (x) I is a partial isometry.  The defect blocks, their
    split, the defect products, the cross terms and the compressions lifted
    to the grid are formed on first use, once per split (QuotientData).
    """
    inv_max, inv_per = _invariance_gate(s, margins)
    for t, used in enumerate(s.used):
        c = s.core.shift_blocks(t)[0]
        if c.size and spectral_norm(c) > 1 + 1e-10:
            raise ValueError(f"compression {used} exceeds unit norm; subspace data is inconsistent")

    return QuotientData(
        s=s,
        invariance=inv_max,
        invariance_per_variable=tuple(inv_per),
    )


def beurling_criterion(data: QuotientData, tol: float = 1e-8) -> CriterionReport:
    """Product of defect operators: zero exactly for Beurling quotients.

    residual = max over pairs i < j of ||G_ii G_jj||, the product of the
    defects P_Q M_t* P_S M_t P_Q, measured on the core and lifted over
    the free variables (QuotientData.defect_products).
    """
    products = data.defect_products
    residuals = {f"pair_{i}_{j}": val for (i, j), val in products.items()}
    worst = max(products.values(), default=0.0)
    residuals["beurling_defect_product"] = worst
    return CriterionReport(
        name="beurling",
        tolerance=tol,
        residuals=residuals,
        verdicts={"beurling_defect_product": worst <= tol},
    )


def cross_commutator_criterion(
    s: SubspaceData,
    margins=None,
    tol: float = 1e-8,
) -> CriterionReport:
    """Commutators [R_j*, R_i] of the restricted shifts.

    The restriction of each shift to the submodule S keeps the adjoint of
    one variable commuting with every other variable exactly when S comes
    from an inner multiplier; the residual is the worst pair.  On the grid
    B_S [R_j*, R_i] B_S* = U_i U_j* - V_j V_i* = [U_i, -V_j] [U_j, V_i]*
    exactly, read from the basis of Q alone.  With R the thin-QR factor of
    [U_j, V_i] over all rows (norm_factor), the norm is ||R [U_i, -V_j]*||:
    one QR per unordered pair, since the (j, i) commutator is the adjoint of
    the (i, j) one, so pair_i_j is reported for i < j only, as in
    beurling_criterion.  The norms are taken on the core: a pair with a
    free variable f reads 0.0, since U_f = V_f = 0.  S passes the same
    invariance gate as in quotient_data first, on the window of margins.
    """
    _invariance_gate(s, margins)
    core = s.core
    n = core.grid.nvars
    u = [core.shift_blocks(t)[1] for t in range(n)]
    v = [core.shift_blocks(t, adjoint=True)[1] for t in range(n)]
    norms = {}
    for i, j in _pairs(n):
        right = norm_factor(np.hstack([u[j], v[i]]))
        left = np.hstack([u[i], -v[j]])
        norms[(i, j)] = spectral_norm(right @ left.conj().T)
    residuals = {f"pair_{i}_{j}": value
                 for (i, j), value in _lifted(norms, s.used, _pairs(s.grid.nvars)).items()}
    worst = max(norms.values(), default=0.0)
    residuals["cross_commutator"] = worst
    return CriterionReport(
        name="cross_commutator",
        tolerance=tol,
        residuals=residuals,
        verdicts={"cross_commutator": worst <= tol},
    )


def identity_suite(data: QuotientData, tol: float = 1e-8) -> CriterionReport:
    """All compression identities for one subspace split, in one report.

    In Q coordinates, for each ordered pair (i, j) of distinct variables,
    with K = C_i C_j* - C_j* C_i, the Grams G_ab = U_a* U_b
    (QuotientData.gram), V_t = P_S M_t* B_Q, T_t = B_Q[top_t] and
    Z_t = M_t* U_t, every residual is a plain norm on the whole grid.

    Exact identities of the truncated matrices (hold for every split, enter
    the verdict):
      defect_identity      ||D_t - G_tt - T_t* T_t||, D_t = I - C_t* C_t
      commutator_identity  ||K - G_ji + V_i* V_j||
      reduces              ||Z_t - B_Q (G_tt + T_t* T_t) + I[:, top_t] T_t + V_t C_t||,
                           the adjoint of B_Q* X_t P_S + B_Q* E_t P_S + C_t* V_t*
                           for X_t = M_t* P_S M_t

    Holds for submodules (enters the verdict):
      defect_domination_min_eig    lambda_min(D_i - K* K)

    Conditional (zero exactly in the Beurling case, reported as data):
      xij                  cross terms P_S M_i P_Q M_j* P_S = U_i U_j*
      beurling_defect_product      ||G_ii G_jj||

    The products G_ji G_ji, G_ii G_ji and G_ji G_jj are not reported: each
    is at most xij (module docstring).

    The defects, xij and the defect product are read from the cached
    members of data, which beurling_criterion shares.  K is formed once per
    unordered pair (QuotientData.commutator), and the (j, i) commutator is
    K*: the commutator residual of (j, i) is the adjoint of the (i, j) one,
    so its norm is taken for i < j only, and the domination eigenvalue of
    (j, i) is lambda_min(D_j - K K*).  Every block of data is on the core,
    indexed by core variable; a pair (i, f) with a free variable f
    has K = 0, G_fi = 0 and V_f = 0, so its residuals read 0.0 and its
    domination terms are lambda_min of the core's D_i and
    lambda_min(D_f) = lambda_min(E_f (x) I): 1 when cap_f = 0, else 0, and
    0.0 when q = 0.
    """
    core = data.s.core
    n = core.grid.nvars
    d = data.defect_blocks

    residuals: dict = {"defect_identity": data.defect_identity}
    verdicts: dict = {"defect_identity": data.defect_identity <= tol}

    residuals["xij"] = data.xij

    worst_comm = 0.0
    domination = []
    for i, j in _pairs(n):
        comm = data.commutator(i, j)     # K for (j, i) is comm*
        v_i, v_j = (core.shift_blocks(t, adjoint=True)[1] for t in (i, j))
        residual = comm - data.gram(j, i) + v_i.conj().T @ v_j
        worst_comm = max(worst_comm, spectral_norm(residual))
        domination += [_lambda_min(d[i] - comm.conj().T @ comm),
                       _lambda_min(d[j] - comm @ comm.conj().T)]
    free = [t for t in range(data.grid.nvars) if t not in data.s.used]
    if free:
        # a pair (i, f) with f free has K = 0, and D_f = I (x) E_f, E_f the
        # top slice of the free box, has least eigenvalue 1 if cap_f = 0 else 0
        domination += [_lambda_min(d_i) for d_i in d]
        domination += [float(data.grid.caps[f] == 0) if core.complement.size else 0.0 for f in free]
    min_eig = min(domination, default=0.0)
    residuals["commutator_identity"] = worst_comm
    verdicts["commutator_identity"] = worst_comm <= tol
    residuals["defect_domination_min_eig"] = float(min_eig)
    verdicts["defect_domination_min_eig"] = min_eig >= -tol

    b = core.complement
    worst_reduce = 0.0
    for t in range(n):
        block = core.grid.shift(data.leak(t), t, adjoint=True)   # Z_t = M_t* U_t
        block -= b @ data.defect_split[t]
        block += core.shift_blocks(t, adjoint=True)[1] @ core.shift_blocks(t)[0]
        top = core.grid.top_slice_indices(t)
        block[top] += b[top]
        worst_reduce = max(worst_reduce, spectral_norm(block))
    residuals["reduces"] = worst_reduce
    verdicts["reduces"] = worst_reduce <= tol

    worst_prod = max(data.defect_products.values(), default=0.0)
    residuals["beurling_defect_product"] = worst_prod

    return CriterionReport(
        name="identity_suite",
        tolerance=tol,
        residuals=residuals,
        verdicts=verdicts,
    )
