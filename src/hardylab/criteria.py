"""Quotient-module compressions and the residual battery that probes them.

Given a shift-invariant subspace S of a truncated Hardy grid and its
complement Q, the compressed shifts C_t = P_Q M_t|_Q generate a family of
matrix identities.  Some hold for every split of the grid and act as
self-tests of the construction; others vanish exactly when Q is the
quotient of an inner multiplier and so serve as numerical criteria.

Everything is computed from the orthonormal basis B_Q of Q alone.  B_S and
B_Q come from one unitary, so P_S + P_Q = I, and with the shift powers M^k
applied as index maps of the grid (no dim x dim shift or projection is
multiplied) four kinds of thin blocks carry every residual:

    C_k = B_Q* M^k B_Q              the compressions (q x q)
    U_k = P_S M^k B_Q               the part of M^k Q that lands in S,
        = M^k B_Q - B_Q C_k         (dim x q), with Grams G_ab = U_a* U_b
    V_k = P_S M^k* B_Q              the part of M^k* Q that lands in S
        = M^k* B_Q - B_Q C_k*       (dim x q); P_Q M_t P_S = B_Q V_t* is
                                    what the invariance gate measures
    T_t = B_Q[top_t]                the rows of B_Q on the top slice k_t = cap_t

Each residual is an exact identity of the truncated matrices on the whole
grid, with no window.  The truncated shift satisfies M_t* M_t = I - E_t,
E_t the projection onto the top slice, so the defect D_t = I - C_t* C_t
splits exactly as

    D_t = G_tt + T_t* T_t,

the compression formula B_Q* M_t* P_S M_t B_Q plus the top-slice term.
Truncated shifts in different variables doubly commute exactly on the box
grid (M_i M^k* = M^k* M_i when k_i = 0), so with K = C_i C_k* - C_k* C_i

    K = G_ki - V_i* V_k,

and with R_t = B_S* M_t B_S the shifts restricted to S,

    B_S [R_j*, R_i] B_S* = U_i U_j* - V_j V_i*,

the cross term minus the leak term.  The Beurling quantities carry no
top-slice term: the defect product G_ii G_jj and the cross terms U_i U_j*.
Since ||B_Q X B_Q*|| = ||X||, every q x q residual is a plain spectral norm.
Only the invariance gate reads a window, the low-degree rows margins keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import TruncationGrid
from .operators import hermitian_norm, norm_factor, spectral_norm, unit_index
from .subspaces import RANK_TOL, InvarianceError, SubspaceData, invariance_defect

__all__ = [
    "QuotientData",
    "CriterionReport",
    "quotient_data",
    "beurling_criterion",
    "cross_commutator_criterion",
    "identity_suite",
    "douglas_factor",
    "psd_sqrt",
    "shift_power",
]

INVARIANCE_GATE = 5e-2


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
    however many detectors read them each is formed once per split.
    """

    s: SubspaceData
    q: SubspaceData
    compressions: tuple        # C_t = B_Q* M_t B_Q, one q x q block per variable
    invariance: float
    invariance_per_variable: tuple

    @property
    def grid(self) -> TruncationGrid:
        return self.s.grid

    def leak(self, k) -> np.ndarray:
        """U_k = P_S M^k B_Q = M^k B_Q - B_Q C_k (dim x q)."""
        return self.q.shift_blocks(k)[1]

    @cached_property
    def _grams(self) -> dict:
        return {}

    def gram(self, a, b) -> np.ndarray:
        """U_a* U_b = B_Q* M^a* P_S M^b B_Q, cached; (b, a) is the adjoint."""
        a, b = tuple(a), tuple(b)
        grams = self._grams
        if (a, b) not in grams:
            if (b, a) in grams:
                grams[(a, b)] = grams[(b, a)].conj().T
            else:
                grams[(a, b)] = self.leak(a).conj().T @ self.leak(b)
        return grams[(a, b)]

    @cached_property
    def defect_split(self) -> tuple:
        """G_tt + T_t* T_t per variable, the exact split of the defect D_t:
        the compression formula U_t* U_t plus the top-slice term of B_Q."""
        n, b = self.grid.nvars, self.q.basis
        split = []
        for t in range(n):
            e_t, top = unit_index(n, t), self.grid.top_slice_indices(t)
            split.append(self.gram(e_t, e_t) + b[top].conj().T @ b[top])
        return tuple(split)

    @cached_property
    def defect_blocks(self) -> tuple:
        """D_t = I - C_t* C_t in Q coordinates, one per variable."""
        return tuple(np.eye(self.q.rank) - c.conj().T @ c for c in self.compressions)

    @cached_property
    def defect_identity(self) -> float:
        """Worst deviation max_t ||D_t - G_tt - T_t* T_t|| of the defect split.

        The deviation is Hermitian, so its norm is its largest |eigenvalue|.
        """
        return max((hermitian_norm(d - g) for d, g in zip(self.defect_blocks, self.defect_split)),
                   default=0.0)

    @cached_property
    def defect_products(self) -> dict:
        """{(i, j): ||G_ii G_jj||} for i < j, the norm of the product of the
        compression formulas P_Q M_t* P_S M_t P_Q of the two defects."""
        e = [unit_index(self.grid.nvars, t) for t in range(self.grid.nvars)]
        return {(i, j): spectral_norm(self.gram(e[i], e[i]) @ self.gram(e[j], e[j]))
                for i in range(len(e)) for j in range(i + 1, len(e))}

    @cached_property
    def xij(self) -> float:
        """Worst norm of the cross terms P_S M_i P_Q M_j* P_S = U_i U_j*.

        U_t = W_t F_t with W_t column-orthonormal (norm_factor), so each norm
        is ||F_i F_j*||; the (j, i) term is the adjoint of the (i, j) one.
        """
        n = self.grid.nvars
        f = [norm_factor(self.leak(unit_index(n, t))) for t in range(n)]
        return max((spectral_norm(f[i] @ f[j].conj().T)
                    for i in range(n) for j in range(i + 1, n)), default=0.0)


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


def _invariance_gate(s: SubspaceData, margins) -> tuple[float, tuple]:
    """The windowed shift-invariance defect of S, gated: (worst, per variable).

    margins default to 1 per variable.  An empty window would pass every
    subspace, so it is an error; a defect above INVARIANCE_GATE raises
    InvarianceError, since the compressions only carry meaning for a
    submodule.  The defect is cached on S per margins (invariance_defect).
    """
    grid = s.grid
    margins = (1,) * grid.nvars if margins is None else tuple(int(m) for m in margins)
    if len(margins) != grid.nvars:
        raise ValueError(f"need {grid.nvars} margins, got {len(margins)}")
    if grid.window_indices(margins).size == 0:
        raise ValueError(f"margins {margins} leave an empty evaluation window")
    inv_max, inv_per = invariance_defect(s, margins)
    if inv_max > INVARIANCE_GATE:
        raise InvarianceError(
            f"subspace is not shift-invariant: windowed defect {inv_max:.3e} "
            f"exceeds the gate {INVARIANCE_GATE:g}"
        )
    return inv_max, inv_per


def quotient_data(s: SubspaceData, margins=None) -> QuotientData:
    """Split the grid along S and compress the shifts.

    S must first pass the invariance gate on the window of margins.  The
    defect blocks, their split, the defect products and the cross terms are
    formed on first use, once per split (QuotientData).
    """
    inv_max, inv_per = _invariance_gate(s, margins)
    n = s.grid.nvars
    q = s.complement_space
    compressions = tuple(q.shift_blocks(unit_index(n, t))[0] for t in range(n))
    for t, c in enumerate(compressions):
        if c.size and spectral_norm(c) > 1 + 1e-10:
            raise ValueError(f"compression {t} exceeds unit norm; subspace data is inconsistent")

    return QuotientData(
        s=s,
        q=q,
        compressions=compressions,
        invariance=inv_max,
        invariance_per_variable=tuple(inv_per),
    )


def beurling_criterion(data: QuotientData, tol: float = 1e-8) -> CriterionReport:
    """Product of defect operators: zero exactly for Beurling quotients.

    residual = max over pairs i < j of ||G_ii G_jj||, the product of the
    defects P_Q M_t* P_S M_t P_Q on the whole grid (QuotientData.defect_products).
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
    B_S [R_j*, R_i] B_S* = U_i U_j* - V_j V_i* exactly, so the norm is taken
    on the thin-QR factors of [U_i, -V_j] and [U_j, V_i] over all rows,
    read from the basis of Q alone.  The (j, i) commutator is the adjoint
    of the (i, j) one, so each unordered pair is measured once.  S passes
    the same invariance gate as in quotient_data first, on the window of
    margins.
    """
    _invariance_gate(s, margins)
    n = s.grid.nvars
    q = s.complement_space
    u = [q.shift_blocks(unit_index(n, t))[1] for t in range(n)]
    v = [q.shift_blocks(unit_index(n, t), adjoint=True)[1] for t in range(n)]
    norms = {}
    for i in range(n):
        for j in range(i + 1, n):
            left = norm_factor(np.hstack([u[i], -v[j]]))
            right = norm_factor(np.hstack([u[j], v[i]]))
            norms[(i, j)] = norms[(j, i)] = spectral_norm(left @ right.conj().T)
    residuals = {f"pair_{i}_{j}": norms[(i, j)] for i in range(n) for j in range(n) if i != j}
    worst = max(norms.values(), default=0.0)
    residuals["cross_commutator"] = worst
    return CriterionReport(
        name="cross_commutator",
        tolerance=tol,
        residuals=residuals,
        verdicts={"cross_commutator": worst <= tol},
    )


def _validate_hat(k, nvars: int, zero_at: int, label: str):
    k = tuple(int(x) for x in k)
    if len(k) != nvars:
        raise ValueError(f"{label} must have {nvars} entries, got {len(k)}")
    if any(x < 0 for x in k):
        raise ValueError(f"{label} entries must be non-negative")
    if k[zero_at] != 0:
        raise ValueError(f"{label} must have a zero entry at position {zero_at}")
    return k


def _hat_for(arg, var: int, default, nvars: int, label: str):
    """Resolve a user hat argument: None, one tuple for all, or {var: tuple}."""
    if arg is None:
        return default
    if isinstance(arg, dict):
        val = arg.get(var)
        if val is None:
            return default
    else:
        val = arg
    return _validate_hat(val, nvars, var, label)


def identity_suite(
    data: QuotientData,
    khat=None,
    lhat=None,
    tol: float = 1e-8,
) -> CriterionReport:
    """All compression identities for one subspace split, in one report.

    In Q coordinates, with K = C_i C_k* - C_k* C_i for k = khat, the Grams
    G_ab = U_a* U_b (QuotientData.gram), V_k = P_S M^k* B_Q, T_t = B_Q[top_t]
    and Z_t = M_t* U_t, every residual is a plain norm on the whole grid.

    Exact identities of the truncated matrices (hold for every split, enter
    the verdict):
      defect_identity      ||D_t - G_tt - T_t* T_t||, D_t = I - C_t* C_t
      commutator_identity  ||K - G_ki + V_i* V_k||
      reduces              ||Z_t - B_Q (G_tt + T_t* T_t) + I[:, top_t] T_t + V_t C_t||,
                           the adjoint of B_Q* X_t P_S + B_Q* E_t P_S + C_t* V_t*
                           for X_t = M_t* P_S M_t

    Holds for submodules (enters the verdict):
      defect_domination_min_eig    lambda_min(D_i - K* K)

    Conditional (zero exactly in the Beurling case, reported as data):
      xij                  cross terms P_S M_i P_Q M_j* P_S = U_i U_j*
      beurling_defect_product      ||G_ii G_jj||
      annihilation_1..3    ||G_ki G_jl||, ||G_ii G_jl||, ||G_ki G_jj||, entered in
                           the verdict only when the defect product is small

    khat and lhat default, for the ordered pair (i, j), to e_j and e_i.  A
    user value is one multi-index for every pair or a dict {variable:
    multi-index} (other variables keep the default); each must have a zero
    entry at the constrained position, and a dict key that names no
    variable is an error.  The defects, xij and the defect product are read
    from the cached members of data, which beurling_criterion shares.

    With the unit hats the (j, i) commutator residual is the adjoint of the
    (i, j) one, so its norm is taken once per unordered pair; the
    domination eigenvalue differs between the two orders and is taken for
    both.
    """
    n = data.grid.nvars
    for label, arg in (("khat", khat), ("lhat", lhat)):
        for key in arg if isinstance(arg, dict) else ():
            if key not in range(n):
                raise ValueError(f"{label} key {key!r} names no variable of {n}")
    q = data.q
    c_ops = data.compressions
    d = data.defect_blocks
    e = [unit_index(n, t) for t in range(n)]

    residuals: dict = {"defect_identity": data.defect_identity}
    verdicts: dict = {"defect_identity": data.defect_identity <= tol}

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    residuals["xij"] = data.xij

    khats = {(i, j): _hat_for(khat, i, e[j], n, "khat") for i, j in pairs}
    lhats = {(i, j): _hat_for(lhat, j, e[i], n, "lhat") for i, j in pairs}
    worst_comm = 0.0
    min_eig = np.inf if pairs else 0.0
    for i, j in pairs:
        k = khats[(i, j)]
        c_k = q.shift_blocks(k)[0]
        comm = c_ops[i] @ c_k.conj().T - c_k.conj().T @ c_ops[i]
        # with the unit hats the (j, i) residual is the adjoint of the
        # (i, j) one, so its norm is already counted
        if not (j < i and k == e[j] and khats[(j, i)] == e[i]):
            v_i, v_k = (q.shift_blocks(x, adjoint=True)[1] for x in (e[i], k))
            residual = comm - data.gram(k, e[i]) + v_i.conj().T @ v_k
            worst_comm = max(worst_comm, spectral_norm(residual))

        dom = d[i] - comm.conj().T @ comm
        min_eig = min(min_eig, float(np.linalg.eigvalsh(dom)[0]) if dom.size else 0.0)
    residuals["commutator_identity"] = worst_comm
    verdicts["commutator_identity"] = worst_comm <= tol
    residuals["defect_domination_min_eig"] = float(min_eig)
    verdicts["defect_domination_min_eig"] = min_eig >= -tol

    b = q.basis
    worst_reduce = 0.0
    for t in range(n):
        src, dst = data.grid.shift_map(e[t])
        block = np.zeros_like(b)
        block[src] = data.leak(e[t])[dst]                       # Z_t = M_t* U_t
        block -= b @ data.defect_split[t]
        block += q.shift_blocks(e[t], adjoint=True)[1] @ c_ops[t]
        top = data.grid.top_slice_indices(t)
        block[top] += b[top]
        # the thin-QR factor has the singular values of the tall block, and
        # a QR plus a q x q SVD costs less than an SVD of the block
        worst_reduce = max(worst_reduce, spectral_norm(norm_factor(block)))
    residuals["reduces"] = worst_reduce
    verdicts["reduces"] = worst_reduce <= tol

    worst_prod = max(data.defect_products.values(), default=0.0)
    residuals["beurling_defect_product"] = worst_prod

    if worst_prod <= tol:
        worst_ann = [0.0, 0.0, 0.0]
        norms: dict = {}
        for i, j in pairs:
            k, lh = khats[(i, j)], lhats[(i, j)]
            for idx, factors in enumerate(((k, e[i], e[j], lh), (e[i], e[i], e[j], lh),
                                           (k, e[i], e[j], e[j]))):
                # (U_a* U_b)(U_c* U_d) and its adjoint (U_d* U_c)(U_b* U_a)
                # share one norm, so each is measured once
                key = min(factors, factors[::-1])
                if key not in norms:
                    norms[key] = spectral_norm(data.gram(*key[:2]) @ data.gram(*key[2:]))
                worst_ann[idx] = max(worst_ann[idx], norms[key])
        for idx in range(3):
            key = f"annihilation_{idx + 1}"
            residuals[key] = worst_ann[idx]
            verdicts[key] = worst_ann[idx] <= tol

    return CriterionReport(
        name="identity_suite",
        tolerance=tol,
        residuals=residuals,
        verdicts=verdicts,
    )


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix, clamping at zero."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return a.copy()
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def douglas_factor(data: QuotientData, i: int, j: int):
    """Contraction X with [C_i, C_j*] = X D_{C_i}, realized by pseudo-inverse.

    Everything is in Q coordinates: with K = C_i C_j* - C_j* C_i and the
    defect D_i = defect_blocks[i] = V diag(w) V*, the eigenvalues w above
    RANK_TOL * max(w) are kept and X = K V diag(w^-1/2) V* on them, so X is
    K times the pseudo-inverse of D = psd_sqrt(D_i).  The cut is taken on w,
    not on its roots: a rounding-level eigenvalue near 1e-16 has a root near
    1e-8, which a cut on the roots would keep and amplify.  B_Q X B_Q* is
    the factor of the same identity for the compressions P_Q M_t P_Q on the
    whole grid, whose defect root B_Q D B_Q* has the nonzero spectrum of D.
    Returns (x, norm, reconstruction) where reconstruction is ||K - X D||.
    i and j must be two distinct variables, 0 <= i, j < nvars.  The
    domination inequality guarantees norm <= 1 up to rounding whenever the
    defect identity holds.
    """
    n = data.grid.nvars
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"variables {i}, {j} out of range for n={n}")
    if i == j:
        raise ValueError("need two distinct variables")
    c_i, c_j = data.compressions[i], data.compressions[j]
    comm = c_i @ c_j.conj().T - c_j.conj().T @ c_i
    defect = data.defect_blocks[i]
    w, v = np.linalg.eigh((defect + defect.conj().T) / 2)
    d = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T     # psd_sqrt(defect)
    kept = w > RANK_TOL * w.max(initial=0.0)
    x = comm @ (v[:, kept] / np.sqrt(w[kept])) @ v[:, kept].conj().T
    return x, spectral_norm(x), spectral_norm(comm - x @ d)
