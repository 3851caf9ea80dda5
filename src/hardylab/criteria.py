"""Quotient-module compressions and the residual battery that probes them.

Given a shift-invariant subspace S of a truncated Hardy grid and its
complement Q, the compressed shifts C_t = P_Q M_t|_Q generate a family of
matrix identities.  Some hold for every quotient module and act as
self-tests of the construction; others vanish exactly when Q is the
quotient of an inner multiplier and so serve as numerical criteria.

Everything is computed from the orthonormal basis B_Q of Q alone.  B_S and
B_Q come from one unitary, so P_S + P_Q = I, and with the shift powers M^k
applied as index maps of the grid (no dim x dim shift or projection is
multiplied) four kinds of thin blocks carry every residual:

    C_k = B_Q* M^k B_Q              the compressions (q x q)
    U_k = P_S M^k B_Q               the part of M^k Q that lands in S,
        = M^k B_Q - B_Q C_k         (dim x q)
    V_t = P_S M_t* B_Q              the part of M_t* Q that lands in S
        = M_t* B_Q - B_Q C_t*       (dim x q); P_Q M_t P_S = B_Q V_t* is
                                    what the invariance gate measures
    Z_t = M_t* U_t                  M_t* P_S M_t B_Q (dim x q)

Each identity becomes an exact statement about them: the defect
P_Q - Chat_t* Chat_t is B_Q (I - C_t* C_t) B_Q*, its compression formula
P_Q M_t* P_S M_t P_Q is B_Q U_t* U_t B_Q*, and the cross term
P_S M_i P_Q M_j* P_S is U_i U_j*.  Truncated shifts in two different
variables doubly commute exactly on the box grid (M_j* M_i = M_i M_j*), so
with T_t = B_S* M_t B_S the restricted-shift commutator is, exactly,

    B_S [T_j*, T_i] B_S* = U_i U_j* - V_j V_i*,

the cross term minus the leak term, a product of width-2q factors.

Every residual is measured through a core window W that keeps each degree
at least one step below the caps, because the top degree slice of a
truncated shift absorbs products that would leave the grid.  On the window
the truncated operators reproduce their infinite-dimensional algebra; the
one finite-size correction that survives is isolated in the identity

    P_Q - C_t* C_t = P_Q M_t* P_S M_t P_Q + P_Q E_t P_Q

with E_t the projection onto the top slice in variable t.  A windowed norm
||W B X B* W|| is the spectral norm of R X R*, with R the thin-QR factor of
the window rows of B (operators.norm_factor), so it is still a true
spectral norm but of a matrix no larger than the basis rank; a sum of
products such as W (U_i U_j* - V_j V_i*) W is taken the same way on the
factors of [U_i, -V_j][W] and [U_j, V_i][W].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import TruncationGrid
from .operators import (
    factored_norm,
    hermitian_norm,
    norm_factor,
    spectral_norm,
    unit_index,
)
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
    margins: tuple
    window: np.ndarray
    invariance: float
    invariance_per_variable: tuple

    @property
    def grid(self) -> TruncationGrid:
        return self.s.grid

    @property
    def q_factor(self) -> np.ndarray:
        """R with ||W B_Q X B_Q* W|| = ||R X R*||."""
        return self.q.window_factor(self.margins)

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
    def defect_blocks(self) -> tuple:
        """D_t = I - C_t* C_t in Q coordinates, one per variable."""
        return tuple(np.eye(self.q.rank) - c.conj().T @ c for c in self.compressions)

    @cached_property
    def defect_identity(self) -> float:
        """Worst windowed deviation of each defect from P_Q M_t* P_S M_t P_Q = B_Q U_t* U_t B_Q*.

        R (D_t - U_t* U_t) R* is Hermitian, so its norm is its largest |eigenvalue|.
        """
        n, r = self.grid.nvars, self.q_factor
        return max((hermitian_norm(r @ (d - self.gram(unit_index(n, t), unit_index(n, t))) @ r.conj().T)
                    for t, d in enumerate(self.defect_blocks)), default=0.0)

    @cached_property
    def defect_products(self) -> dict:
        """{(i, j): windowed norm of the defect product D_i D_j} for i < j."""
        d = self.defect_blocks
        n = self.grid.nvars
        return {(i, j): factored_norm(self.q_factor, d[i] @ d[j])
                for i in range(n) for j in range(i + 1, n)}

    @cached_property
    def xij(self) -> float:
        """Worst windowed norm of the cross terms P_S M_i P_Q M_j* P_S = U_i U_j*.

        The window rows of U_t factor as V R_t, so each norm is ||R_i R_j*||;
        the (j, i) term is the adjoint of the (i, j) one.
        """
        n = self.grid.nvars
        f = [norm_factor(self.leak(unit_index(n, t))[self.window]) for t in range(n)]
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


def _core_window(grid: TruncationGrid, margins) -> tuple[tuple, np.ndarray]:
    """Resolved margins (default 1 per variable) and their non-empty window.

    A residual measured on an empty window is 0 for every subspace, so an
    empty window is an error, not a pass.
    """
    if margins is None:
        margins = (1,) * grid.nvars
    margins = tuple(int(m) for m in margins)
    if len(margins) != grid.nvars:
        raise ValueError(f"need {grid.nvars} margins, got {len(margins)}")
    window = grid.window_indices(margins)
    if window.size == 0:
        raise ValueError(f"margins {margins} leave an empty evaluation window")
    return margins, window


def quotient_data(s: SubspaceData, margins=None) -> QuotientData:
    """Split the grid along S and compress the shifts.

    Raises InvarianceError when the windowed shift-invariance defect of S
    exceeds INVARIANCE_GATE, since the compressions only carry meaning for
    a submodule.  The defect blocks, their check against
    P_Q M_t* P_S M_t P_Q on the window, the defect products and the cross
    terms are formed on first use, once per split (QuotientData).
    """
    grid = s.grid
    margins, window = _core_window(grid, margins)

    inv_max, inv_per = invariance_defect(s, margins)
    if inv_max > INVARIANCE_GATE:
        raise InvarianceError(
            f"subspace is not shift-invariant: windowed defect {inv_max:.3e} "
            f"exceeds the gate {INVARIANCE_GATE:g}"
        )

    q = s.complement_space
    compressions = tuple(q.shift_blocks(unit_index(grid.nvars, t))[0] for t in range(grid.nvars))
    for t, c in enumerate(compressions):
        if c.size and spectral_norm(c) > 1 + 1e-10:
            raise ValueError(f"compression {t} exceeds unit norm; subspace data is inconsistent")

    return QuotientData(
        s=s,
        q=q,
        compressions=compressions,
        margins=margins,
        window=window,
        invariance=inv_max,
        invariance_per_variable=tuple(inv_per),
    )


def beurling_criterion(data: QuotientData, tol: float = 1e-8) -> CriterionReport:
    """Product of defect operators: zero exactly for Beurling quotients.

    residual = max over pairs i < j of the windowed norm of
    (I_Q - C_i*C_i)(I_Q - C_j*C_j).
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
    """Commutators [R_j*, R_i] of the restricted shifts, windowed.

    The restriction of each shift to the submodule S keeps the adjoint of
    one variable commuting with every other variable exactly when S comes
    from an inner multiplier; the residual is the worst pair.  On the grid
    B_S [R_j*, R_i] B_S* = U_i U_j* - V_j V_i* exactly, so the norm is taken
    on the factors of [U_i, -V_j][W] and [U_j, V_i][W], read from the basis
    of Q alone.  The (j, i) commutator is the adjoint of the (i, j) one, so
    each unordered pair is measured once.  Margins that leave an empty
    window raise ValueError, as in quotient_data.
    """
    grid = s.grid
    n = grid.nvars
    margins, window = _core_window(grid, margins)
    q = s.complement_space
    u = [q.shift_blocks(unit_index(n, t))[1][window] for t in range(n)]
    v = [q.shift_blocks(unit_index(n, t), adjoint=True)[1][window] for t in range(n)]
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

    Unconditional (hold for every submodule, enter the verdict):
      defect_identity      windowed defect formula deviation
      commutator_identity  [C_i, C^{*khat}] vs P_Q M^{*khat} P_S M_i P_Q
      reduces              commutation of P_Q with M_t* P_S M_t
      defect_domination_min_eig
                           smallest windowed eigenvalue of
                           D_i^2 - [C_i, C^{*khat}]*[C_i, C^{*khat}]

    Conditional (zero exactly in the Beurling case, reported as data):
      xij                  cross terms P_S M_i P_Q M_j* P_S
      beurling_defect_product
      annihilation_1..3    the three vanishing products, entered in the
                           verdict only when the defect product is small

    khat and lhat default, for the ordered pair (i, j), to the unit
    multi-indices e_j and e_i; a user-supplied value is used for every
    pair and must have a zero entry at the constrained position.  The
    defects, xij and the defect product are read from the cached members
    of data, which beurling_criterion shares.

    In Q coordinates, with K = C_i C_k* - C_k* C_i and the Grams
    U_a* U_b (QuotientData.gram):
      commutator_identity  K - U_k* U_i
      defect_domination    D_i - K* K
      reduces              B_Q Z_t* - Z_t B_Q* = P_Q X_t - X_t P_Q for
                           X_t = M_t* P_S M_t, on the factor of [B_Q, Z_t][W]
      annihilation_1..3    (U_k* U_i)(U_j* U_l), (U_i* U_i)(U_j* U_l),
                           (U_k* U_i)(U_j* U_j)

    With the unit hats the (j, i) commutator residual is the adjoint of the
    (i, j) one, so its norm is taken once per unordered pair; the
    domination eigenvalue differs between the two orders and is taken for
    both.  The defect and reduces residuals are Hermitian (reduces after a
    factor i), so their norms are largest |eigenvalues|.
    """
    n = data.grid.nvars
    r_q = data.q_factor
    c_ops = data.compressions
    d = data.defect_blocks
    e = [unit_index(n, t) for t in range(n)]

    residuals: dict = {"defect_identity": data.defect_identity}
    verdicts: dict = {"defect_identity": data.defect_identity <= tol}

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    residuals["xij"] = data.xij

    khats = {(i, j): _hat_for(khat, i, e[j], n, "khat") for i, j in pairs}
    worst_comm = 0.0
    min_eig = np.inf if pairs else 0.0
    for i, j in pairs:
        c_k = data.q.shift_blocks(khats[(i, j)])[0]
        comm = c_ops[i] @ c_k.conj().T - c_k.conj().T @ c_ops[i]
        # with the unit hats the (j, i) residual is the adjoint of the
        # (i, j) one, so its norm is already counted
        if not (j < i and khats[(i, j)] == e[j] and khats[(j, i)] == e[i]):
            worst_comm = max(worst_comm, factored_norm(r_q, comm - data.gram(khats[(i, j)], e[i])))

        dom = r_q @ (d[i] - comm.conj().T @ comm) @ r_q.conj().T
        eig = float(np.linalg.eigvalsh(dom)[0]) if dom.size else np.inf
        if r_q.shape[0] < len(data.window):
            eig = min(eig, 0.0)  # the window rows outside range(R) add exact zeros
        min_eig = min(min_eig, eig)
    residuals["commutator_identity"] = worst_comm
    verdicts["commutator_identity"] = worst_comm <= tol
    residuals["defect_domination_min_eig"] = float(min_eig) if pairs else 0.0
    verdicts["defect_domination_min_eig"] = residuals["defect_domination_min_eig"] >= -tol

    b_w = data.q.basis[data.window]
    rank = data.q.rank
    worst_reduce = 0.0
    for t in range(n):
        src, dst = data.grid.shift_map(e[t])
        z = np.zeros_like(data.q.basis)
        z[src] = data.leak(e[t])[dst]
        f = norm_factor(np.hstack([b_w, z[data.window]]))
        half = f[:, :rank] @ f[:, rank:].conj().T
        # half - half* is anti-Hermitian, so i (half - half*) is Hermitian
        half -= half.conj().T
        half *= 1j
        worst_reduce = max(worst_reduce, hermitian_norm(half))
    residuals["reduces"] = worst_reduce
    verdicts["reduces"] = worst_reduce <= tol

    worst_prod = max(data.defect_products.values(), default=0.0)
    residuals["beurling_defect_product"] = worst_prod

    if worst_prod <= tol:
        worst_ann = [0.0, 0.0, 0.0]
        norms: dict = {}
        for i, j in pairs:
            k, lh = khats[(i, j)], _hat_for(lhat, j, e[i], n, "lhat")
            for idx, factors in enumerate(((k, e[i], e[j], lh), (e[i], e[i], e[j], lh),
                                           (k, e[i], e[j], e[j]))):
                # (U_a* U_b)(U_c* U_d) and its adjoint (U_d* U_c)(U_b* U_a)
                # share one norm, so each is measured once
                key = min(factors, factors[::-1])
                if key not in norms:
                    norms[key] = factored_norm(r_q, data.gram(*key[:2]) @ data.gram(*key[2:]))
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
    Returns (x, norm, reconstruction) where reconstruction is the windowed
    norm of B_Q (K - X D) B_Q*.  The domination inequality guarantees
    norm <= 1 up to rounding whenever the defect identity holds.
    """
    if i == j:
        raise ValueError("need two distinct variables")
    c_i, c_j = data.compressions[i], data.compressions[j]
    comm = c_i @ c_j.conj().T - c_j.conj().T @ c_i
    defect = data.defect_blocks[i]
    w, v = np.linalg.eigh((defect + defect.conj().T) / 2)
    d = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T     # psd_sqrt(defect)
    kept = w > RANK_TOL * w.max(initial=0.0)
    x = comm @ (v[:, kept] / np.sqrt(w[kept])) @ v[:, kept].conj().T
    return x, spectral_norm(x), factored_norm(data.q_factor, comm - x @ d)
