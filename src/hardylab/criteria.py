"""Quotient-module compressions and the residual battery that probes them.

Given a shift-invariant subspace S of a truncated Hardy grid and its
complement Q, the compressed shifts C_t = P_Q M_t P_Q generate a family of
matrix identities.  Some hold for every quotient module and act as
self-tests of the construction; others vanish exactly when Q is the
quotient of an inner multiplier and so serve as numerical criteria.

Every residual is measured through a core window that keeps each degree at
least one step below the caps, because the top degree slice of a truncated
shift absorbs products that would leave the grid.  On the window the
truncated operators reproduce their infinite-dimensional algebra; the one
finite-size correction that survives is isolated in the identity

    P_Q - C_t* C_t = P_Q M_t* P_S M_t P_Q + P_Q E_t P_Q

with E_t the projection onto the top slice in variable t.  That identity is
exact for an arbitrary subspace and is used as a structural check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .grids import TruncationGrid
from .operators import shift_matrices, spectral_norm, windowed_norm
from .subspaces import InvarianceError, SubspaceData, invariance_defect

__all__ = [
    "CompressionTuple",
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
class CompressionTuple:
    """Compressed and extended shifts for one subspace split.

    operators[t] acts on the Q coordinates, extended[t] = P_Q M_t P_Q acts
    on the whole grid.
    """

    operators: tuple
    extended: tuple


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
    """One subspace split S + Q and the operators every detector reads.

    The members below the fields are computed on first use and cached, so
    however many detectors read them each is formed once per split.
    """

    s: SubspaceData
    q: SubspaceData
    compressions: CompressionTuple
    shifts: tuple              # truncated shifts on the full grid
    margins: tuple
    window: np.ndarray
    invariance: float
    invariance_per_variable: tuple

    @property
    def grid(self) -> TruncationGrid:
        return self.s.grid

    @cached_property
    def extended_defects(self) -> tuple:
        """P_Q - Chat_t* Chat_t on the whole grid, one per variable."""
        p_q = self.q.projection
        return tuple(p_q - c.conj().T @ c for c in self.compressions.extended)

    @cached_property
    def defect_identity(self) -> float:
        """Worst windowed deviation of each extended defect from P_Q M_t* P_S M_t P_Q."""
        p_s, p_q = self.s.projection, self.q.projection
        return max((windowed_norm(d - p_q @ m.conj().T @ p_s @ m @ p_q, self.window)
                    for d, m in zip(self.extended_defects, self.shifts)), default=0.0)

    @cached_property
    def defect_products(self) -> dict:
        """{(i, j): windowed norm of the defect product D_i D_j} for i < j."""
        d = self.extended_defects
        n = self.grid.nvars
        return {(i, j): windowed_norm(d[i] @ d[j], self.window)
                for i in range(n) for j in range(i + 1, n)}

    @cached_property
    def cross_terms(self) -> dict:
        """{(i, j): P_S M_i P_Q M_j* P_S} for every ordered pair i != j."""
        p_s, p_q, mats = self.s.projection, self.q.projection, self.shifts
        n = self.grid.nvars
        return {(i, j): p_s @ mats[i] @ p_q @ mats[j].conj().T @ p_s
                for i in range(n) for j in range(n) if i != j}

    @cached_property
    def xij(self) -> float:
        """Worst windowed norm of the cross terms."""
        return max((windowed_norm(x, self.window) for x in self.cross_terms.values()),
                   default=0.0)


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


def _resolve_margins(grid: TruncationGrid, margins) -> tuple:
    if margins is None:
        margins = (1,) * grid.nvars
    margins = tuple(int(m) for m in margins)
    if len(margins) != grid.nvars:
        raise ValueError(f"need {grid.nvars} margins, got {len(margins)}")
    return margins


def quotient_data(
    s: SubspaceData,
    margins=None,
    invariance_gate: float = INVARIANCE_GATE,
) -> QuotientData:
    """Split the grid along S and compress the shifts.

    Raises InvarianceError when S fails the windowed shift-invariance gate,
    since the compressions only carry meaning for a submodule.  The defect
    matrices P_Q - Chat_t*Chat_t and their check against P_Q M_t* P_S M_t P_Q
    on the window are formed on first use, once per split (QuotientData).
    """
    grid = s.grid
    margins = _resolve_margins(grid, margins)
    window = grid.window_indices(margins)
    if window.size == 0:
        raise ValueError(f"margins {margins} leave an empty evaluation window")
    mats = tuple(shift_matrices(grid))

    inv_max, inv_per = invariance_defect(s, margins, list(mats))
    if inv_max > invariance_gate:
        raise InvarianceError(
            f"subspace is not shift-invariant: windowed defect {inv_max:.3e} "
            f"exceeds the gate {invariance_gate:g}"
        )

    p_s = s.projection
    p_q = np.eye(grid.dim, dtype=complex) - p_s
    q = SubspaceData(grid, s.complement, p_q, s.basis)

    extended = tuple(p_q @ m @ p_q for m in mats)
    operators = tuple(q.basis.conj().T @ m @ q.basis for m in mats)

    for t, c in enumerate(operators):
        if c.size and spectral_norm(c) > 1 + 1e-10:
            raise ValueError(f"compression {t} exceeds unit norm; subspace data is inconsistent")

    return QuotientData(
        s=s,
        q=q,
        compressions=CompressionTuple(operators, extended),
        shifts=mats,
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
    from an inner multiplier; the residual is the worst pair.
    """
    grid = s.grid
    margins = _resolve_margins(grid, margins)
    window = grid.window_indices(margins)
    mats = shift_matrices(grid)
    b = s.basis
    r = [b.conj().T @ m @ b for m in mats]
    residuals = {}
    worst = 0.0
    for i in range(grid.nvars):
        for j in range(grid.nvars):
            if i == j:
                continue
            comm = r[j].conj().T @ r[i] - r[i] @ r[j].conj().T
            val = windowed_norm(b @ comm @ b.conj().T, window)
            residuals[f"pair_{i}_{j}"] = val
            worst = max(worst, val)
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
    """
    n = data.grid.nvars
    window = data.window
    p_s = data.s.projection
    p_q = data.q.projection
    mats = data.shifts
    dhat = data.extended_defects

    residuals: dict = {"defect_identity": data.defect_identity}
    verdicts: dict = {"defect_identity": data.defect_identity <= tol}

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    residuals["xij"] = data.xij

    power = cache(partial(shift_power, mats))  # one product per distinct multi-index

    khats = {(i, j): _hat_for(khat, i, tuple(1 if t == j else 0 for t in range(n)), n, "khat")
             for i, j in pairs}
    worst_comm = 0.0
    min_eig = np.inf if pairs else 0.0
    for i, j in pairs:
        mk = power(khats[(i, j)])
        chat_i = data.compressions.extended[i]
        chat_k = p_q @ mk @ p_q
        comm = chat_i @ chat_k.conj().T - chat_k.conj().T @ chat_i
        rhs = p_q @ mk.conj().T @ p_s @ mats[i] @ p_q
        worst_comm = max(worst_comm, windowed_norm(comm - rhs, window))

        dom = dhat[i] - comm.conj().T @ comm
        sub = dom[np.ix_(window, window)]
        if sub.size:
            min_eig = min(min_eig, float(np.linalg.eigvalsh(sub)[0]))
        else:
            min_eig = min(min_eig, 0.0)
    residuals["commutator_identity"] = worst_comm
    verdicts["commutator_identity"] = worst_comm <= tol
    residuals["defect_domination_min_eig"] = float(min_eig) if pairs else 0.0
    verdicts["defect_domination_min_eig"] = residuals["defect_domination_min_eig"] >= -tol

    worst_reduce = 0.0
    for t in range(n):
        k_t = mats[t].conj().T @ p_s @ mats[t]
        worst_reduce = max(worst_reduce, windowed_norm(p_q @ k_t - k_t @ p_q, window))
    residuals["reduces"] = worst_reduce
    verdicts["reduces"] = worst_reduce <= tol

    worst_prod = max(data.defect_products.values(), default=0.0)
    residuals["beurling_defect_product"] = worst_prod

    if worst_prod <= tol:
        worst_ann = [0.0, 0.0, 0.0]
        for i, j in pairs:
            lh = _hat_for(lhat, j, tuple(1 if t == i else 0 for t in range(n)), n, "lhat")
            mk = power(khats[(i, j)])
            ml = power(lh)
            x = data.cross_terms[(i, j)]
            prods = (
                p_q @ mk.conj().T @ x @ ml @ p_q,
                p_q @ mats[i].conj().T @ x @ ml @ p_q,
                p_q @ mk.conj().T @ x @ mats[j] @ p_q,
            )
            for idx, prod in enumerate(prods):
                worst_ann[idx] = max(worst_ann[idx], windowed_norm(prod, window))
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


def douglas_factor(data: QuotientData, i: int, j: int, rcond: float = 1e-10):
    """Contraction X with [C_i, C_j*] = X D_{C_i}, realized by pseudo-inverse.

    Returns (x, norm, reconstruction) where reconstruction is the windowed
    norm of [C_i, C_j*] - X D_{C_i}.  The domination inequality guarantees
    norm <= 1 up to rounding whenever the defect identity holds.
    """
    if i == j:
        raise ValueError("need two distinct variables")
    chat_i = data.compressions.extended[i]
    chat_j = data.compressions.extended[j]
    comm = chat_i @ chat_j.conj().T - chat_j.conj().T @ chat_i
    d = psd_sqrt(data.extended_defects[i])
    x = comm @ np.linalg.pinv(d, rcond=rcond, hermitian=True)
    recon = windowed_norm(comm - x @ d, data.window)
    return x, spectral_norm(x), recon
