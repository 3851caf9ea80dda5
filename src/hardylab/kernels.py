"""Reproducing kernels of the polydisc and one instructive rational symbol.

The Szego kernel of the polydisc reproduces point evaluation on the Hardy
grid; dropping its constant term gives the kernel of the subspace of
functions vanishing at the origin.  On the bidisc that reduced kernel
factors through the Szego kernel as

    S(z, w) - 1 = (z1 (1 - z2 conj(w2)) conj(w1) + z2 conj(w2)) * S(z, w)

and the scalar factor in front, taken as a kernel in its own right, fails
to be positive definite.  A seeded search produces a small Gram-matrix
certificate of that failure.

The rational symbol phi = (2 z1 z2 - z1 - z2) / (2 - z1 - z2) is inner on
the bidisc and vanishes at the origin, so its submodule sits strictly
between the vanishing-at-origin subspace and the whole grid; the quotient
by the vanishing-at-origin subspace fails the defect-product test with
residual exactly one.  reduced_kernel_suite packages all of those checks
into one report, sampled at the fixed KERNEL_CAPS, SAMPLE_PAIRS,
PAIR_RADIUS and GRAM_BUDGET; the witness's innerness is certified from its
coefficients (operators.innerness_check), where it reads exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import beurling_criterion, quotient_data
from .grids import TruncationGrid
from .operators import _lambda_min, spectral_norm
from .subspaces import _innerness_gate, _toeplitz_split, origin_complement
from .symbols import AnalyticSymbol

__all__ = [
    "szego_kernel",
    "reduced_szego_kernel",
    "kernel_factor",
    "kernel_sum_oracle",
    "gram_matrix",
    "GramWitness",
    "gram_negativity_search",
    "rational_inner_witness",
    "reduced_kernel_suite",
]


GRAM_RADIUS = 0.9
GRAM_SIZES = (2, 3, 4)
GRAM_THRESHOLD = -1e-6
WITNESS_INNER_TOL = 1e-10
INCLUSION_CAPS = (6, 6)
KERNEL_CAPS = (20, 20)
SAMPLE_PAIRS = 20
PAIR_RADIUS = 0.6
GRAM_BUDGET = 64


def _check_interior(z, label: str):
    z = tuple(complex(v) for v in z)
    for i, v in enumerate(z):
        if not abs(v) < 1:
            raise ValueError(f"{label}[{i}] = {v} is not inside the open polydisc")
    return z


def szego_kernel(z, w) -> complex:
    """prod_i 1 / (1 - z_i conj(w_i)) for points of the open polydisc."""
    z = _check_interior(z, "z")
    w = _check_interior(w, "w")
    if len(z) != len(w):
        raise ValueError("points must have the same number of coordinates")
    out = 1.0 + 0j
    for zi, wi in zip(z, w):
        out /= 1 - zi * np.conj(wi)
    return complex(out)


def kernel_factor(z, w) -> complex:
    """The bidisc factor z1 (1 - z2 conj(w2)) conj(w1) + z2 conj(w2)."""
    z = _check_interior(z, "z")
    w = _check_interior(w, "w")
    if len(z) != 2 or len(w) != 2:
        raise ValueError("the factored form is specific to two variables")
    w1, w2 = np.conj(w[0]), np.conj(w[1])
    return complex(z[0] * (1 - z[1] * w2) * w1 + z[1] * w2)


def reduced_szego_kernel(z, w) -> complex:
    """Kernel of the functions vanishing at the origin, in factored form."""
    return complex(kernel_factor(z, w) * szego_kernel(z, w))


def kernel_sum_oracle(z, w, caps) -> complex:
    """Direct basis sum over all nonzero multi-indices within the caps.

    Every term prod_i (z_i conj(w_i))^(k_i) is formed, as the outer product
    of the per-variable power vectors, and all but the constant term are
    summed; it is the reference reduced_szego_kernel is checked against,
    not its closed form.
    """
    z = _check_interior(z, "z")
    w = _check_interior(w, "w")
    caps = tuple(int(c) for c in caps)
    if not len(z) == len(w) == len(caps):
        raise ValueError(
            f"z, w and caps must have the same length, got {len(z)}, {len(w)} and {len(caps)}"
        )
    if any(c < 0 for c in caps):
        raise ValueError(f"caps must be nonnegative, got {caps}")
    terms = np.ones((), dtype=complex)
    for zi, wi, ci in zip(z, w, caps):
        terms = np.multiply.outer(terms, (zi * np.conj(wi)) ** np.arange(ci + 1))
    return complex(terms.ravel()[1:].sum())


def gram_matrix(points) -> np.ndarray:
    """Hermitian Gram matrix of the bidisc factor over a finite point set."""
    pts = [_check_interior(p, f"points[{i}]") for i, p in enumerate(points)]
    if any(len(p) != 2 for p in pts):
        raise ValueError("the factored form is specific to two variables")
    return _gram(np.array(pts, dtype=complex).reshape(-1, 2))


def _gram(p: np.ndarray) -> np.ndarray:
    """gram_matrix of the rows of a (size, 2) complex array, unchecked."""
    z1, z2 = p[:, :1], p[:, 1:]
    w1, w2 = np.conj(p[:, 0]), np.conj(p[:, 1])
    # entry (a, b) is kernel_factor(points[a], points[b])
    g = z1 * (1 - z2 * w2) * w1 + z2 * w2
    return (g + g.conj().T) / 2


@dataclass(frozen=True)
class GramWitness:
    found: bool
    min_eigenvalue: float
    points: tuple            # the point set attaining the minimum
    matrix: np.ndarray
    candidates: int


def gram_negativity_search(seed: int = 0) -> GramWitness:
    """Seeded search for a Gram matrix of the factor with a negative eigenvalue.

    Each of the GRAM_BUDGET candidates is a set of GRAM_SIZES points in the
    polydisc of radius GRAM_RADIUS, drawn from its own generator seeded by
    (seed, index), and a least eigenvalue below GRAM_THRESHOLD is a witness.
    All candidates are evaluated and the best witness is returned; not
    finding one within the budget is reported as found=False, never as a
    verdict that the kernel is positive.
    """
    best = (np.inf, None, None)
    for idx in range(GRAM_BUDGET):
        rng = np.random.default_rng([int(seed), idx])
        size = int(rng.choice(np.asarray(GRAM_SIZES)))
        rad = GRAM_RADIUS * np.sqrt(rng.uniform(size=(size, 2)))
        ang = rng.uniform(0.0, 2 * np.pi, size=(size, 2))
        pts = rad * np.exp(1j * ang)
        g = _gram(pts)
        low = _lambda_min(g)
        if low < best[0]:
            best = (low, pts, g)
    low, pts, g = best
    return GramWitness(
        found=bool(low < GRAM_THRESHOLD),
        min_eigenvalue=low,
        points=tuple(tuple(row) for row in pts),
        matrix=g,
        candidates=GRAM_BUDGET,
    )


def rational_inner_witness() -> AnalyticSymbol:
    """(2 z1 z2 - z1 - z2) / (2 - z1 - z2): inner, vanishing at the origin."""
    one = np.array([[1.0 + 0j]])
    numerator = {(1, 1): 2 * one, (1, 0): -one, (0, 1): -one}
    denominator = {(0, 0): 2.0, (1, 0): -1.0, (0, 1): -1.0}
    return AnalyticSymbol.rational(numerator, denominator, nvars=2)


def reduced_kernel_suite(caps=KERNEL_CAPS, seed: int = 0, tol: float = 1e-8) -> dict:
    """Kernel identity, Gram negativity, and the inner-witness checks.

    The kernel identity is checked at caps on SAMPLE_PAIRS pairs (z, w) of
    interior points drawn from seed within PAIR_RADIUS, and the Gram search
    draws GRAM_BUDGET candidates from seed.  The witness symbol N/q vanishes
    at the origin exactly when the constant coefficient of N does, since
    every AnalyticSymbol has q(0) != 0, so that coefficient is the one
    reading.  Its innerness deviation is computed once: it gates the split
    at tol and gives the verdict at WITNESS_INNER_TOL.  The inclusions and
    the constants quotient are built at INCLUSION_CAPS.
    Returns every value as computed, complex points and arrays included; a
    Report converts them to JSON.
    """
    caps = tuple(int(c) for c in caps)
    rng = np.random.default_rng(int(seed))
    worst_dev = 0.0
    for _ in range(SAMPLE_PAIRS):
        rad = PAIR_RADIUS * np.sqrt(rng.uniform(size=(2, 2)))
        ang = rng.uniform(0.0, 2 * np.pi, size=(2, 2))
        z, w = (tuple(point) for point in rad * np.exp(1j * ang))
        worst_dev = max(worst_dev, abs(reduced_szego_kernel(z, w) - kernel_sum_oracle(z, w, caps)))

    witness = gram_negativity_search(seed=seed)

    phi = rational_inner_witness()
    origin_coeff = phi.numerator.get((0, 0))
    numerator_origin = 0.0 if origin_coeff is None else float(np.abs(origin_coeff).max())
    inner = _innerness_gate(phi, tol)

    small = TruncationGrid(INCLUSION_CAPS)
    s_phi = _toeplitz_split(phi, small)
    s_origin = origin_complement(small)
    # ||(I - P_origin) B_phi|| = ||B_origin_c* B_phi||
    inclusion_residual = spectral_norm(s_origin.complement.conj().T @ s_phi.basis)
    ranks = (s_phi.rank, s_origin.rank, small.dim)
    strict = ranks[0] < ranks[1] < ranks[2] and inclusion_residual <= tol

    data = quotient_data(s_origin, margins=(1, 1))
    beurling = beurling_criterion(data, tol=tol)
    constants_residual = beurling.residuals["beurling_defect_product"]

    verdicts = {
        "kernel_identity": worst_dev <= tol,
        "gram_negative": witness.found,
        "witness_vanishes_at_origin": numerator_origin == 0.0,
        "witness_inner": inner <= WITNESS_INNER_TOL,
        "strict_inclusions": strict,
        "constants_quotient_fails": not beurling.verdict,
    }
    return {
        "kernel": {
            "max_deviation": worst_dev,
            "pairs": SAMPLE_PAIRS,
            "caps": caps,
            "pair_radius": PAIR_RADIUS,
        },
        "gram": {
            "found": witness.found,
            "min_eigenvalue": witness.min_eigenvalue,
            "points": witness.points,
            "matrix": witness.matrix,
            "candidates": witness.candidates,
            "inconclusive": not witness.found,
        },
        "witness_symbol": {
            "numerator_origin_coefficient": numerator_origin,
            "inner_deviation": inner,
        },
        "inclusions": {
            "rank_symbol_submodule": ranks[0],
            "rank_vanishing_at_origin": ranks[1],
            "rank_full": ranks[2],
            "inclusion_residual": inclusion_residual,
            "caps": small.caps,
        },
        "constants_quotient": {
            "beurling_residual": constants_residual,
        },
        "verdicts": verdicts,
    }
