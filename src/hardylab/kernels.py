"""Reproducing kernels of the polydisc and one instructive rational symbol.

The Szego kernel of the polydisc reproduces point evaluation on the Hardy
grid; dropping its constant term gives the kernel of the subspace of
functions vanishing at the origin.  On the bidisc that reduced kernel
factors through the Szego kernel as

    S(z, w) - 1 = (z1 (1 - z2 conj(w2)) conj(w1) + z2 conj(w2)) * S(z, w)

and the scalar factor in front, taken as a kernel in its own right, fails
to be positive definite.  A seeded search produces a small Gram-matrix
certificate of that failure.

Each closed form is written once, on arrays of points with the
coordinates on the last axis (_szego, _factor, _reduced); the public
kernels are those helpers on one checked pair, gram_matrix applies the
factor to every pair of its points, and the suite applies the reduced
kernel to all its sampled pairs in one array pass.  The Gram search draws
each candidate from its own generator, seeded by (seed, index), exactly as
a candidate-by-candidate loop would, then forms the Gram matrices of all
candidates of one size as a stack and reads their least eigenvalues in
one batched call; the suite draws all its pairs in one call, in the order
of as many sequential draws.  Only the basis-sum oracle stays one pair at
a time, so memory holds one term table of the caps at most.

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
from .grids import TruncationGrid, _integral
from .operators import _lambda_min, spectral_norm
from .subspaces import _innerness_gate, _outside, _toeplitz_split, origin_complement
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


def _pair(z, w, nvars=None):
    """Two checked points as arrays, nvars coordinates each when given."""
    z = _check_interior(z, "z")
    w = _check_interior(w, "w")
    if nvars is not None and not len(z) == len(w) == nvars:
        raise ValueError("the factored form is specific to two variables")
    if len(z) != len(w):
        raise ValueError("points must have the same number of coordinates")
    return np.array(z), np.array(w)


def _szego(z: np.ndarray, w: np.ndarray):
    """szego_kernel of arrays of points, coordinates on the last axis."""
    out = 1.0
    for i in range(z.shape[-1]):
        out = out / (1 - z[..., i] * np.conj(w[..., i]))
    return out


def _factor(z: np.ndarray, w: np.ndarray):
    """kernel_factor of arrays of bidisc points, coordinates on the last axis."""
    w1, w2 = np.conj(w[..., 0]), np.conj(w[..., 1])
    return z[..., 0] * (1 - z[..., 1] * w2) * w1 + z[..., 1] * w2


def _reduced(z: np.ndarray, w: np.ndarray):
    """reduced_szego_kernel of arrays of bidisc points, unchecked."""
    return _factor(z, w) * _szego(z, w)


def szego_kernel(z, w) -> complex:
    """prod_i 1 / (1 - z_i conj(w_i)) for points of the open polydisc."""
    return complex(_szego(*_pair(z, w)))


def kernel_factor(z, w) -> complex:
    """The bidisc factor z1 (1 - z2 conj(w2)) conj(w1) + z2 conj(w2)."""
    return complex(_factor(*_pair(z, w, 2)))


def reduced_szego_kernel(z, w) -> complex:
    """Kernel of the functions vanishing at the origin, in factored form."""
    return complex(_reduced(*_pair(z, w, 2)))


def kernel_sum_oracle(z, w, caps) -> complex:
    """Direct basis sum over all nonzero multi-indices within the caps.

    Every term prod_i (z_i conj(w_i))^(k_i) is formed, as the outer product
    of the per-variable power vectors, and all but the constant term are
    summed; it is the reference reduced_szego_kernel is checked against,
    not its closed form.
    """
    z = _check_interior(z, "z")
    w = _check_interior(w, "w")
    caps = tuple(_integral(c, "cap") for c in caps)
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
    """gram_matrix of the rows of a (..., size, 2) complex array, unchecked:
    one matrix per index of the leading axes."""
    # entry (a, b) is kernel_factor(points[a], points[b])
    g = _factor(p[..., :, None, :], p[..., None, :, :])
    return (g + np.swapaxes(g, -1, -2).conj()) / 2


def _polar(u: np.ndarray, radius: float) -> np.ndarray:
    """Points radius sqrt(r) e^(2 pi i t) of uniforms u[..., 0, :, :] = r
    and u[..., 1, :, :] = t: uniform in area on the polydisc of radius."""
    return radius * np.sqrt(u[..., 0, :, :]) * np.exp(1j * (2 * np.pi * u[..., 1, :, :]))


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
    All candidates are evaluated, one stack of Gram matrices per size, and
    the best witness is returned, the first index among equal ones; not
    finding one within the budget is reported as found=False, never as a
    verdict that the kernel is positive.
    """
    drawn = {size: ([], []) for size in GRAM_SIZES}   # size -> (indices, uniforms)
    for idx in range(GRAM_BUDGET):
        rng = np.random.default_rng([int(seed), idx])
        size = GRAM_SIZES[rng.integers(len(GRAM_SIZES))]
        drawn[size][0].append(idx)
        drawn[size][1].append(rng.random((2, size, 2)))
    best = (np.inf, GRAM_BUDGET, None, None)
    for indices, uniforms in drawn.values():
        if not indices:
            continue
        pts = _polar(np.array(uniforms), GRAM_RADIUS)
        g = _gram(pts)
        lows = _lambda_min(g)
        j = int(np.argmin(lows))
        # ordered by (eigenvalue, index): the first candidate index wins ties
        best = min(best, (float(lows[j]), indices[j], pts[j], g[j]), key=lambda c: c[:2])
    low, _, pts, g = best
    return GramWitness(
        found=bool(low < GRAM_THRESHOLD),
        min_eigenvalue=low,
        points=tuple(tuple(row) for row in pts),
        matrix=g,
        candidates=GRAM_BUDGET,
    )


def _sample_pairs(seed: int) -> np.ndarray:
    """SAMPLE_PAIRS pairs (z, w) of points within PAIR_RADIUS, axes (pair,
    z or w, coordinate), drawn in one call in the order of as many
    sequential pairs: each pair's radii, then its angles."""
    u = np.random.default_rng(int(seed)).random((SAMPLE_PAIRS, 2, 2, 2))
    return _polar(u, PAIR_RADIUS)


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
    caps = tuple(_integral(c, "cap") for c in caps)
    pairs = _sample_pairs(seed)
    closed = _reduced(pairs[:, 0], pairs[:, 1])
    worst_dev = max(float(abs(k - kernel_sum_oracle(z, w, caps))) for k, (z, w) in zip(closed, pairs))

    witness = gram_negativity_search(seed=seed)

    phi = rational_inner_witness()
    origin_coeff = phi.numerator.get((0, 0))
    numerator_origin = 0.0 if origin_coeff is None else float(np.abs(origin_coeff).max())
    inner = _innerness_gate(phi, tol)

    small = TruncationGrid(INCLUSION_CAPS)
    s_phi = _toeplitz_split(phi, small)
    s_origin = origin_complement(small)
    # ||(I - P_origin) P_phi|| = ||P_phi B_origin_c||, B_c the quotient bases
    inclusion_residual = spectral_norm(_outside(s_phi.complement, s_origin.complement))
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
