"""Symmetries of H^2 of the bidisc that every division and gap reading must respect.

Three exact symmetries act on the truncated grid without leaving it, so
they need no reference answer:

- swapping the variables, together with their caps, permutes the grid;
- a torus rotation z_t -> zeta_t z_t with |zeta_t| = 1 is a diagonal
  unitary on the monomial basis;
- a channel change theta -> U theta, phi -> U phi with a constant unitary
  U is a unitary on the channels, and leaves psi = phi^-1 theta alone.

Each leaves every residual of the factorization witness and of the gap's
submodule check unchanged, up to rounding, and so every verdict.  The caps
are uneven, so a swap moves a cap.
"""

import numpy as np
import pytest

from hardylab.factorization import beurling_submodule_check, invariant_subspace_from_factorization
from hardylab.grids import TruncationGrid
from hardylab.symbols import AnalyticSymbol
from test_factorization import PAIRS, PHI1, PHI2

CAPS = (3, 5)


def _mapped(symbol, key, block):
    """symbol with each numerator coefficient N_k replaced by block(k, N_k),
    each denominator coefficient q_k by block(k, q_k), and every key k by key(k)."""
    num = {key(k): block(k, v) for k, v in symbol.numerator.items()}
    den = {key(k): block(k, v) for k, v in symbol.denominator.items()}
    return AnalyticSymbol(symbol.nvars, symbol.rows, symbol.cols, num, den)


def _swapped(symbol):
    return _mapped(symbol, lambda k: k[::-1], lambda k, v: v)


def _rotated(symbol, zeta=(np.exp(0.9j), np.exp(-2.3j))):
    return _mapped(symbol, lambda k: k, lambda k, v: np.prod(np.power(zeta, k)) * v)


def _channel_unitary(rows):
    return np.linalg.qr(np.arange(1, rows * rows + 1).reshape(rows, rows) + 1j * np.eye(rows))[0]


def _channel_changed(symbol):
    u = _channel_unitary(symbol.rows)
    num = {k: u @ v for k, v in symbol.numerator.items()}
    return AnalyticSymbol(symbol.nvars, symbol.rows, symbol.cols, num, symbol.denominator)


def _readings(theta, phi, caps, tol):
    """Every residual of the witness and of its gap's check, and every verdict."""
    grid = TruncationGrid(caps)
    wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol)
    check = beurling_submodule_check(wit.m_basis, theta, grid, tol=tol)
    values = {**wit.residuals, **check.residuals}
    verdicts = {**{key: value <= tol for key, value in wit.residuals.items()}, **check.verdicts}
    return values, verdicts


CASES = {name: (theta, phi, tol) for name, (theta, phi, _, tol, _) in PAIRS.items()}
CASES["blaschke-potapov"] = (PHI1.matmul(PHI2), PHI1, 1e-8)

SYMMETRIES = {
    "swap": (_swapped, CAPS[::-1]),
    "rotation": (_rotated, CAPS),
    "channel": (_channel_changed, CAPS),
}


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_division_readings_are_invariant(name, symmetry):
    theta, phi, tol = CASES[name]
    act, caps = SYMMETRIES[symmetry]
    values, verdicts = _readings(theta, phi, CAPS, tol)
    moved, moved_verdicts = _readings(act(theta), act(phi), caps, tol)
    assert list(moved) == list(values) == ["divisibility", "psi_innerness", "invariance",
                                           "quotient_match", "cross_commutator",
                                           "beurling_defect_product"]
    for key, value in values.items():
        assert abs(moved[key] - value) <= 1e-14, (key, value, moved[key])
    assert moved_verdicts == verdicts
