"""Symmetries of H^2 of the bidisc that every division, gap and dilation reading must respect.

Four exact symmetries act on the truncated grid without leaving it, so
they need no reference answer:

- swapping the variables, together with their caps, permutes the grid;
- a torus rotation z_t -> zeta_t z_t with |zeta_t| = 1 is a diagonal
  unitary on the monomial basis;
- a channel change theta -> U theta, phi -> U phi with a constant unitary
  U is a unitary on the channels, and leaves psi = phi^-1 theta alone;
- a phase theta -> e^{0.7i} theta, phi -> e^{0.7i} phi leaves every
  submodule and psi alone, and changes only the dtype: a symbol with real
  coefficients runs in float64 and its phased twin in complex128, so the
  real run is compared with the complex one.

Each leaves every residual of the factorization witness and of the gap's
submodule check unchanged, up to rounding, and so every verdict.  The same
holds for the quotient battery of every symbol entry of the corpus, with a
swap relabelling each per-variable and per-pair residual, and for every
permutation of the variables of its three-variable entries.  The caps are
uneven, so a swap moves a cap, and the free-variable lift of a symbol that
leaves variables free is read under a swap that frees others.

On the dilation side a unitary similarity T_i -> W T_i W* and a reversal
of a seeded Brehmer pair leave the dilation residuals, the dropped-shell
mass, the least eigenvalue of the defect sum and every verdict unchanged.
So does a phase T_i -> e^{0.7i} T_i of a real pair, which runs in float64
while its phased twin runs in complex128.
"""

from functools import lru_cache

import numpy as np
import pytest

from hardylab.corpus import corpus_entries
from hardylab.criteria import beurling_criterion, cross_commutator_criterion, identity_suite, quotient_data
from hardylab.dilation import ContractionTuple, canonical_dilation, model_correspondence, random_brehmer_pair
from hardylab.factorization import beurling_submodule_check, invariant_subspace_from_factorization
from hardylab.grids import TruncationGrid
from hardylab.subspaces import submodule_projection
from hardylab.symbols import AnalyticSymbol
from test_dilation import real_brehmer_pair
from test_factorization import PAIRS, PHI1, PHI2

CAPS = (3, 5)


def _mapped(symbol, key, block):
    """symbol with each numerator coefficient N_k replaced by block(k, N_k),
    each denominator coefficient q_k by block(k, q_k), and every key k by key(k)."""
    num = {key(k): block(k, v) for k, v in symbol.numerator.items()}
    den = {key(k): block(k, v) for k, v in symbol.denominator.items()}
    return AnalyticSymbol(symbol.nvars, symbol.rows, symbol.cols, num, den)


def _permuted(symbol, perm):
    """symbol with its variables permuted: variable i of the result is variable perm[i]."""
    return _mapped(symbol, lambda k: tuple(k[p] for p in perm), lambda k, v: v)


def _swapped(symbol):
    return _permuted(symbol, range(symbol.nvars)[::-1])


def _rotated(symbol, zeta=(np.exp(0.9j), np.exp(-2.3j), np.exp(1.7j))):
    return _mapped(symbol, lambda k: k, lambda k, v: np.prod(np.power(zeta[:len(k)], k)) * v)


def _channel_unitary(rows):
    return np.linalg.qr(np.arange(1, rows * rows + 1).reshape(rows, rows) + 1j * np.eye(rows))[0]


def _channel_changed(symbol):
    u = _channel_unitary(symbol.rows)
    num = {k: u @ v for k, v in symbol.numerator.items()}
    return AnalyticSymbol(symbol.nvars, symbol.rows, symbol.cols, num, symbol.denominator)


def _phased(symbol, angle=0.7):
    """e^{i angle} symbol: the same submodule, from complex coefficients."""
    num = {k: np.exp(1j * angle) * v for k, v in symbol.numerator.items()}
    return AnalyticSymbol(symbol.nvars, symbol.rows, symbol.cols, num, symbol.denominator)


def _readings(theta, phi, caps, tol):
    """Every residual of the witness and of its gap's check, and every verdict."""
    grid = TruncationGrid(caps)
    wit = invariant_subspace_from_factorization(theta, phi, grid, tol=tol)
    check = beurling_submodule_check(wit.m_basis, theta, grid, tol=tol)
    values = {**wit.residuals, **check.residuals}
    verdicts = {**{key: value <= tol for key, value in wit.residuals.items()}, **check.verdicts}
    return values, verdicts


def _monomial_factor_pair(a, nvars=2):
    """b_a(z1) z_n divided by b_a(z1): z_n is a monomial factor of theta, and
    its split tensors the one of b_a(z1) with the coordinates of z_n H^2."""
    b = AnalyticSymbol.blaschke(a, 0, nvars)
    return b.matmul(AnalyticSymbol.monomial((0,) * (nvars - 1) + (1,))), b


CASES = {name: (theta, phi, tol) for name, (theta, phi, _, tol, _) in PAIRS.items()}
CASES["blaschke-potapov"] = (PHI1.matmul(PHI2), PHI1, 1e-8)

SYMMETRIES = {
    "swap": (_swapped, CAPS[::-1]),
    "rotation": (_rotated, CAPS),
    "channel": (_channel_changed, CAPS),
    "phase": (_phased, CAPS),
}


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_division_readings_are_invariant(name, symmetry):
    theta, phi, tol = CASES[name]
    act, caps = SYMMETRIES[symmetry]
    values, verdicts = _readings(theta, phi, CAPS, tol)
    moved, moved_verdicts = _readings(act(theta), act(phi), caps, tol)
    assert list(moved) == list(values) == ["divisibility", "psi_innerness", "quotient_match",
                                           "cross_commutator", "beurling_defect_product"]
    for key, value in values.items():
        assert abs(moved[key] - value) <= 1e-14, (key, value, moved[key])
    assert moved_verdicts == verdicts


# ---- quotient battery of the corpus -----------------------------------------

ENTRIES = {e.entry_id: e for e in corpus_entries(0) if e.symbol is not None}


def _uneven(caps):
    """The entry's caps raised by 0, 1, 2, ... in variable order."""
    return tuple(c + t for t, c in enumerate(caps))


def _battery(symbol, caps, margins):
    """(values, verdicts) of beurling_criterion, cross_commutator_criterion
    and identity_suite, keyed (report, key), with invariance_per_variable
    keyed ("invariance", t)."""
    sub = submodule_projection(symbol, TruncationGrid(caps))
    data = quotient_data(sub, margins=margins)
    reports = (beurling_criterion(data), cross_commutator_criterion(sub, margins=margins),
               identity_suite(data))
    values = {(rep.name, key): v for rep in reports for key, v in rep.residuals.items()}
    values.update({("invariance", t): v for t, v in enumerate(data.invariance_per_variable)})
    return values, {(rep.name, key): v for rep in reports for key, v in rep.verdicts.items()}


@lru_cache(maxsize=None)
def _entry_battery(entry_id):
    entry = ENTRIES[entry_id]
    return _battery(entry.symbol, _uneven(entry.caps), entry.margins)


def _relabelled(key, perm):
    """The key of a reading after the variables are permuted by perm, as
    _permuted does: a variable t becomes perm.index(t), and a pair, which
    both criteria key for i < j only, is written in increasing order."""
    name, part = key
    if name == "invariance":
        return name, perm.index(part)
    if not part.startswith("pair_"):
        return key
    pair = sorted(perm.index(int(t)) for t in part.split("_")[1:])
    return name, "pair_{}_{}".format(*pair)


def _assert_battery_moved(entry_id, act, perm):
    """The battery of act(symbol), at the entry's uneven caps and its
    margins permuted by perm, reads every value of the entry's battery
    within 1e-14 and every verdict, under the relabelling of perm."""
    entry = ENTRIES[entry_id]
    _assert_readings_moved(_entry_battery(entry_id), act(entry.symbol), _uneven(entry.caps),
                           entry.margins, perm, entry_id)


def _assert_readings_moved(readings, moved_symbol, caps, margins, perm, label):
    """The battery of moved_symbol at caps and margins permuted by perm
    reads every value of readings within 1e-14 and every verdict, under
    the relabelling of perm."""
    values, verdicts = readings
    moved, moved_verdicts = _battery(moved_symbol, tuple(caps[p] for p in perm),
                                     tuple(margins[p] for p in perm))
    relabel = {key: _relabelled(key, perm) for key in values}
    assert sorted(relabel.values()) == sorted(moved), label
    for key, value in values.items():
        assert abs(moved[relabel[key]] - value) <= 1e-14, (label, key, value)
    assert {relabel[key]: v for key, v in verdicts.items()} == moved_verdicts, label


@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
def test_corpus_battery_readings_are_invariant(symmetry):
    act = SYMMETRIES[symmetry][0]
    for entry_id, entry in ENTRIES.items():
        identity = tuple(range(len(entry.caps)))
        _assert_battery_moved(entry_id, act, identity[::-1] if symmetry == "swap" else identity)


@pytest.mark.parametrize("perm", [(1, 0, 2), (0, 2, 1), (1, 2, 0), (2, 0, 1)])
def test_three_variable_battery_readings_are_invariant_under_every_permutation(perm):
    """The four permutations of three variables that the reversal of
    test_corpus_battery_readings_are_invariant leaves out move every used
    set of a tensored split, (0, 1), (0, 2), (1, 2) and (2,), to every
    other position."""
    entries = [entry_id for entry_id, entry in ENTRIES.items() if len(entry.caps) == 3]
    assert len(entries) == 18
    for entry_id in entries:
        _assert_battery_moved(entry_id, lambda symbol: _permuted(symbol, perm), perm)


@pytest.mark.parametrize("a", [0.05 * np.exp(0.7j), 0.4 * np.exp(-2.1j)])
def test_a_monomial_factor_battery_reads_as_its_swap(a):
    """z2 b_a(z1) splits b_a on the grid of z1 and z2 H^2 by index, and its
    swap z1 b_a(z2) the same blocks in the other variable order."""
    theta = _monomial_factor_pair(a)[0]
    caps, margins = CAPS, (1, 2)
    _assert_readings_moved(_battery(theta, caps, margins), _swapped(theta), caps, margins,
                           (1, 0), "z2 b_a(z1)")


THREE_VARIABLE_CAPS = (3, 4, 5)


@pytest.mark.parametrize("perm", [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
def test_a_three_variable_monomial_factor_reads_alike_under_every_permutation(perm):
    """b(z1) z3 divided by b(z1), with z2 free, and the battery of b(z1) z3:
    every permutation of the variables moves the coupled, the monomial and
    the free variable to every position, and no reading moves."""
    theta, phi = _monomial_factor_pair(0.3 - 0.2j, nvars=3)
    caps, margins = THREE_VARIABLE_CAPS, (1, 1, 2)
    moved_caps = tuple(caps[p] for p in perm)
    values, verdicts = _readings(theta, phi, caps, 1e-8)
    moved, moved_verdicts = _readings(_permuted(theta, perm), _permuted(phi, perm), moved_caps, 1e-8)
    assert list(moved) == list(values)
    for key, value in values.items():
        assert abs(moved[key] - value) <= 1e-14, (key, value, moved[key])
    assert moved_verdicts == verdicts
    _assert_readings_moved(_battery(theta, caps, margins), _permuted(theta, perm), caps, margins,
                           perm, "b(z1) z3")


# ---- dilation of seeded Brehmer pairs ---------------------------------------

DILATION_CAPS = (8, 8)


def _similar(t, seed=5):
    """W T_i W* for every entry, W a seeded unitary."""
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim)))[0]
    return ContractionTuple(tuple(w @ m @ w.conj().T for m in t.matrices))


def _reversed(t):
    return ContractionTuple(t.matrices[::-1])


def _dilation_readings(t):
    """The isometry and intertwining residuals, the dropped-shell mass and
    brehmer_min_eig, and the model_correspondence verdicts."""
    d = canonical_dilation(t, DILATION_CAPS)
    model = model_correspondence(t)
    values = (d.isometry_residual, d.intertwining_residual, d.tail_mass,
              model.residuals["brehmer_min_eig"])
    return values, model.verdicts


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("act", [_similar, _reversed])
def test_dilation_readings_are_invariant(seed, act):
    """A unitary similarity and a reversal of the tuple leave the dilation
    residuals, the dropped-shell mass and brehmer_min_eig in place, and
    every verdict; a reversal swaps the two pureness keys.  A pureness value
    is not compared: W T W* is nilpotent only up to rounding, so its value
    can move from 0 to a small computed radius (about 1e-3 for seeds 2 and
    3) while the verdict holds."""
    t = random_brehmer_pair(seed, 8)
    values, verdicts = _dilation_readings(t)
    moved, moved_verdicts = _dilation_readings(act(t))
    assert np.max(np.abs(np.subtract(moved, values))) <= 1e-14, (values, moved)
    relabel = {"pureness_0": "pureness_1", "pureness_1": "pureness_0"} if act is _reversed else {}
    assert {relabel.get(key, key): v for key, v in verdicts.items()} == moved_verdicts


@pytest.mark.parametrize("seed", range(4))
def test_a_real_pair_reads_as_its_phased_twin(seed):
    """e^{0.7i} T leaves the defect sum, the pureness radii and every
    dilation residual in place and changes only the dtype, so the float64
    run of a real pair is compared with the complex128 run of its twin."""
    t = real_brehmer_pair(seed, 8)
    twin = ContractionTuple(tuple(np.exp(0.7j) * m for m in t.matrices))
    assert {m.dtype for m in t.matrices} == {np.dtype(float)}
    assert {m.dtype for m in twin.matrices} == {np.dtype(complex)}
    values, verdicts = _dilation_readings(t)
    moved, moved_verdicts = _dilation_readings(twin)
    assert np.max(np.abs(np.subtract(moved, values))) <= 1e-14, (values, moved)
    assert verdicts == moved_verdicts
