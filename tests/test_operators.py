"""Truncated shifts, Toeplitz matrices, and the innerness gate."""

from pathlib import Path

import numpy as np
import pytest

import dense
from hardylab.corpus import corpus_entries
from hardylab.grids import TruncationGrid
from hardylab.kernels import rational_inner_witness
from hardylab.operators import (
    _lambda_min,
    eval_margins,
    hermitian_norm,
    innerness_check,
    shift_matrices,
    shift_matrix,
    spectral_norm,
    toeplitz_matrix,
    windowed_norm,
)
from hardylab.scenarios import parse_scenario
from hardylab.symbols import AnalyticSymbol


def phi_symbol():
    return AnalyticSymbol.rational(
        {(1, 1): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        {(0, 0): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        nvars=2,
    )


def test_shift_action_and_top_slice_drop():
    g = TruncationGrid((1, 1))
    m1 = shift_matrix(g, 0)
    np.testing.assert_array_equal(m1 @ dense.unit(g, (0, 0)), dense.unit(g, (1, 0)))
    np.testing.assert_array_equal(m1 @ dense.unit(g, (0, 1)), dense.unit(g, (1, 1)))
    assert np.all(m1 @ dense.unit(g, (1, 0)) == 0)


def test_shift_is_isometry_below_top_slice():
    g = TruncationGrid((3, 2))
    for t, m in enumerate(shift_matrices(g)):
        defect = np.eye(g.dim) - m.conj().T @ m
        # defect is exactly the projection onto the top slice in variable t
        want = np.zeros((g.dim, g.dim))
        for i in g.top_slice_indices(t):
            want[i, i] = 1.0
        np.testing.assert_array_equal(defect.real, want)
        np.testing.assert_array_equal(defect.imag, np.zeros_like(want))


def test_truncated_shifts_commute_exactly():
    g = TruncationGrid((3, 2), channels=2)
    m1, m2 = shift_matrices(g)
    assert spectral_norm(m1 @ m2 - m2 @ m1) == 0.0
    assert spectral_norm(m1 @ m2.conj().T - m2.conj().T @ m1) == 0.0


def test_toeplitz_first_column_is_taylor_table():
    g = TruncationGrid((1, 1))
    mt = toeplitz_matrix(phi_symbol(), g)
    np.testing.assert_allclose(mt[:, 0], [0.0, -0.5, -0.5, 0.5], atol=1e-15)


def test_toeplitz_constant_symbol_is_block_diagonal():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    g = TruncationGrid((2, 1))
    mt = toeplitz_matrix(AnalyticSymbol.constant(u, nvars=2), g)
    np.testing.assert_array_equal(mt, np.kron(np.eye(g.dim), u))


def test_toeplitz_multiplication_is_exact_for_analytic_symbols():
    # lower-triangular structure: no truncation cross terms at all
    g = TruncationGrid((3, 3))
    f = phi_symbol()
    b = AnalyticSymbol.blaschke(0.3, 0, nvars=2)
    lhs = toeplitz_matrix(f, g) @ toeplitz_matrix(b, g)
    rhs = toeplitz_matrix(f.matmul(b), g)
    assert spectral_norm(lhs - rhs) <= 1e-13


def test_toeplitz_intertwines_shift_on_low_columns():
    g = TruncationGrid((6,))
    b = AnalyticSymbol.blaschke(0.5, 0, nvars=1)
    mt = toeplitz_matrix(b, g)
    m = shift_matrix(g, 0)
    for j in range(6):
        lhs = m @ mt[:, dense.flat(g, (j,))]
        rhs = mt[:, dense.flat(g, (j + 1,))]
        np.testing.assert_allclose(lhs, rhs, atol=1e-15)


def test_eval_margins_floor_at_one():
    assert eval_margins(AnalyticSymbol.monomial((2, 0))) == (2, 1)
    assert eval_margins(AnalyticSymbol.blaschke(0.5, 0, nvars=2)) == (1, 1)
    assert eval_margins(AnalyticSymbol.constant(np.eye(2), nvars=2)) == (1, 1)


def isometry_defect(symbol, grid):
    """||W (M_Theta* M_Theta - I) W|| on the symbol's core window."""
    mt = toeplitz_matrix(symbol, grid)
    dom = grid.with_channels(symbol.cols)
    defect = mt.conj().T @ mt - np.eye(dom.dim)
    return windowed_norm(defect, dom.window_indices(eval_margins(symbol)))


def test_innerness_monomial_exact():
    sym, grid = AnalyticSymbol.monomial((1, 1)), TruncationGrid((4, 4))
    deviation = innerness_check(sym)
    assert type(deviation) is float
    assert deviation <= 1e-14
    assert isometry_defect(sym, grid) <= 1e-14


def test_innerness_rejects_strict_contraction():
    deviation = innerness_check(AnalyticSymbol.polynomial({(1, 0): 0.5}, nvars=2))
    assert deviation == pytest.approx(0.75, abs=1e-12)


def test_innerness_rejects_non_inner_average():
    avg = AnalyticSymbol.polynomial({(1, 0): 0.5, (0, 1): 0.5}, nvars=2)
    deviation = innerness_check(avg)
    assert deviation >= 0.5


def test_innerness_phi_torus_clean_but_tail_slow():
    """The rational inner symbol passes the coefficient test while its truncated
    multiplication matrix is still visibly non-isometric at small caps."""
    grid = TruncationGrid((6, 6))
    deviation = innerness_check(phi_symbol())
    assert deviation <= 1e-10
    assert isometry_defect(phi_symbol(), grid) > 0.1


def test_innerness_blaschke():
    deviation = innerness_check(AnalyticSymbol.blaschke(0.5, 0, nvars=2))
    assert deviation <= 1e-14


def offset_blind_symbol():
    """(1 + z1 + z1^32 - z1^33)/2: not inner, yet of modulus one at every
    point of the half-step-offset 32-point torus grid."""
    return AnalyticSymbol.polynomial({(0, 0): 0.5, (1, 0): 0.5, (32, 0): 0.5, (33, 0): -0.5}, nvars=2)


def test_innerness_catches_defect_between_torus_samples():
    deviation = innerness_check(offset_blind_symbol())
    assert deviation >= 0.25


def test_innerness_of_every_shipped_inner_symbol_is_exact():
    symbols = [e.symbol for seed in range(3) for e in corpus_entries(seed) if e.symbol is not None]
    root = Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(root.glob("*.cfg")):
        s = parse_scenario(path.read_text(), base_dir=root)
        symbols += [sym for sym in (s.symbol, s.phi) if sym is not None]
    symbols.append(rational_inner_witness())
    assert len(symbols) > 3 * 54
    for sym in symbols:
        assert innerness_check(sym) <= 1e-14


def test_innerness_matrix_valued():
    """A 2x1 column [z1; z2]/sqrt(2) is inner; scaling one entry breaks it."""
    col = {(1, 0): np.array([[1.0], [0.0]]) / np.sqrt(2), (0, 1): np.array([[0.0], [1.0]]) / np.sqrt(2)}
    deviation = innerness_check(AnalyticSymbol.polynomial(col, 2, rows=2, cols=1))
    assert deviation <= 1e-15
    col[(0, 1)] = col[(0, 1)] * 0.5
    deviation = innerness_check(AnalyticSymbol.polynomial(col, 2, rows=2, cols=1))
    assert deviation == pytest.approx(0.375, abs=1e-15)


def _random_rational_symbols():
    """Seeded non-inner rational symbols of 1-4 variables with rows != cols."""
    rng = np.random.default_rng(22)
    out = []
    for nvars in (1, 2, 3, 4):
        for rows, cols in ((1, 2), (2, 1), (3, 2), (2, 3)):
            def keys(count):
                return {tuple(int(a) for a in rng.integers(0, 3, size=nvars)) for _ in range(count)}
            numerator = {k: rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
                         for k in keys(4)}
            denominator = {k: complex(rng.normal(), rng.normal()) for k in keys(3)}
            denominator[(0,) * nvars] = 3.0
            out.append(AnalyticSymbol.rational(numerator, denominator, nvars, rows, cols))
    return out


def test_innerness_deviation_is_the_row_unique_formula_bit_for_bit():
    """Lags grouped by integer codes and norms read as first singular values
    give the deviation of the row-wise unique and norm(., 2) formula."""
    symbols = [e.symbol for seed in range(4) for e in corpus_entries(seed) if e.symbol is not None]
    symbols += _random_rational_symbols()
    for sym in symbols:
        assert innerness_check(sym) == dense.innerness_deviation(sym)


def test_innerness_refuses_lag_codes_that_overflow():
    """Keys 10**7 apart in three variables span more lag codes than int64
    holds, so the grouping would collide; 10**5 apart they still fit."""
    for reach, fits in ((10**5, True), (10**7, False)):
        sym = AnalyticSymbol.polynomial({(0, 0, 0): 0.6, (reach,) * 3: 0.8}, 3)
        if fits:
            assert innerness_check(sym) == dense.innerness_deviation(sym) == pytest.approx(0.96)
        else:
            with pytest.raises(ValueError, match="overflow int64"):
                innerness_check(sym)


def test_hermitian_norm_matches_spectral_norm():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = a + a.conj().T
    assert hermitian_norm(h) == pytest.approx(spectral_norm(h), rel=1e-13)
    assert hermitian_norm(1j * (a - a.conj().T)) == pytest.approx(spectral_norm(a - a.conj().T), rel=1e-13)
    assert hermitian_norm(np.zeros((0, 0))) == 0.0


@pytest.mark.parametrize("dtype", [float, complex])
def test_lambda_min_of_a_stack_is_each_matrix_read_alone(dtype):
    rng = np.random.default_rng(11)
    a = rng.normal(size=(7, 5, 5)).astype(dtype)
    if dtype is complex:
        a += 1j * rng.normal(size=(7, 5, 5))
    h = a + np.swapaxes(a, -1, -2).conj()
    lows = _lambda_min(h)
    assert lows.shape == (7,) and lows.dtype == np.float64
    for low, matrix in zip(lows, h):
        one = _lambda_min(matrix)
        assert type(one) is float and one == low  # bit for bit
    assert _lambda_min(h.reshape(7, 1, 5, 5)).shape == (7, 1)


def test_lambda_min_of_empty_matrices_reads_zero():
    assert _lambda_min(np.zeros((0, 0))) == 0.0
    assert type(_lambda_min(np.zeros((0, 0)))) is float
    assert np.array_equal(_lambda_min(np.zeros((3, 0, 0))), np.zeros(3))
    assert _lambda_min(np.zeros((0, 4, 4))).shape == (0,)


def test_hermitian_norm_of_zero_takes_no_eigensolve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve of a zero matrix")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for zero in (np.zeros((0, 0)), np.zeros((56, 56), dtype=complex), np.full((3, 3), -0.0)):
        assert hermitian_norm(zero) == 0.0 and not np.signbit(hermitian_norm(zero))
    with pytest.raises(AssertionError, match="eigensolve"):
        hermitian_norm(np.eye(2) * 1e-300)


def test_norm_helpers():
    assert spectral_norm(np.zeros((0, 0))) == 0.0
    a = np.diag([3.0, 1.0, 2.0])
    assert spectral_norm(a) == 3.0
    assert windowed_norm(a, np.array([1, 2])) == 2.0
    assert windowed_norm(a, np.array([1]), col_window=np.array([0])) == 0.0
    assert windowed_norm(a, np.array([], dtype=int)) == 0.0


EPS = np.finfo(float).eps


def _graded(rng, shape, decades):
    """A random matrix whose singular values fall evenly over decades decades."""
    m, n = shape
    k = min(shape)
    u = np.linalg.qr(rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k)))[0]
    v = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))[0]
    return (u * np.logspace(0, -decades, k)) @ v.conj().T


def _draws(rng, shape, kind):
    m, n = shape
    a = rng.normal(size=shape)
    if kind == "complex":
        a = a + 1j * rng.normal(size=shape)
    yield a
    yield np.outer(rng.normal(size=m), rng.normal(size=n) + 1j * rng.normal(size=n))
    yield _graded(rng, shape, 30)
    yield a * 1e250
    yield a * 1e-250


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (9, 4), (4, 9), (343, 91), (91, 343)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spectral_norm_matches_numpys_two_norm(shape, kind):
    # the Gram route promises full relative accuracy: within 4 eps max(m, n)
    # of the singular value numpy's SVD returns, also for rank-one, graded
    # and extremely scaled matrices
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        for a in _draws(rng, shape, kind):
            value = spectral_norm(a)
            assert type(value) is float
            want = float(np.linalg.norm(a, 2))
            assert abs(value - want) <= 4 * EPS * max(shape) * want


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (9, 4), (4, 9), (91, 343)])
def test_spectral_norm_scale_is_the_two_part_scale(shape):
    """The scale read from the float view of the entries equals the one
    read from the real and imaginary parts apart, whatever the layout."""
    rng = np.random.default_rng(sum(shape))
    for a in _draws(rng, shape, "complex"):
        for view in (a, np.asfortranarray(a), a.conj().T, a[::2, 1:], a[::-1], a.real, a.real.T):
            assert spectral_norm(view) == dense.two_part_spectral_norm(view)
    a = np.zeros(shape, dtype=complex, order="F")
    assert spectral_norm(a) == spectral_norm(a.real[::-1]) == 0.0
    a[-1, 0] = complex(1.0, np.nan)
    for view in (a, a.T, a[::-1], a.imag):
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            spectral_norm(view)


def test_spectral_norm_exact_and_zero_values():
    assert spectral_norm(np.diag([3.0, 1.0, 2.0])) == 3.0
    assert spectral_norm(np.zeros((4, 3), dtype=complex)) == 0.0


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("shape", [(49, 13), (13, 49), (1, 1)])
def test_spectral_norm_keeps_the_bytes_of_its_numpy_scalar_steps(shape, kind):
    """The scale, its power of two and the root taken in math on Python
    floats give the bytes the same steps gave in numpy, at every scale from
    1e-300 to 1e300 and with a subnormal entry; a norm past the float range
    is still inf with numpy's overflow warning."""
    rng = np.random.default_rng(sum(shape))
    a = rng.normal(size=shape)
    if kind == "complex":
        a = a + 1j * rng.normal(size=shape)
    tiny = np.zeros(shape, dtype=a.dtype)
    tiny[-1, 0] = 5e-324
    mixed = a.copy()
    mixed[0, -1] = 3e-310
    for x in [a * 10.0 ** k for k in range(-300, 301, 25)] + [tiny, mixed, tiny + 1e-310]:
        assert spectral_norm(x).hex() == dense.two_part_spectral_norm(x).hex()
    huge = np.full(np.add(shape, 1), 1.5e308, dtype=a.dtype)
    for norm in (spectral_norm, dense.two_part_spectral_norm):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert norm(huge) == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
def test_spectral_norm_refuses_a_non_finite_entry(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        spectral_norm(a)


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_spectral_norm_of_an_empty_matrix_is_zero(shape):
    assert spectral_norm(np.zeros(shape, dtype=complex)) == 0.0


@pytest.mark.parametrize("symbol, caps", [
    (phi_symbol(), (4, 3)),
    (AnalyticSymbol.blaschke(0.3, 1, nvars=3).matmul(AnalyticSymbol.monomial((1, 0, 2))), (2, 3, 2)),
    (AnalyticSymbol.polynomial({(0, 0): np.ones((2, 3)), (1, 2): np.arange(6).reshape(2, 3)},
                               2, rows=2, cols=3), (3, 2)),
    (AnalyticSymbol.constant(np.array([[0, 1], [1, 0]], dtype=complex), nvars=1), (5,)),
    (AnalyticSymbol.polynomial({(0, 0): np.ones((2, 3)), (1, 2): np.arange(6).reshape(2, 3)},
                               2, rows=2, cols=3), (3, 0)),
    (AnalyticSymbol.rational({(0, 0, 0): np.arange(6).reshape(2, 3) + 1j, (0, 0, 1): np.eye(2, 3)},
                             {(0, 0, 0): 2.0, (1, 0, 0): -0.5, (0, 0, 1): 0.25j},
                             3, rows=2, cols=3), (2, 0, 3)),
    (AnalyticSymbol.monomial((1, 0)), (0, 4)),
])
def test_toeplitz_matches_loop_reference(symbol, caps):
    g = TruncationGrid(caps)
    assert np.array_equal(toeplitz_matrix(symbol, g), dense.toeplitz(symbol, g))
