"""Taylor recursion, symbol algebra, and the coefficient file format."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense
from hardylab.grids import TruncationGrid
from hardylab.symbols import (
    AnalyticSymbol,
    SymbolEvaluationError,
    dump_coefficient_text,
    parse_coefficient_text,
)


def scalar_table(symbol, grid):
    return symbol.taylor_table(grid)[:, 0, 0]


def rank_table(grid):
    """multi-index -> rank, built from the enumeration alone, not TruncationGrid.ranks."""
    return {k: r for r, k in enumerate(grid.multi_indices)}


def test_resolvent_taylor_matches_binomial_closed_form():
    # 1/(2 - z1 - z2) has coefficient (1/2)^(|k|+1) * binom(|k|, k1)
    sym = AnalyticSymbol.rational({(0, 0): 1.0}, {(0, 0): 2.0, (1, 0): -1.0, (0, 1): -1.0}, nvars=2)
    g = TruncationGrid((2, 1))
    t = scalar_table(sym, g)
    expected = {(0, 0): 0.5, (1, 0): 0.25, (0, 1): 0.25, (2, 0): 0.125, (1, 1): 0.25, (2, 1): 3 / 16}
    for r, k in enumerate(g.multi_indices):
        assert t[r] == pytest.approx(expected[k], abs=1e-15)


def test_geometric_series_coefficients_all_one():
    sym = AnalyticSymbol.rational({(0,): 1.0}, {(0,): 1.0, (1,): -1.0}, nvars=1)
    t = scalar_table(sym, TruncationGrid((7,)))
    np.testing.assert_allclose(t, np.ones(8), atol=1e-14)


def test_phi_taylor_values():
    phi = AnalyticSymbol.rational(
        {(1, 1): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        {(0, 0): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        nvars=2,
    )
    g = TruncationGrid((2, 1))
    t = scalar_table(phi, g)
    expected = {(0, 0): 0.0, (1, 0): -0.5, (0, 1): -0.5, (1, 1): 0.5, (2, 0): -0.25, (2, 1): 0.125}
    for r, k in enumerate(g.multi_indices):
        assert t[r] == pytest.approx(expected[k], abs=1e-15)


def test_blaschke_taylor_values():
    b = AnalyticSymbol.blaschke(0.5, 0, nvars=1)
    t = scalar_table(b, TruncationGrid((2,)))
    np.testing.assert_allclose(t, [-0.5, 0.75, 0.375], atol=1e-15)


def test_polynomial_table_is_passthrough():
    sym = AnalyticSymbol.polynomial({(1, 0): 2.0, (0, 1): -3.0}, nvars=2)
    g = TruncationGrid((1, 1))
    t = scalar_table(sym, g)
    rank = rank_table(g)
    assert t[rank[(1, 0)]] == 2.0
    assert t[rank[(0, 1)]] == -3.0
    assert t[rank[(0, 0)]] == 0.0


def test_monomial_and_constant_constructors():
    m = AnalyticSymbol.monomial((0, 2))
    assert m.nvars == 2 and m.degrees == (0, 2) and m.is_polynomial
    assert dense.coefficient(m, (0, 2))[0, 0] == 1.0
    with pytest.raises(ValueError, match="bad multi-index"):
        AnalyticSymbol.polynomial({(0, 2): 1.0}, nvars=3)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    c = AnalyticSymbol.constant(u, nvars=2)
    assert c.rows == c.cols == 2
    np.testing.assert_array_equal(dense.coefficient(c, (0, 0)), u)
    assert c.degrees == (0, 0)


def test_blaschke_complex_parameter_conjugates_denominator():
    a = 0.3 + 0.2j
    b = AnalyticSymbol.blaschke(a, 1, nvars=2)
    assert dense.coefficient(b, (0, 1))[0, 0] == pytest.approx(1.0)
    assert dense.coefficient(b, (0, 0))[0, 0] == pytest.approx(-a)
    assert b.denominator[(0, 1)] == pytest.approx(-np.conj(a))


def test_matmul_polynomial_convolution():
    f = AnalyticSymbol.polynomial({(1, 0): 1.0, (0, 1): 1.0}, nvars=2)
    g = AnalyticSymbol.polynomial({(1, 0): 1.0, (0, 1): -1.0}, nvars=2)
    prod = f.matmul(g)
    assert dense.coefficient(prod, (2, 0))[0, 0] == 1.0
    assert dense.coefficient(prod, (0, 2))[0, 0] == -1.0
    assert dense.coefficient(prod, (1, 1))[0, 0] == 0.0


def test_matmul_combines_denominators():
    b1 = AnalyticSymbol.blaschke(0.5, 0, nvars=2)
    b2 = AnalyticSymbol.blaschke(0.25, 1, nvars=2)
    prod = b1.matmul(b2)
    assert set(prod.denominator) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert prod.degrees == (1, 1)
    # product of the two Taylor series on a grid equals the product's series
    g = TruncationGrid((3, 3))
    t1, t2, tp = scalar_table(b1, g), scalar_table(b2, g), scalar_table(prod, g)
    conv = np.zeros(g.dim, dtype=complex)
    rank = rank_table(g)
    for ka in g.multi_indices:
        for kb in g.multi_indices:
            ks = (ka[0] + kb[0], ka[1] + kb[1])
            if ks in rank:
                conv[rank[ks]] += t1[rank[ka]] * t2[rank[kb]]
    np.testing.assert_allclose(conv, tp, atol=1e-14)


def test_evaluate_closed_form():
    b = AnalyticSymbol.blaschke(0.5, 0, nvars=1)
    pts = np.array([[0.2 + 0.1j], [0.0 + 0.0j]])
    vals = b.evaluate(pts)
    z = pts[0, 0]
    assert vals[0, 0, 0] == pytest.approx((z - 0.5) / (1 - 0.5 * z))
    assert vals[1, 0, 0] == pytest.approx(-0.5)


def test_evaluate_near_pole_raises():
    geo = AnalyticSymbol.rational({(0,): 1.0}, {(0,): 1.0, (1,): -1.0}, nvars=1)
    with pytest.raises(SymbolEvaluationError):
        geo.evaluate(np.array([[1.0 + 0j]]))


def test_rational_rejects_vanishing_constant_denominator():
    with pytest.raises(ValueError):
        AnalyticSymbol.rational({(0,): 1.0}, {(1,): 1.0}, nvars=1)


def test_coefficient_text_round_trip_rational():
    phi = AnalyticSymbol.rational(
        {(1, 1): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        {(0, 0): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        nvars=2,
    )
    back = parse_coefficient_text(dump_coefficient_text(phi))
    assert back.nvars == 2 and back.rows == 1 and back.cols == 1
    g = TruncationGrid((3, 3))
    np.testing.assert_allclose(scalar_table(back, g), scalar_table(phi, g), atol=1e-15)


def test_coefficient_text_round_trip_matrix_valued():
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    c = AnalyticSymbol.constant(u, nvars=2)
    back = parse_coefficient_text(dump_coefficient_text(c))
    assert back.rows == back.cols == 2
    np.testing.assert_array_equal(dense.coefficient(back, (0, 0)), u)


def test_parse_errors_name_the_line():
    with pytest.raises(ValueError, match="line 2"):
        parse_coefficient_text("numerator\n1 0 0 bad 0.0\n")
    with pytest.raises(ValueError, match="denominator"):
        parse_coefficient_text("numerator\n0 0 0 0 1 0\ndenominator\n0 0 1 0 1 0\n")
    with pytest.raises(ValueError):
        parse_coefficient_text("# only a comment\n")



def test_malformed_number_names_the_true_line():
    text = "# header\n\nnumerator\n1 0 0 0 1.0 0.0\n0 1 0 0 abc 0.0\n"
    with pytest.raises(ValueError, match=r"line 5: value wants finite numbers, got 'abc'"):
        parse_coefficient_text(text)
    with pytest.raises(ValueError, match=r"line 2: index wants integers, got '1.5'"):
        parse_coefficient_text("numerator\n1.5 0 0 0 1.0 0.0\n")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_coefficient_rejected(bad):
    with pytest.raises(ValueError, match=f"line 2: value wants finite numbers, got '{bad}'"):
        parse_coefficient_text(f"numerator\n0 0 0 0 {bad} 0\n")

@pytest.mark.parametrize("make, shown", [
    (lambda: AnalyticSymbol.polynomial({(1.5, 0): 1.0, (1, 0): 2.0}, 2), "1.5"),
    (lambda: AnalyticSymbol.monomial((0.9, 2)), "0.9"),
    (lambda: AnalyticSymbol.rational({(0, 0): 1.0}, {(0, 0): 1.0, (0, 0.5): 0.1}, 2), "0.5"),
    (lambda: AnalyticSymbol.monomial(("1", 0)), "'1'"),
], ids=["polynomial", "monomial", "denominator", "string"])
def test_a_fractional_exponent_is_refused_by_name(make, shown):
    """1.5 is not truncated to 1, where its coefficient would be overwritten."""
    with pytest.raises(ValueError, match=f"^exponent must be an integer, got {shown}$"):
        make()


def test_integral_exponents_of_any_numeric_type_are_read_as_ints():
    s = AnalyticSymbol.polynomial({(np.int64(1), 2.0): 1.0, (0, np.float64(0)): 2.0}, 2)
    assert list(s.numerator) == [(1, 2), (0, 0)]
    assert all(type(x) is int for k in s.numerator for x in k)
    assert list(AnalyticSymbol.monomial((2.0, np.uint8(1))).numerator) == [(2, 1)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_coefficient_refused_by_the_constructor(bad):
    with pytest.raises(ValueError, match=r"coefficient at \(1, 0\) is not finite"):
        AnalyticSymbol.rational({(0, 0): 1.0}, {(0, 0): 1.0, (1, 0): bad}, nvars=2)
    with pytest.raises(ValueError, match=r"coefficient at \(1, 0\) is not finite"):
        AnalyticSymbol.polynomial({(1, 0): np.array([[1.0, bad]])}, nvars=2, cols=2)


@given(
    ncoef=st.integers(min_value=1, max_value=4),
    dcoef=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_recursion_inverts_denominator_convolution(ncoef, dcoef, seed):
    """q * (n/q) == n on any grid, coefficientwise, to rounding."""
    rng = np.random.default_rng(seed)
    g = TruncationGrid((3, 2))
    idx = list(g.multi_indices)
    num = {tuple(idx[i]): complex(*rng.normal(size=2)) for i in rng.choice(len(idx), ncoef)}
    den = {(0, 0): 1.0 + 0j}
    for i in rng.choice(len(idx) - 1, dcoef):
        den[tuple(idx[i + 1])] = complex(*(0.3 * rng.normal(size=2)))
    sym = AnalyticSymbol.rational(num, den, nvars=2)
    table = sym.taylor_table(g)[:, 0, 0]
    rank = rank_table(g)
    for k in g.multi_indices:
        acc = 0.0 + 0j
        for j, qj in den.items():
            prev = (k[0] - j[0], k[1] - j[1])
            if prev in rank:
                acc += qj * table[rank[prev]]
        want = num.get(k, 0.0)
        assert abs(acc - want) <= 1e-10 * (1 + abs(want))


def _taylor_table_by_entry(symbol, grid):
    """The entry-by-entry solve of q_0 c_k = n_k - sum_j q_j c_{k-j}, in graded
    order, in float64 when no coefficient of N or q has a nonzero imaginary
    part and in complex128 otherwise."""
    real = not any(np.any(np.imag(v)) for v in (*symbol.numerator.values(),
                                                *symbol.denominator.values()))
    dtype = float if real else complex
    part = np.real if real else np.asarray
    ranks = len(grid.multi_indices)
    table = np.zeros((ranks, symbol.rows, symbol.cols), dtype=dtype)
    q0 = part(symbol.denominator[(0,) * symbol.nvars])
    den_tail = [(k, part(v)) for k, v in symbol.denominator.items() if any(k)]
    rank = rank_table(grid)
    for r, k in enumerate(grid.multi_indices):
        acc = symbol.numerator.get(k)
        acc = np.zeros((symbol.rows, symbol.cols), dtype=dtype) if acc is None else part(acc).copy()
        for j, qj in den_tail:
            prev = tuple(k[i] - j[i] for i in range(symbol.nvars))
            if any(x < 0 for x in prev):
                continue
            acc -= qj * table[rank[prev]]
        table[r] = acc / q0
    return table


@pytest.mark.parametrize("a", [0.2j, -0.2j, 0.3, -0.3, 0.5 - 0.5j, -0.5 + 0.5j])
def test_taylor_table_keeps_signed_zeros_where_k_minus_j_leaves_the_box(a):
    """Rows that a denominator term does not reach keep their bytes, a -0
    part included, whatever the signs of the parts of q_j."""
    for symbol in (AnalyticSymbol.blaschke(a, 0, 1),
                   AnalyticSymbol.blaschke(a, 0, 2).matmul(AnalyticSymbol.blaschke(a * 1j, 1, 2))):
        grid = TruncationGrid((4,) * symbol.nvars)
        got, want = symbol.taylor_table(grid), _taylor_table_by_entry(symbol, grid)
        assert got.tobytes() == want.tobytes()
    zero = AnalyticSymbol.blaschke(0.2j, 0, 1).taylor_table(TruncationGrid((3,)))[0, 0, 0]
    assert np.signbit(zero.real) and zero.imag == -0.2
    if isinstance(a, float):
        # a real table reads the -0 sentinel for q_1 = -a < 0 and the +0 one
        # for q_1 > 0, so the -0 entry of N_0 stays -0 under either sign
        real = AnalyticSymbol.rational({(0,): np.array([[1.0, -0.0]])}, {(0,): 1.0, (1,): -a},
                                       nvars=1, cols=2)
        grid = TruncationGrid((4,))
        table = real.taylor_table(grid)
        assert table.dtype == np.float64
        assert table.tobytes() == _taylor_table_by_entry(real, grid).tobytes()
        assert np.signbit(table[0, 0, 1]) and table[0, 0, 0] == 1.0


def test_taylor_table_is_bit_identical_to_the_entry_by_entry_solve():
    from hardylab.corpus import corpus_entries

    b = AnalyticSymbol.blaschke(0.3 + 0.2j, 0, nvars=2).matmul(
        AnalyticSymbol.blaschke(-0.45j, 1, nvars=2))
    mixed = AnalyticSymbol.rational(
        {(0, 0): np.array([[1.0, 0.5j]]), (2, 1): np.array([[0.25, -1.0]])},
        {(0, 0): 2.0 - 1j, (1, 0): 0.3, (0, 2): -0.4j, (1, 1): 0.1 + 0.2j}, nvars=2, cols=2)
    three = AnalyticSymbol.rational(
        {(1, 0, 2): np.array([[0.5 - 0.5j], [1.0]])},
        {(0, 0, 0): 1.5, (1, 0, 0): -0.2j, (0, 1, 1): 0.3, (0, 0, 3): 0.1}, nvars=3, rows=2)
    cases = [(b, (6, 6)), (b, (0, 9)), (mixed, (5, 4)), (three, (3, 2, 4)),
             (AnalyticSymbol.monomial((7, 0)), (3, 3))]
    cases += [(e.symbol, e.caps) for e in corpus_entries(0) if e.symbol is not None]
    for symbol, caps in cases:
        grid = TruncationGrid(caps)
        got, want = symbol.taylor_table(grid), _taylor_table_by_entry(symbol, grid)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), caps
