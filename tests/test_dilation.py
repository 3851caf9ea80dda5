"""Dilation of commuting contraction tuples into truncated shift grids."""

import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

import dense
from hardylab import dilation
from hardylab.criteria import quotient_data, shift_power
from hardylab.dilation import (
    ContractionTuple,
    DilationError,
    brehmer_defect,
    canonical_dilation,
    model_correspondence,
    parse_tuple_text,
    pureness_check,
    random_brehmer_pair,
)
from hardylab.grids import TruncationGrid
from hardylab.operators import shift_matrices, spectral_norm
from hardylab.scenarios import parse_scenario
from hardylab.subspaces import RANK_TOL, submodule_projection
from hardylab.symbols import AnalyticSymbol


def jordan_pair():
    n = np.diag(np.ones(3), 1)
    return ContractionTuple((n / 2, n @ n / 2))


def real_brehmer_pair(seed, size):
    """A pair drawn as random_brehmer_pair draws one, with real coefficients:
    two real polynomials without constant term in one Jordan block, scaled
    to norm 0.9 and shrunk by 0.8 until the defect sum is PSD."""
    rng = np.random.default_rng(seed)
    nil = np.diag(np.ones(size - 1), 1)
    pair = [sum(c * np.linalg.matrix_power(nil, p)
                for p, c in enumerate(rng.normal(size=size - 1), 1)) for _ in range(2)]
    t = ContractionTuple(tuple(m * 0.9 / max(map(spectral_norm, pair)) for m in pair))
    while not brehmer_defect(t)[1]:
        t = ContractionTuple(tuple(0.8 * m for m in t.matrices))
    return t


# ---- tuple container -------------------------------------------------------

def test_checked_rejects_expansive_matrix():
    with pytest.raises(ValueError, match="norm"):
        ContractionTuple((np.eye(2) * 1.5, np.zeros((2, 2))))


def test_checked_rejects_noncommuting_pair():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError, match="commute"):
        ContractionTuple((a, a.T))


def test_noncommuting_nilpotent_pair_is_refused_in_every_form():
    # N/2 and N^T/2 are contractions with ||ab - ba|| = 0.25; a tuple built
    # directly and the matrices handed to model_correspondence are refused alike
    n = np.diag(np.ones(2), 1)
    a, b = n / 2, n.T / 2
    with pytest.raises(ValueError, match="matrices 0 and 1 do not commute"):
        ContractionTuple((a, b))
    with pytest.raises(ValueError, match="matrices 0 and 1 do not commute"):
        model_correspondence([a, b])


def test_tuple_needs_matching_shapes():
    with pytest.raises(ValueError, match="square"):
        ContractionTuple((np.zeros((2, 2)), np.zeros((3, 3))))
    with pytest.raises(ValueError, match="at least one"):
        ContractionTuple(())


@pytest.mark.parametrize("entries", [[1.0], [np.array(0.5), np.zeros((1, 1))], [np.zeros(2)],
                                     [np.zeros((2, 2)), 1.0], [np.zeros((2, 3))]],
                         ids=["0-d", "0-d-first-of-two", "1-d", "0-d-second", "2x3"])
def test_tuple_refuses_an_entry_that_is_no_square_matrix(entries):
    """A 0-d first entry is refused by the shape check, not by an
    IndexError from reading the side of a shape it lacks."""
    with pytest.raises(ValueError, match="square"):
        ContractionTuple(entries)


def test_power_multiplies_entries():
    t = jordan_pair()
    manual = t.matrices[0] @ t.matrices[0] @ t.matrices[1]
    assert np.array_equal(shift_power(t.matrices, (2, 1)), manual)


# ---- defect sum ------------------------------------------------------------

def test_zero_pair_defect_is_one():
    t = ContractionTuple((np.zeros((1, 1)), np.zeros((1, 1))))
    defect, psd, root = brehmer_defect(t)
    assert psd
    assert defect.shape == (1, 1)
    assert defect[0, 0] == 1.0
    assert root.shape == (1, 1)


def test_full_shift_defect_is_constants_projection():
    # the alternating sum telescopes to the rank-one projection onto the
    # constant monomial, with no rounding at all
    grid = TruncationGrid((3, 3))
    t = ContractionTuple(tuple(shift_matrices(grid)))
    defect, psd, root = brehmer_defect(t)
    expected = np.zeros((grid.dim, grid.dim))
    expected[0, 0] = 1.0
    assert psd
    assert np.max(np.abs(defect - expected)) == 0.0
    assert root.shape == (1, grid.dim)


def test_jordan_pair_defect_diagonal():
    defect, psd, root = brehmer_defect(jordan_pair())
    assert psd
    off = defect - np.diag(np.diag(defect))
    assert np.max(np.abs(off)) == 0.0
    assert np.allclose(np.diag(defect).real, [9 / 16, 1 / 2, 3 / 4, 1], atol=0)
    assert root.shape == (4, 4)


def test_defect_in_n_steps_is_the_subset_sum():
    # three polynomials in one seeded matrix commute; the n-step defect
    # must equal sum over subsets F of (-1)^|F| T_F T_F*
    rng = np.random.default_rng(7)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a *= 0.5 / spectral_norm(a)
    eye = np.eye(5)
    mats = (a, 0.6 * a @ a - 0.2 * a, 0.3 * eye + 0.4 * a @ a @ a)
    t = ContractionTuple(mats)
    want = np.zeros((5, 5), dtype=complex)
    for r in range(t.n + 1):
        for subset in itertools.combinations(range(t.n), r):
            tf = eye.astype(complex)
            for i in subset:
                tf = tf @ t.matrices[i]
            want += (-1) ** r * tf @ tf.conj().T
    defect, _, _ = brehmer_defect(t)
    assert np.max(np.abs(defect - want)) <= 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_root_squares_to_the_clamped_defect(seed):
    defect, psd, root = brehmer_defect(random_brehmer_pair(seed, 8))
    clamped = dense.psd_sqrt(defect) @ dense.psd_sqrt(defect)
    assert psd
    assert np.max(np.abs(root.conj().T @ root - clamped)) <= 1e-14


def test_root_clamps_a_tiny_negative_eigenvalue():
    # T1 = T2 = s N with 1 - 2 s^2 = -1e-12: the defect diag(-1e-12, 1)
    # passes as PSD, and its root keeps only the unit eigenvalue
    s = np.sqrt((1 + 1e-12) / 2)
    n = s * np.diag(np.ones(1), 1)
    defect, psd, root = brehmer_defect(ContractionTuple((n, n)))
    assert psd and defect[0, 0].real < 0
    assert root.shape == (1, 2)
    assert np.max(np.abs(root.conj().T @ root - np.diag([0.0, 1.0]))) <= 1e-14


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("draw", [random_brehmer_pair, real_brehmer_pair])
def test_root_squares_to_the_defect_with_the_cut_eigenvalues_zeroed(draw, seed):
    defect, _, root = brehmer_defect(draw(seed, 8))
    w, v = np.linalg.eigh(defect)
    kept = np.where(w > RANK_TOL * w.max(), w, 0.0)
    assert np.max(np.abs(root.conj().T @ root - (v * kept) @ v.conj().T)) <= 1e-15


def test_root_zeroes_a_tiny_positive_eigenvalue_below_the_cut():
    # T1 = T2 = s N with 1 - 2 s^2 = 1e-12: the defect diag(1e-12, 1) is
    # PSD, and 1e-12 lies below the cut RANK_TOL, so the root keeps one row
    s = np.sqrt((1 - 1e-12) / 2)
    n = s * np.diag(np.ones(1), 1)
    defect, psd, root = brehmer_defect(ContractionTuple((n, n)))
    assert psd and 0 < defect[0, 0] < RANK_TOL
    assert root.shape == (1, 2)
    assert np.max(np.abs(root.conj().T @ root - np.diag([0.0, 1.0]))) <= 1e-15


def test_the_defect_is_decomposed_once(monkeypatch):
    t = random_brehmer_pair(3, 8)
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(dilation.np.linalg, "eigh", counted)
    canonical_dilation(t, (8, 8), tail_tol=1e-12)
    assert calls == [(8, 8)]
    calls.clear()
    model_correspondence(t)
    assert calls == []


def test_equal_nilpotent_pair_defect_not_psd():
    # T1 = T2 = s*N with s^2 > 1/2 drives the defect to diag(1 - 2 s^2, 1)
    s = 0.9
    n = s * np.diag(np.ones(1), 1)
    t = ContractionTuple((n, n))
    defect, psd, _ = brehmer_defect(t)
    assert not psd
    assert abs(defect[0, 0] - (1 - 2 * s * s)) < 1e-15
    with pytest.raises(DilationError, match="not PSD"):
        canonical_dilation(t, (1, 1))


# ---- pureness --------------------------------------------------------------

def test_pureness_rules():
    assert pureness_check(np.diag(np.ones(3), 1) / 2) == (True, 0.0)
    assert pureness_check(np.array([[0.5]])) == (True, 0.5)
    assert pureness_check(np.array([[1.0]])) == (False, 1.0)


def test_pureness_rejects_rectangular():
    with pytest.raises(ValueError, match="square"):
        pureness_check(np.zeros((2, 3)))


def test_dilation_rejects_impure_entry():
    t = ContractionTuple((np.array([[1.0]]), np.array([[0.0]])))
    with pytest.raises(DilationError, match="not pure"):
        canonical_dilation(t, (2, 2))


# ---- canonical dilation ----------------------------------------------------

def test_zero_pair_dilation_embeds_constants():
    t = ContractionTuple((np.zeros((1, 1)), np.zeros((1, 1))))
    d = canonical_dilation(t, (2, 2))
    assert d.isometry_residual == 0.0
    assert d.intertwining_residual == 0.0
    assert d.tail_mass == 0.0
    expected = np.zeros((d.grid.dim, 1))
    expected[0, 0] = 1.0
    assert np.max(np.abs(d.pi - expected)) == 0.0


def test_jordan_pair_dilation_exact():
    d = canonical_dilation(jordan_pair(), (4, 4))
    assert d.grid.channels == 4
    assert d.isometry_residual <= 1e-14
    assert d.intertwining_residual == 0.0
    assert d.tail_mass == 0.0


def test_seeded_nilpotent_pairs_dilate_exactly():
    for seed in range(20):
        t = random_brehmer_pair(seed)
        d = canonical_dilation(t, (4, 4), tail_tol=1e-12)
        assert d.isometry_residual <= 1e-12, seed
        assert d.intertwining_residual <= 1e-12, seed
        assert d.tail_mass <= 1e-12, seed


def test_random_pair_is_deterministic():
    a = random_brehmer_pair(7)
    b = random_brehmer_pair(7)
    for x, y in zip(a.matrices, b.matrices):
        assert np.array_equal(x, y)


def test_random_pairs_keep_their_draws():
    # the seeded pairs are benchmark inputs: their bytes must not move
    digest = hashlib.sha256()
    for seed in range(4):
        for size in (4, 8):
            for m in random_brehmer_pair(seed, size).matrices:
                digest.update(m.tobytes())
    assert digest.hexdigest() == (
        "aef3e573df0f4ceeaff0245e5ec9a1db4fa7ed8e754ead0ac1f4c0768f0b6302")


_N = np.diag(np.ones(3), 1)
DTYPE_CASES = {
    # name: (matrices, caps, entry dtypes, dtype of D, root and Pi)
    "jordan": (jordan_pair().matrices, (4, 4), (float, float), float),
    "jordan-as-complex": ((_N / 2 + 0j, _N @ _N / 2 + 0j), (4, 4), (float, float), float),
    "real-seeded": (real_brehmer_pair(3, 8).matrices, (8, 8), (float, float), float),
    "seeded": (random_brehmer_pair(3, 8).matrices, (8, 8), (complex, complex), complex),
    "real-beside-complex": ((_N / 2, 0.5j * _N @ _N), (4, 4), (float, complex), complex),
}


@pytest.mark.parametrize("name", sorted(DTYPE_CASES))
def test_the_dtype_follows_the_entries(name):
    """Each entry is read by grids._as_data, and promotion does the rest:
    a real tuple keeps float64 in its entries, D, the root and Pi."""
    matrices, caps, entries, dtype = DTYPE_CASES[name]
    t = ContractionTuple(matrices)
    defect, _, root = brehmer_defect(t)
    d = canonical_dilation(t, caps, tail_tol=1e-12)
    assert tuple(m.dtype for m in t.matrices) == tuple(map(np.dtype, entries))
    assert {defect.dtype, root.dtype, d.pi.dtype} == {np.dtype(dtype)}
    assert d.isometry_residual <= 1e-14 and d.intertwining_residual <= 1e-14


def test_scalar_pair_needs_large_grid():
    t = ContractionTuple((np.array([[0.3]]), np.array([[0.5 + 0.2j]])))
    with pytest.raises(DilationError, match="grid too small"):
        canonical_dilation(t, (4, 4), tail_tol=1e-10)
    d = canonical_dilation(t, (40, 40), tail_tol=1e-6)
    assert d.isometry_residual <= 1e-12
    assert d.intertwining_residual <= 1e-10


def test_caps_count_must_match():
    with pytest.raises(ValueError, match="caps"):
        canonical_dilation(jordan_pair(), (4, 4, 4))


# ---- model correspondence --------------------------------------------------

def test_extracted_monomial_tuple_is_model():
    # compressions to the quotient of z1 z2 stay exactly nilpotent, keep a
    # PSD defect sum, and dilate back with no error at the source caps
    sym = AnalyticSymbol.monomial((1, 1))
    grid = TruncationGrid((5, 5))
    data = quotient_data(submodule_projection(sym, grid), margins=(1, 1))
    t = ContractionTuple(data.compressions)

    defect, psd, _ = brehmer_defect(t)
    assert psd
    assert np.linalg.eigvalsh(defect)[0] >= -1e-12

    d = canonical_dilation(t, (5, 5))
    assert d.isometry_residual <= 1e-12
    assert d.intertwining_residual <= 1e-12
    assert d.tail_mass <= 1e-12


def test_model_correspondence_symbol_direction():
    rep = model_correspondence(AnalyticSymbol.monomial((1, 1)), caps=(5, 5))
    assert rep.name == "model_correspondence_symbol"
    assert rep.verdict
    assert rep.residuals["annihilation"] <= 1e-10
    assert rep.residuals["brehmer_min_eig"] >= -1e-10
    assert rep.verdicts["pureness_0"] and rep.verdicts["pureness_1"]


def test_model_correspondence_on_a_constant_unitary_has_an_empty_quotient():
    # S is the whole grid, so the extracted tuple acts on {0}: its empty
    # defect sum is PSD, its entries are pure, and there is nothing to dilate
    u = np.array([[0.6, 0.8], [-0.8, 0.6]])
    rep = model_correspondence(AnalyticSymbol.constant(u, 2), caps=(3, 3))
    assert rep.verdict
    assert set(rep.residuals.values()) == {0.0}
    t = ContractionTuple((np.zeros((0, 0)), np.zeros((0, 0))))
    assert brehmer_defect(t)[1]
    with pytest.raises(DilationError, match="defect space is trivial"):
        canonical_dilation(t, (3, 3))


def test_symbol_direction_reads_compressions_that_commute_only_to_rounding():
    # the compressions of b_0.05(z1) b_0.04(z2) at caps (6, 6) commute to
    # 7.8e-10 only, above COMMUTATION_TOL; they are read as matrices, and
    # the residuals stay those the plain extraction gave, bit for bit; the
    # symbol's coefficients are real, so the bits are those of real
    # (float64) arithmetic
    sym = AnalyticSymbol.blaschke(0.05, 0, 2).matmul(AnalyticSymbol.blaschke(0.04, 1, 2))
    rep = model_correspondence(sym, caps=(6, 6))
    assert rep.residuals == {
        "annihilation": float.fromhex("0x1.59c80548bf910p-53"),
        "brehmer_min_eig": float.fromhex("-0x1.71177ee66d9c0p-42"),
        "pureness_0": float.fromhex("0x1.99999999999acp-5"),
        "pureness_1": float.fromhex("0x1.47ae147ae148cp-5"),
    }
    assert rep.verdict


def test_model_correspondence_symbol_needs_caps():
    with pytest.raises(ValueError, match="caps"):
        model_correspondence(AnalyticSymbol.monomial((1, 1)))


def test_zero_pair_fails_model_with_unit_residual():
    # quotient by everything except constants: both defects are the
    # identity, so the annihilation product has norm exactly one
    t = ContractionTuple((np.zeros((1, 1)), np.zeros((1, 1))))
    rep = model_correspondence(t)
    assert rep.name == "model_correspondence_tuple"
    assert rep.residuals["annihilation"] == 1.0
    assert not rep.verdict
    assert rep.verdicts["brehmer_min_eig"] and rep.verdicts["pureness_0"]


def test_scalar_pair_annihilation_closed_form():
    lam, mu = 0.3, 0.5 + 0.2j
    t = ContractionTuple((np.array([[lam]]), np.array([[mu]])))
    rep = model_correspondence(t)
    expected = (1 - abs(lam) ** 2) * (1 - abs(mu) ** 2)
    assert abs(rep.residuals["annihilation"] - expected) < 1e-15


def test_jordan_pair_is_not_model():
    rep = model_correspondence(jordan_pair())
    assert not rep.verdicts["annihilation"]
    assert rep.verdicts["brehmer_min_eig"]


# ---- file format -----------------------------------------------------------

JORDAN_TEXT = """\
dim 4
count 2
matrix 0
0.0 0.0 0.5 0.0 0.0 0.0 0.0 0.0
0.0 0.0 0.0 0.0 0.5 0.0 0.0 0.0
0.0 0.0 0.0 0.0 0.0 0.0 0.5 0.0
0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
matrix 1
0.0 0.0 0.0 0.0 0.5 0.0 0.0 0.0
0.0 0.0 0.0 0.0 0.0 0.0 0.5 0.0
0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.0
"""


def test_tuple_text_round_trip():
    t, want = parse_tuple_text(JORDAN_TEXT), jordan_pair()
    assert t.n == want.n and t.dim == want.dim
    for x, y in zip(t.matrices, want.matrices):
        assert np.array_equal(x, y)


COMPLEX_TEXT = """\
dim 2
count 2
matrix 0
0.0 0.0 0.30000000000000004 -1.2345678901234568e-05
0.0 0.0 0.0 0.0
matrix 1
0.0 0.0 -0.1111111111111111 0.7071067811865476
0.0 0.0 0.0 0.0
"""


def test_tuple_text_round_trip_complex():
    # each entry is the shortest repr of its float, so parsing loses nothing
    t = parse_tuple_text(COMPLEX_TEXT)
    want = ("0.30000000000000004 -1.2345678901234568e-05",
            "-0.1111111111111111 0.7071067811865476")
    for m, text in zip(t.matrices, want):
        assert np.count_nonzero(m) == 1
        assert f"{float(m[0, 1].real)!r} {float(m[0, 1].imag)!r}" == text


def test_tuple_text_errors_name_the_problem():
    with pytest.raises(ValueError, match="dim"):
        parse_tuple_text("count 2\n")
    with pytest.raises(ValueError, match="matrix 0"):
        parse_tuple_text("dim 1\ncount 1\n0.0 0.0\n")
    with pytest.raises(ValueError, match=r"line 4: matrix 0 row 0 wants 2 floats \(re im per entry\), got 1"):
        parse_tuple_text("dim 1\ncount 1\nmatrix 0\n0.0\n")
    with pytest.raises(ValueError, match="trailing"):
        parse_tuple_text("dim 1\ncount 1\nmatrix 0\n0.0 0.0\nextra stuff here\n")
    with pytest.raises(ValueError, match="positive"):
        parse_tuple_text("dim 0\ncount 1\n")



def test_tuple_text_line_numbers_count_comments_and_blanks():
    head = "# a commuting pair\n\ndim 1\ncount 2\n"
    with pytest.raises(ValueError, match=r"line 6: matrix 0 row 0 wants finite numbers, got 'abc'"):
        parse_tuple_text(head + "matrix 0\nabc 0.0\nmatrix 1\n0.0 0.0\n")
    with pytest.raises(ValueError, match=r"line 8: expected 'matrix 1' label"):
        parse_tuple_text(head + "matrix 0\n0.0 0.0\n\nmatrix 2\n0.0 0.0\n")
    with pytest.raises(ValueError, match=r"line 4: count wants integers, got 'two'"):
        parse_tuple_text("# c\n\ndim 1\ncount two\n")


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_tuple_text_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match=f"line 4: matrix 0 row 0 wants finite numbers, got '{bad}'"):
        parse_tuple_text(f"dim 1\ncount 1\nmatrix 0\n{bad} 0.0\n")

def test_tuple_text_comments_and_commas():
    text = "dim 1   # one dimensional\ncount 2\nmatrix 0\n0.25, 0.0\nmatrix 1\n0.0, 0.5\n"
    t = parse_tuple_text(text)
    assert t.matrices[0][0, 0] == 0.25
    assert t.matrices[1][0, 0] == 0.5j


# ---- the dilation against the dense formulas it replaced ---------------------

def _extracted_monomial_tuple():
    data = quotient_data(submodule_projection(AnalyticSymbol.monomial((1, 1)),
                                              TruncationGrid((5, 5))), margins=(1, 1))
    return ContractionTuple(data.compressions)


DILATIONS = {
    # name: (tuple, caps, tail_tol)
    "jordan": (jordan_pair(), (4, 4), 1e-8),
    "seeded": (random_brehmer_pair(3, size=8), (8, 8), 1e-12),
    "extracted": (_extracted_monomial_tuple(), (5, 5), 1e-8),
    "scalar": (ContractionTuple((np.array([[0.3]]), np.array([[0.5 + 0.2j]]))),
               (40, 40), 1e-6),
}


@pytest.mark.parametrize("name", sorted(DILATIONS))
def test_dilation_matches_dense_formulas(name):
    t, caps, tail_tol = DILATIONS[name]
    d = canonical_dilation(t, caps, tail_tol=tail_tol)
    grid = d.grid
    defect = brehmer_defect(t)[0]
    w, v = np.linalg.eigh(defect)
    basis = v[:, w > RANK_TOL * w[-1]]
    root = basis.conj().T @ dense.psd_sqrt(defect)
    assert grid.channels == basis.shape[1]
    pi = np.zeros((grid.dim, t.dim), dtype=complex)
    for k in grid.multi_indices:
        block = root @ shift_power([m.conj().T for m in t.matrices], k)
        for s in range(grid.channels):
            pi[int(grid.ranks(k)) * grid.channels + s] = block[s]
    assert np.max(np.abs(d.pi - pi)) <= 1e-13
    assert abs(d.isometry_residual - spectral_norm(pi.conj().T @ pi - np.eye(t.dim))) <= 1e-13
    want = [spectral_norm(pi @ m.conj().T - shift.conj().T @ pi)
            for m, shift in zip(t.matrices, shift_matrices(grid))]
    np.testing.assert_allclose(d.intertwining_residuals, want, rtol=0, atol=1e-13)
    assert d.intertwining_residual <= 1e-10


def _brehmer_triple(seed, size):
    """Three complex polynomials without constant term in one Jordan block,
    drawn from default_rng(seed), scaled to norm 0.9 and shrunk by 0.8
    until the defect sum is PSD: a commuting nilpotent triple."""
    rng = np.random.default_rng(seed)
    nil = np.diag(np.ones(size - 1), 1)
    triple = [sum(c * np.linalg.matrix_power(nil, p) for p, c in
                  enumerate(rng.normal(size=size - 1) + 1j * rng.normal(size=size - 1), 1))
              for _ in range(3)]
    t = ContractionTuple(tuple(m * 0.9 / max(map(spectral_norm, triple)) for m in triple))
    while not brehmer_defect(t)[1]:
        t = ContractionTuple(tuple(0.8 * m for m in t.matrices))
    return t


def _jordan_scenario():
    text = (Path(__file__).resolve().parent.parent / "scenarios" / "jordan-dilation.cfg").read_text()
    s = parse_scenario(text)
    return s.tuple_source, s.caps


CHAINS = {
    # name: (tuple, caps)
    "single": (ContractionTuple((0.9 * np.diag(np.ones(4), 1),)), (5,)),
    "single-short": (ContractionTuple((0.9 * np.diag(np.ones(4), 1),)), (2,)),
    "jordan-dilation": _jordan_scenario(),
    "jordan-zero-cap": (jordan_pair(), (0, 4)),
    "seeded": (random_brehmer_pair(3, size=8), (8, 8)),
    "real-seeded": (real_brehmer_pair(3, 8), (6, 3)),
    "triple": (_brehmer_triple(5, 4), (3, 4, 2)),
    "triple-zero-cap": (_brehmer_triple(6, 3), (2, 0, 3)),
    "origin": (_brehmer_triple(7, 3), (0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_batched_levels_match_the_rank_chain_bytewise(name):
    """Pi, both residuals and the tail equal those of the adjoint powers
    formed one rank at a time (dense.chain_dilation), byte for byte: each
    level's batched product is the same chain of products."""
    t, caps = CHAINS[name]
    got = canonical_dilation(t, caps, tail_tol=np.inf)
    want = dense.chain_dilation(t, caps)
    assert got.grid == want.grid
    assert got.pi.dtype == want.pi.dtype and got.pi.tobytes() == want.pi.tobytes()
    assert got.isometry_residual.hex() == want.isometry_residual.hex()
    assert [r.hex() for r in got.intertwining_residuals] == \
        [r.hex() for r in want.intertwining_residuals]
    assert got.tail_mass.hex() == want.tail_mass.hex()
    if name.startswith("jordan"):
        assert got.pi.dtype == np.float64
    if name in ("single-short", "jordan-zero-cap", "real-seeded"):
        assert got.tail_mass > 0.0


def test_dilation_forms_no_dense_shift(no_dense_operators):
    for t, caps, tail_tol in DILATIONS.values():
        d = canonical_dilation(t, caps, tail_tol=tail_tol)
        assert d.intertwining_residual <= 1e-10
