"""Dilation of commuting contraction tuples into truncated shift grids."""

import numpy as np
import pytest

from hardylab.criteria import quotient_data, shift_power
from hardylab.dilation import (
    ContractionTuple,
    DilationError,
    brehmer_defect,
    canonical_dilation,
    dump_tuple_text,
    model_correspondence,
    parse_tuple_text,
    pureness_check,
    random_brehmer_pair,
)
from hardylab.grids import TruncationGrid
from hardylab.operators import shift_matrices
from hardylab.subspaces import submodule_projection
from hardylab.symbols import AnalyticSymbol


def jordan_pair():
    n = np.diag(np.ones(3), 1)
    return ContractionTuple.checked((n / 2, n @ n / 2))


# ---- tuple container -------------------------------------------------------

def test_checked_rejects_expansive_matrix():
    with pytest.raises(ValueError, match="norm"):
        ContractionTuple.checked((np.eye(2) * 1.5, np.zeros((2, 2))))


def test_checked_rejects_noncommuting_pair():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError, match="commute"):
        ContractionTuple.checked((a, a.T))


def test_tuple_needs_matching_shapes():
    with pytest.raises(ValueError, match="square"):
        ContractionTuple((np.zeros((2, 2)), np.zeros((3, 3))))
    with pytest.raises(ValueError, match="at least one"):
        ContractionTuple(())


def test_power_multiplies_entries():
    t = jordan_pair()
    manual = t.matrices[0] @ t.matrices[0] @ t.matrices[1]
    assert np.array_equal(shift_power(t.matrices, (2, 1)), manual)


# ---- defect sum ------------------------------------------------------------

def test_zero_pair_defect_is_one():
    t = ContractionTuple.checked((np.zeros((1, 1)), np.zeros((1, 1))))
    defect, psd, basis = brehmer_defect(t)
    assert psd
    assert defect.shape == (1, 1)
    assert defect[0, 0] == 1.0
    assert basis.shape == (1, 1)


def test_full_shift_defect_is_constants_projection():
    # the alternating sum telescopes to the rank-one projection onto the
    # constant monomial, with no rounding at all
    grid = TruncationGrid((3, 3))
    t = ContractionTuple(tuple(shift_matrices(grid)))
    defect, psd, basis = brehmer_defect(t)
    expected = np.zeros((grid.dim, grid.dim))
    expected[0, 0] = 1.0
    assert psd
    assert np.max(np.abs(defect - expected)) == 0.0
    assert basis.shape[1] == 1


def test_jordan_pair_defect_diagonal():
    defect, psd, basis = brehmer_defect(jordan_pair())
    assert psd
    off = defect - np.diag(np.diag(defect))
    assert np.max(np.abs(off)) == 0.0
    assert np.allclose(np.diag(defect).real, [9 / 16, 1 / 2, 3 / 4, 1], atol=0)
    assert basis.shape[1] == 4


def test_equal_nilpotent_pair_defect_not_psd():
    # T1 = T2 = s*N with s^2 > 1/2 drives the defect to diag(1 - 2 s^2, 1)
    s = 0.9
    n = s * np.diag(np.ones(1), 1)
    t = ContractionTuple.checked((n, n))
    defect, psd, _ = brehmer_defect(t)
    assert not psd
    assert abs(defect[0, 0] - (1 - 2 * s * s)) < 1e-15
    with pytest.raises(DilationError, match="not PSD"):
        canonical_dilation(t, (1, 1))


# ---- pureness --------------------------------------------------------------

def test_pureness_rules():
    nil = np.diag(np.ones(3), 1) / 2
    rep = pureness_check(nil)
    assert rep.verdict and rep.rule == "nilpotent" and rep.value == 0.0

    rep = pureness_check(np.array([[0.5]]))
    assert rep.verdict and rep.rule == "spectral_radius"
    assert rep.value == 0.5

    rep = pureness_check(np.array([[1.0]]))
    assert not rep.verdict
    assert rep.rule == "power_norm"
    assert rep.value == 1.0


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


def test_scalar_pair_needs_large_grid():
    t = ContractionTuple.checked((np.array([[0.3]]), np.array([[0.5 + 0.2j]])))
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
    t = ContractionTuple(data.compressions.operators)

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
    t = ContractionTuple.checked((np.array([[lam]]), np.array([[mu]])))
    rep = model_correspondence(t)
    expected = (1 - abs(lam) ** 2) * (1 - abs(mu) ** 2)
    assert abs(rep.residuals["annihilation"] - expected) < 1e-15


def test_jordan_pair_is_not_model():
    rep = model_correspondence(jordan_pair())
    assert not rep.verdicts["annihilation"]
    assert rep.verdicts["brehmer_min_eig"]


# ---- file format -----------------------------------------------------------

def test_tuple_text_round_trip():
    t = jordan_pair()
    back = parse_tuple_text(dump_tuple_text(t))
    assert back.n == t.n and back.dim == t.dim
    for x, y in zip(t.matrices, back.matrices):
        assert np.array_equal(x, y)


def test_tuple_text_round_trip_complex():
    t = random_brehmer_pair(3)
    back = parse_tuple_text(dump_tuple_text(t))
    for x, y in zip(t.matrices, back.matrices):
        assert np.array_equal(x, y)


def test_tuple_text_errors_name_the_problem():
    with pytest.raises(ValueError, match="dim"):
        parse_tuple_text("count 2\n")
    with pytest.raises(ValueError, match="matrix 0"):
        parse_tuple_text("dim 1\ncount 1\n0.0 0.0\n")
    with pytest.raises(ValueError, match="want 2 floats"):
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
