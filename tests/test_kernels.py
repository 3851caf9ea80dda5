"""Polydisc kernels, the factored reduced kernel, and the Gram certificate."""

import itertools

import numpy as np
import pytest

import dense
from hardylab.cli import main
from hardylab.kernels import (
    GRAM_BUDGET,
    _gram,
    _sample_pairs,
    gram_matrix,
    gram_negativity_search,
    kernel_factor,
    kernel_sum_oracle,
    rational_inner_witness,
    reduced_kernel_suite,
    reduced_szego_kernel,
    szego_kernel,
)
from hardylab.symbols import AnalyticSymbol


def test_szego_closed_form():
    z, w = (0.3, 0.2), (0.1, -0.4)
    expected = 1 / ((1 - 0.3 * 0.1) * (1 - 0.2 * (-0.4)))
    assert abs(szego_kernel(z, w) - expected) < 1e-15


def test_szego_rejects_boundary_points():
    with pytest.raises(ValueError, match="open polydisc"):
        szego_kernel((1.0, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError, match="open polydisc"):
        kernel_sum_oracle((0.5, 0.5), (0.5, 1.2), (4, 4))


NON_FINITE_POINT = {
    "szego_kernel": lambda p: szego_kernel(p, (0.1, 0.1)),
    "kernel_factor": lambda p: kernel_factor((0.1, 0.1), p),
    "reduced_szego_kernel": lambda p: reduced_szego_kernel(p, (0.1, 0.1)),
    "kernel_sum_oracle": lambda p: kernel_sum_oracle((0.1, 0.1), p, (4, 4)),
    "gram_matrix": lambda p: gram_matrix([(0.1, 0.2), p]),
    "blaschke": lambda p: AnalyticSymbol.blaschke(p[0], 0, 2),
}


@pytest.mark.parametrize("coordinate", [float("nan"), complex(0.1, float("inf"))])
@pytest.mark.parametrize("name", sorted(NON_FINITE_POINT))
def test_a_non_finite_coordinate_is_not_inside_the_open_disc(name, coordinate):
    with pytest.raises(ValueError, match="open (poly)?disc"):
        NON_FINITE_POINT[name]((coordinate, 0.1))


def test_reduced_kernel_matches_basis_sum():
    z, w = (0.3, 0.2), (0.1, -0.4)
    dev = abs(reduced_szego_kernel(z, w) - kernel_sum_oracle(z, w, (20, 20)))
    assert dev < 1e-10


def _loop_oracle(z, w, caps):
    """The scalar basis sum, one multi-index at a time."""
    out = 0j
    for k in itertools.product(*(range(c + 1) for c in caps)):
        if sum(k) == 0:
            continue
        term = 1 + 0j
        for zi, wi, ki in zip(z, w, k):
            term *= zi ** ki * np.conj(wi) ** ki
        out += term
    return out


@pytest.mark.parametrize("z, w, caps", [
    ((0.3, 0.2), (0.1, -0.4), (3, 3)),
    ((0.5 + 0.3j, -0.2j), (0.4 - 0.1j, 0.6), (20, 20)),
    ((0.7j, 0.5), (0.6, -0.3 + 0.2j), (4, 0)),
    ((0.3, -0.2j, 0.4 + 0.1j), (0.5j, 0.2, -0.6), (3, 4, 2)),
])
def test_kernel_sum_oracle_matches_the_scalar_loop(z, w, caps):
    got, want = kernel_sum_oracle(z, w, caps), _loop_oracle(z, w, caps)
    # the sums differ only in the order of rounding: a few ulps per term
    terms = np.prod(np.array(caps) + 1)
    assert abs(got - want) <= 4 * terms * np.finfo(float).eps * (1 + abs(want))


@pytest.mark.parametrize("z, w, caps", [
    ((0.5, 0.5), (0.5, 0.5), (3, 3, 3)),
    ((0.5, 0.5), (0.5,), (3, 3)),
    ((0.5,), (0.5, 0.5), (3, 3)),
])
def test_kernel_sum_oracle_rejects_mismatched_lengths(z, w, caps):
    with pytest.raises(ValueError, match="same length"):
        kernel_sum_oracle(z, w, caps)


def test_gram_matrix_matches_kernel_factor_entry_by_entry():
    rng = np.random.default_rng(3)
    pts = [tuple(0.9 * rng.uniform(size=2) * np.exp(2j * np.pi * rng.uniform(size=2)))
           for _ in range(5)]
    g = gram_matrix(pts)
    assert g.shape == (5, 5)
    for a in range(5):
        for b in range(5):
            want = (kernel_factor(pts[a], pts[b]) + np.conj(kernel_factor(pts[b], pts[a]))) / 2
            assert abs(g[a, b] - want) <= 4 * np.finfo(float).eps * (1 + abs(want))
    assert gram_matrix([]).shape == (0, 0)


def test_gram_matrix_validates_every_point():
    with pytest.raises(ValueError, match=r"points\[1\]\[0\]"):
        gram_matrix([(0.1, 0.2), (1.0, 0.0)])
    with pytest.raises(ValueError, match="two variables"):
        gram_matrix([(0.1, 0.2), (0.1, 0.2, 0.3)])


def test_reduced_kernel_drops_the_constant():
    z, w = (0.25 + 0.1j, -0.3), (0.2, 0.4j)
    assert abs(reduced_szego_kernel(z, w) - (szego_kernel(z, w) - 1)) < 1e-15


def test_reduced_kernel_vanishes_at_origin():
    assert reduced_szego_kernel((0.3, 0.2), (0.0, 0.0)) == 0.0
    assert reduced_szego_kernel((0.0, 0.0), (0.5, -0.1)) == 0.0


def test_factor_is_hermitian_as_a_kernel():
    z, w = (0.3 + 0.2j, -0.1), (0.4, 0.2 - 0.5j)
    assert abs(kernel_factor(z, w) - np.conj(kernel_factor(w, z))) < 1e-15


def test_pinned_gram_witness_eigenvalue():
    g = gram_matrix([(0.9, 0.9), (-0.9, -0.9)])
    low = np.linalg.eigvalsh(g)[0]
    # diagonal 0.81*0.19 + 0.81, off-diagonal -0.81*1.81 - 0.81
    assert abs(low - (0.9639 - 2.2761)) < 1e-12


def test_search_finds_negative_eigenvalue_deterministically():
    a = gram_negativity_search()
    b = gram_negativity_search()
    assert a.found
    assert a.min_eigenvalue < -1e-6
    assert a.min_eigenvalue == b.min_eigenvalue
    assert a.points == b.points


def test_search_flag_matches_threshold():
    w = gram_negativity_search(seed=5)
    assert w.found == (w.min_eigenvalue < -1e-6)
    assert w.candidates == GRAM_BUDGET == 64


@pytest.mark.parametrize("seed", range(16))
def test_search_is_bit_identical_to_the_candidate_by_candidate_loop(seed):
    found, low, points, matrix = dense.gram_search_by_candidate(seed)
    w = gram_negativity_search(seed)
    assert w.found == found
    assert w.min_eigenvalue == low and type(w.min_eigenvalue) is float
    assert np.array(w.points).tobytes() == np.array(points).tobytes()
    assert w.matrix.shape == matrix.shape and w.matrix.tobytes() == matrix.tobytes()


def test_gram_of_a_stack_is_gram_matrix_of_each_set():
    rng = np.random.default_rng(8)
    for size in (1, 2, 3, 4):
        stack = 0.9 * rng.uniform(size=(6, size, 2)) * np.exp(2j * np.pi * rng.uniform(size=(6, size, 2)))
        grams = _gram(stack)
        assert grams.shape == (6, size, size)
        for points, g in zip(stack, grams):
            assert g.tobytes() == gram_matrix([tuple(p) for p in points]).tobytes()


def test_pairs_drawn_in_one_call_are_the_sequential_draws():
    for seed in (0, 1, 7):
        pairs = _sample_pairs(seed)
        assert pairs.shape == (20, 2, 2)
        assert pairs.tobytes() == np.array(dense.sequential_pairs(seed)).tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_suite_deviation_is_the_pair_by_pair_maximum(seed):
    rep = reduced_kernel_suite(seed=seed)
    devs, sizes = [], []
    for z, w in dense.sequential_pairs(seed):
        k = reduced_szego_kernel(z, w)
        devs.append(abs(k - kernel_sum_oracle(z, w, rep["kernel"]["caps"])))
        sizes.append(abs(k))
    want, size = max(devs), max(sizes)
    # the suite evaluates the closed form on arrays, the public kernel on
    # one pair: the two round differently, by a few ulps of K
    assert abs(rep["kernel"]["max_deviation"] - want) <= 4 * np.finfo(float).eps * (1 + size)
    assert type(rep["kernel"]["max_deviation"]) is float


def test_suite_keeps_its_input_checks(capsys):
    with pytest.raises(ValueError, match="same length"):
        reduced_kernel_suite(caps=(3, 3, 3))
    rep = reduced_kernel_suite(caps=(0, 4))
    assert rep["kernel"]["caps"] == (0, 4)
    assert not rep["verdicts"]["kernel_identity"]  # caps 0 cannot reach the closed form
    assert main(["example42", "--degree", "3,3,3"]) == 2
    assert "caps (3, 3, 3) do not match 2 variables" in capsys.readouterr().err


def test_rational_witness_coefficients():
    phi = rational_inner_witness()
    assert phi.numerator[(1, 1)][0, 0] == 2.0
    assert phi.numerator[(1, 0)][0, 0] == -1.0
    assert phi.denominator[(0, 0)] == 2.0
    assert (0, 0) not in phi.numerator
    assert phi.evaluate([(0.0, 0.0)])[0, 0, 0] == 0.0


def test_suite_verdicts_on_a_small_run():
    # at PAIR_RADIUS 0.6 the basis sum needs the default caps (20, 20) to
    # meet the closed form within 1e-8
    rep = reduced_kernel_suite()
    assert all(rep["verdicts"].values()), rep["verdicts"]
    assert rep["constants_quotient"]["beurling_residual"] == 1.0
    assert rep["kernel"]["pairs"] == 20
    ranks = rep["inclusions"]
    assert ranks["rank_symbol_submodule"] < ranks["rank_vanishing_at_origin"]
    assert ranks["rank_vanishing_at_origin"] < ranks["rank_full"]
