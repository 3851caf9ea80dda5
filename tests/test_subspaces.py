"""Subspace construction: submodule spans, complements, basis files."""

import numpy as np
import pytest

import dense
from hardylab.corpus import corpus_entries
from hardylab.criteria import beurling_criterion, cross_commutator_criterion, identity_suite, quotient_data
from hardylab.grids import TruncationGrid
from hardylab.operators import InnernessError, eval_margins
from hardylab.subspaces import (
    RANK_TOL,
    invariance_defect,
    origin_complement,
    parse_basis_text,
    submodule_projection,
    subspace_from_columns,
    subspace_from_rows,
)
from hardylab.symbols import AnalyticSymbol


def phi_symbol():
    return AnalyticSymbol.rational(
        {(1, 1): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        {(0, 0): 2.0, (1, 0): -1.0, (0, 1): -1.0},
        nvars=2,
    )


def test_monomial_submodule_is_coordinate_span():
    g = TruncationGrid((3, 3))
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), g)
    assert s.rank == 9
    diag = np.real(np.diag(dense.projection(s)))
    for i in range(g.dim):
        k, _ = g.unflatten(i)
        want = 1.0 if (k[0] >= 1 and k[1] >= 1) else 0.0
        assert diag[i] == pytest.approx(want, abs=1e-12)


def test_constant_unitary_submodule_is_everything():
    g = TruncationGrid((2, 2), channels=2)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    s = submodule_projection(AnalyticSymbol.constant(u, nvars=2), g, margins=(0, 0))
    assert s.rank == g.dim
    np.testing.assert_allclose(dense.projection(s), np.eye(g.dim), atol=1e-12)


def test_phi_columns_stay_independent():
    g = TruncationGrid((4, 4))
    s = submodule_projection(phi_symbol(), g, margins=(1, 1))
    assert s.rank == 16
    assert s.discarded == 0


def test_projection_laws():
    g = TruncationGrid((3, 2))
    s = submodule_projection(AnalyticSymbol.blaschke(0.4, 0, nvars=2), g)
    _, q = subspace_from_columns(g, s.basis)
    eye = np.eye(g.dim)
    p_s, p_q = dense.projection(s), dense.projection(q)
    assert np.linalg.norm(p_s + p_q - eye, 2) <= 1e-12
    assert np.linalg.norm(p_s @ p_s - p_s, 2) <= 1e-12
    assert np.linalg.norm(p_s - p_s.conj().T, 2) <= 1e-12
    assert np.linalg.norm(s.basis.conj().T @ s.basis - np.eye(s.rank), 2) <= 1e-12


def test_innerness_gate_blocks_non_inner_symbols():
    g = TruncationGrid((3, 3))
    avg = AnalyticSymbol.polynomial({(1, 0): 0.5, (0, 1): 0.5}, nvars=2)
    with pytest.raises(InnernessError):
        submodule_projection(avg, g)
    # the gate can be lifted for exploratory use
    s = submodule_projection(avg, g, require_inner=False)
    assert s.rank > 0


def test_innerness_gate_blocks_symbol_unimodular_on_torus_samples():
    """(1 + z1 + z1^32 - z1^33)/2 has modulus one on the offset 32-point
    torus grid but is not inner; the coefficient gate sees it."""
    blind = AnalyticSymbol.polynomial({(0, 0): 0.5, (1, 0): 0.5, (32, 0): 0.5, (33, 0): -0.5}, nvars=2)
    with pytest.raises(InnernessError, match="coefficient deviation 1"):
        submodule_projection(blind, TruncationGrid((4, 4)))


def test_corpus_battery_evaluates_no_symbol(no_torus_evaluation):
    """The gate reads coefficients only: a dim-343 entry runs the whole
    battery with AnalyticSymbol.evaluate disabled."""
    entry = next(e for e in corpus_entries(0) if e.entry_id.startswith("product3"))
    sub = entry.subspace()
    assert sub.grid.dim == 343
    data = quotient_data(sub, margins=entry.margins)
    reports = (
        beurling_criterion(data),
        cross_commutator_criterion(sub, margins=entry.margins),
        identity_suite(data),
    )
    assert all(rep.verdict for rep in reports)


def test_rank_collapse_reports_discarded_columns():
    g = TruncationGrid((1, 1))
    v = g.basis_vector((1, 0)).astype(complex)
    s, _ = subspace_from_columns(g, np.stack([v, v, 2 * v], axis=1))
    assert s.rank == 1
    assert s.discarded == 2


def _split_inputs():
    """name -> columns on a dim-12 grid; the coordinate sets hold their rows."""
    rng = np.random.default_rng(11)
    dim = TruncationGrid((3, 2)).dim

    def gauss(k):
        return rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))

    base = gauss(4)
    eye = np.eye(dim)
    return {
        "full-rank": gauss(5),
        "rank-deficient": np.hstack([base, base[:, :1], base[:, 1:2] - 2j * base[:, 3:4]]),
        "wide": gauss(dim + 5),
        "empty": np.zeros((dim, 0), dtype=complex),
        "coordinate": eye[:, [7, 0, 3, 11]] * np.exp(1j * rng.uniform(0, 2 * np.pi, 4)),
        "repeated-unit": eye[:, [2, 5, 2]] * np.array([1.0, 1j, -1.0]),
    }


@pytest.mark.parametrize("name", sorted(_split_inputs()))
def test_split_matches_the_svd_rank_and_is_orthonormal(name, monkeypatch):
    g = TruncationGrid((3, 2))
    cols = _split_inputs()[name]
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: qr_calls.append(1) or qr(*a, **kw))
    s, q = subspace_from_columns(g, cols)

    sig = np.linalg.svd(cols, compute_uv=False)
    want = int(np.sum(sig > RANK_TOL * sig[0])) if sig.size else 0
    assert (s.rank, s.discarded) == (want, cols.shape[1] - want)
    assert s.rank + q.rank == g.dim
    b_s, b_q = s.basis, q.basis
    assert np.abs(b_s.conj().T @ b_s - np.eye(s.rank)).max(initial=0.0) <= 1e-12
    assert np.abs(b_q.conj().T @ b_q - np.eye(q.rank)).max(initial=0.0) <= 1e-12
    assert np.abs(b_s.conj().T @ b_q).max(initial=0.0) <= 1e-12
    assert np.abs(cols - b_s @ (b_s.conj().T @ cols)).max(initial=0.0) <= 1e-12

    if name in ("coordinate", "empty"):
        rows = np.sort(np.flatnonzero(np.abs(cols).sum(axis=1)))
        rest = np.setdiff1d(np.arange(g.dim), rows)
        assert np.array_equal(b_s, np.eye(g.dim)[:, rows])
        assert np.array_equal(b_q, np.eye(g.dim)[:, rest])
        assert not qr_calls
    else:
        # a repeated unit vector is not a coordinate set: it takes the QR path
        assert len(qr_calls) == 1


def test_monomial_submodule_and_origin_complement_split_by_index():
    g = TruncationGrid((3, 3))
    s = submodule_projection(AnalyticSymbol.monomial((1, 2)), g)
    rows = [g.flat_index(k) for k in g.multi_indices if k[0] >= 1 and k[1] >= 2]
    assert np.array_equal(s.basis, np.eye(g.dim)[:, sorted(rows)])
    origin = origin_complement(g)
    assert np.array_equal(origin.basis, np.eye(g.dim)[:, 1:])
    assert np.array_equal(origin.complement, np.eye(g.dim)[:, :1])


def test_split_complement_extends_the_subspace():
    g = TruncationGrid((3, 2))
    s = submodule_projection(AnalyticSymbol.blaschke(0.3, 0, nvars=2), g)
    rng = np.random.default_rng(5)
    inside = s.complement @ rng.normal(size=(s.complement.shape[1], 2))
    cols = np.hstack([inside, inside[:, :1] + s.basis[:, :1], 3 * inside[:, 1:]])
    gain, rest = s.split_complement(cols)
    assert gain.shape[1] == 2 and s.rank + gain.shape[1] + rest.shape[1] == g.dim
    frame = np.hstack([s.basis, gain, rest])
    assert np.abs(frame.conj().T @ frame - np.eye(g.dim)).max() <= 1e-12
    n = np.hstack([s.basis, gain])
    assert np.abs(cols - n @ (n.conj().T @ cols)).max() <= 1e-12


def test_corpus_split_takes_no_grid_wide_singular_vectors(no_wide_singular_vectors):
    """A dim-343 entry is split and run through the battery with every SVD
    that returns vectors of a grid-wide matrix disabled."""
    entry = next(e for e in corpus_entries(0) if e.entry_id.startswith("product3"))
    no_wide_singular_vectors(343)
    sub = entry.subspace()
    assert sub.grid.dim == 343
    data = quotient_data(sub, margins=entry.margins)
    reports = (
        beurling_criterion(data),
        cross_commutator_criterion(sub, margins=entry.margins),
        identity_suite(data),
    )
    assert all(rep.verdict for rep in reports)


def _always_svd_split(cols):
    """The split with the rank always set by an SVD of R: the reference the
    certified split must match whenever both apply."""
    q, r = np.linalg.qr(cols, mode="complete")
    lead = min(cols.shape)
    sig = np.linalg.svd(r[:lead], compute_uv=False)
    rank = int(np.sum(sig > RANK_TOL * sig[0]))
    if rank < cols.shape[1]:
        q[:, :lead] = q[:, :lead] @ np.linalg.svd(r[:lead])[0]
    return q[:, :rank], q[:, rank:], cols.shape[1] - rank


def _certificate_inputs():
    """name -> columns on a dim-25 grid, with the singular values of some set."""
    rng = np.random.default_rng(23)
    dim = TruncationGrid((4, 4)).dim

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def prescribed(sig):
        u = np.linalg.qr(gauss(dim, len(sig)))[0]
        v = np.linalg.qr(gauss(len(sig), len(sig)))[0]
        return u @ np.diag(sig) @ v.conj().T

    frame = np.linalg.qr(gauss(dim, 10))[0]
    base = gauss(dim, 5)
    # Kahan's triangle: diagonal within 1.4e-7 of its largest entry, yet
    # one singular value below the cut, so the diagonal alone proves nothing
    c = 0.9
    kahan = np.diag(np.sqrt(1 - c * c) ** np.arange(20)) @ (
        np.eye(20) - c * np.triu(np.ones((20, 20)), 1))
    return {
        "kahan": np.linalg.qr(gauss(dim, 20))[0] @ kahan,
        "sigma-1-to-1e-12": prescribed(np.logspace(0, -12, 13)),
        "sigma-at-the-cut": prescribed([1.0, 0.5, 3e-10, 2e-10, 1.01e-10, 0.99e-10, 5e-11, 1e-12]),
        "sigma-above-the-cut": prescribed(np.logspace(0, -9, 8)),
        "sigma-well-conditioned": prescribed(np.linspace(1.0, 0.5, 6)),
        "near-orthonormal": frame + 1e-3 * gauss(dim, 10),
        "orthonormal": frame,
        "repeated-column": np.hstack([base, base[:, 2:3]]),
        "zero-column": np.hstack([base[:, :3], np.zeros((dim, 1)), base[:, 3:]]),
        "wide": gauss(dim, dim + 5),
        "single-column": gauss(dim, 1),
    }


@pytest.mark.parametrize("name", sorted(_certificate_inputs()))
def test_certified_split_matches_the_always_svd_split(name, monkeypatch):
    g = TruncationGrid((4, 4))
    cols = _certificate_inputs()[name]
    svd_calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        svd_calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    s, _ = subspace_from_columns(g, cols)
    monkeypatch.setattr(np.linalg, "svd", svd)
    basis, complement, dropped = _always_svd_split(cols.astype(complex))

    assert (s.rank, s.discarded) == (basis.shape[1], dropped)
    assert s.basis.shape == basis.shape and s.basis.tobytes() == basis.tobytes()
    assert s.complement.shape == complement.shape
    assert s.complement.tobytes() == complement.tobytes()
    if name in ("near-orthonormal", "orthonormal", "single-column"):
        assert not svd_calls, "a well-conditioned full-rank split took an SVD"
    if dropped or name in ("wide", "sigma-above-the-cut"):
        assert svd_calls, "the certificate accepted columns it cannot certify"


@pytest.mark.parametrize("entry_id", ["product3-00", "blaschke3-00"])
def test_full_rank_corpus_split_takes_no_svd(entry_id, no_svd_in_subspaces):
    """The dim-343 inner-symbol splits are certified full rank from the
    triangular factor, so hardylab.subspaces takes no SVD for them."""
    entry = next(e for e in corpus_entries(0) if e.entry_id == entry_id)
    sub = entry.subspace()
    assert sub.grid.dim == 343
    assert sub.discarded == 0
    assert sub.rank + sub.complement.shape[1] == 343


def test_contains():
    g = TruncationGrid((2, 2))
    s = submodule_projection(AnalyticSymbol.monomial((1, 0)), g)
    assert dense.contains(s, g.basis_vector((1, 1)).astype(complex))
    assert not dense.contains(s, g.basis_vector((0, 1)).astype(complex))


def test_invariance_defect_zero_for_coordinate_submodule():
    g = TruncationGrid((3, 3))
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), g)
    worst, per = invariance_defect(s, (1, 1))
    assert worst == 0.0 and len(per) == 2
    # cached per margins, so every detector of one split shares one gate
    assert invariance_defect(s, [1, 1]) is invariance_defect(s, (1, 1))


def test_basis_text_round_trip():
    g = TruncationGrid((1, 1))
    rows = np.array([[1, 0, 0, 0, 0, 0, 0, 0],
                     [0, 0, 1, 0, 0, -1, 0, 0]], dtype=float)
    text = "\n".join(" ".join(repr(float(x)) for x in row) for row in rows)
    vecs = parse_basis_text(text, g)
    assert vecs.shape == (2, 4)
    assert vecs[1, 1] == pytest.approx(1.0)
    assert vecs[1, 2] == pytest.approx(-1j)
    s, _ = subspace_from_rows(g, vecs)
    assert s.rank == 2


def test_basis_text_errors():
    g = TruncationGrid((1, 1))
    with pytest.raises(ValueError, match="line 1"):
        parse_basis_text("1 0 0\n", g)
    with pytest.raises(ValueError, match="no basis rows"):
        parse_basis_text("# nothing here\n", g)


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_basis_text_bad_number_names_the_true_line(bad):
    g = TruncationGrid((1, 1))
    text = f"# rows\n\n1 0 0 0 0 0 0 0\n0 0 {bad} 0 0 0 0 0\n"
    with pytest.raises(ValueError, match=f"line 4: row wants finite numbers, got '{bad}'"):
        parse_basis_text(text, g)
