"""Subspace construction: submodule spans, complements, basis files."""

import gc
import weakref

import numpy as np
import pytest

import dense
from hardylab.corpus import corpus_entries
from hardylab.criteria import beurling_criterion, cross_commutator_criterion, identity_suite, quotient_data
from hardylab.factorization import beurling_submodule_check
from hardylab.grids import TruncationGrid
from hardylab.kernels import rational_inner_witness
from hardylab.operators import InnernessError, eval_margins, shift_matrix, toeplitz_matrix
from hardylab.subspaces import (
    RANK_TOL,
    SubspaceData,
    _toeplitz_split,
    invariance_defect,
    origin_complement,
    parse_basis_text,
    submodule_projection,
    subspace_from_columns,
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
        k, _ = dense.unflat(g, i)
        want = 1.0 if (k[0] >= 1 and k[1] >= 1) else 0.0
        assert diag[i] == pytest.approx(want, abs=1e-12)


def test_constant_unitary_submodule_is_everything():
    g = TruncationGrid((2, 2), channels=2)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    s = submodule_projection(AnalyticSymbol.constant(u, nvars=2), g)
    assert s.rank == g.dim
    np.testing.assert_allclose(dense.projection(s), np.eye(g.dim), atol=1e-12)


def test_phi_columns_stay_independent():
    g = TruncationGrid((4, 4))
    s = submodule_projection(phi_symbol(), g)
    assert s.rank == 16
    assert s.discarded == 0


def test_projection_laws():
    g = TruncationGrid((3, 2))
    s = submodule_projection(AnalyticSymbol.blaschke(0.4, 0, nvars=2), g)
    again, b_s = subspace_from_columns(g, dense.span_basis(s))
    eye = np.eye(g.dim)
    b_q = again.complement
    p_s, p_q = b_s @ b_s.conj().T, b_q @ b_q.conj().T
    assert np.linalg.norm(p_s + p_q - eye, 2) <= 1e-12
    assert np.linalg.norm(p_s - dense.projection(s), 2) <= 1e-12
    assert np.linalg.norm(p_s @ p_s - p_s, 2) <= 1e-12
    assert np.linalg.norm(p_s - p_s.conj().T, 2) <= 1e-12
    assert np.linalg.norm(b_s.conj().T @ b_s - np.eye(s.rank), 2) <= 1e-12
    assert np.linalg.norm(s.complement.conj().T @ s.complement - np.eye(g.dim - s.rank), 2) <= 1e-12


def test_innerness_gate_blocks_non_inner_symbols():
    g = TruncationGrid((3, 3))
    avg = AnalyticSymbol.polynomial({(1, 0): 0.5, (0, 1): 0.5}, nvars=2)
    with pytest.raises(InnernessError):
        submodule_projection(avg, g)


def test_innerness_gate_blocks_symbol_unimodular_on_torus_samples():
    """(1 + z1 + z1^32 - z1^33)/2 has modulus one on the offset 32-point
    torus grid but is not inner; the coefficient gate sees it."""
    blind = AnalyticSymbol.polynomial({(0, 0): 0.5, (1, 0): 0.5, (32, 0): 0.5, (33, 0): -0.5}, nvars=2)
    with pytest.raises(InnernessError, match="coefficient deviation 1"):
        submodule_projection(blind, TruncationGrid((4, 4)))


@pytest.mark.parametrize("nvars", [1, 3])
def test_submodule_projection_refuses_a_symbol_of_another_variable_count(nvars, monkeypatch):
    """A symbol in one or three variables on a two-variable grid is refused,
    naming both counts, before its Taylor table or any Toeplitz block is built."""
    from hardylab import subspaces

    def built(*args, **kwargs):
        raise AssertionError("a Taylor table or Toeplitz block was built")

    monkeypatch.setattr(subspaces, "toeplitz_matrix", built)
    monkeypatch.setattr(AnalyticSymbol, "taylor_table", built)
    with pytest.raises(ValueError, match=f"symbol has {nvars} variables, grid has 2"):
        submodule_projection(AnalyticSymbol.monomial((1,) * nvars), TruncationGrid((3, 3)))


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
    v = dense.unit(g, (1, 0))
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
    s, b_s = subspace_from_columns(g, cols)

    sig = np.linalg.svd(cols, compute_uv=False)
    want = int(np.sum(sig > RANK_TOL * sig[0])) if sig.size else 0
    assert (s.rank, s.discarded) == (want, cols.shape[1] - want)
    b_q = s.complement
    assert b_s.shape[1] == s.rank and s.rank + b_q.shape[1] == g.dim
    assert np.abs(b_s.conj().T @ b_s - np.eye(s.rank)).max(initial=0.0) <= 1e-12
    assert np.abs(b_q.conj().T @ b_q - np.eye(b_q.shape[1])).max(initial=0.0) <= 1e-12
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
    rows = [dense.flat(g, k) for k in g.multi_indices if k[0] >= 1 and k[1] >= 2]
    assert s.rank == len(rows)
    assert np.array_equal(s.complement, np.eye(g.dim)[:, sorted(set(range(g.dim)) - set(rows))])
    origin = origin_complement(g)
    assert origin.rank == g.dim - 1
    assert np.array_equal(origin.complement, np.eye(g.dim)[:, :1])


def test_extended_splits_the_sum_with_the_columns():
    g = TruncationGrid((3, 2))
    s = submodule_projection(AnalyticSymbol.blaschke(0.3, 0, nvars=2), g)
    rng = np.random.default_rng(5)
    inside = s.complement @ rng.normal(size=(s.complement.shape[1], 2))
    cols = np.hstack([inside, inside[:, :1] + dense.span_basis(s)[:, :1], 3 * inside[:, 1:]])
    n = s.extended(cols)
    assert n.rank == s.rank + 2 and n.discarded == 2 and n.grid is s.grid
    b_q = n.complement
    assert b_q.shape == (g.dim, g.dim - n.rank)
    assert np.abs(b_q.conj().T @ b_q - np.eye(b_q.shape[1])).max() <= 1e-12
    # Q of the sum lies in Q of s, and the columns lie in the sum
    assert np.abs(b_q - s.complement @ (s.complement.conj().T @ b_q)).max() <= 1e-12
    assert np.abs(cols - dense.projection(n) @ cols).max() <= 1e-12


def _dense_sum(b_s, cols, floor):
    """(rank, discarded, P) of S + span(cols) from one SVD of [B_S, cols],
    cut at RANK_TOL * max(floor, sig_max): the reference for every split."""
    u, sig, _ = np.linalg.svd(np.hstack([b_s, cols]))
    rank = int(np.sum(sig > RANK_TOL * max(floor, sig[0]))) if sig.size else 0
    return rank, cols.shape[1] - (rank - b_s.shape[1]), u[:, :rank] @ u[:, :rank].conj().T


def _sum_inputs():
    """name -> (S, columns) on caps (4, 4), dim 25.  S is b(z1)b(z2) (rank 16,
    q = 9), so tall, square and wide name the shape of B_c* columns, or the
    coordinate split of z1z2 (q = 9) for the zero and unit columns."""
    g = TruncationGrid((4, 4))
    rng = np.random.default_rng(29)
    b = AnalyticSymbol.blaschke
    s = submodule_projection(b(0.3, 0, 2).matmul(b(-0.2j, 1, 2)), g)
    mono = submodule_projection(AnalyticSymbol.monomial((1, 1)), g)

    def gauss(k):
        return rng.normal(size=(g.dim, k)) + 1j * rng.normal(size=(g.dim, k))

    base, eye = gauss(3), np.eye(g.dim)
    units = [dense.flat(g, k) for k in ((0, 2), (1, 1), (3, 0), (2, 2))]
    return {
        "tall": (s, gauss(4)),
        "square": (s, gauss(9)),
        "wide": (s, gauss(14)),
        "wider-than-the-grid": (s, gauss(g.dim + 3)),
        "rank-deficient": (s, np.hstack([base, base[:, :1] - 2j * base[:, 2:], 3 * base[:, 1:2]])),
        "zero-and-unit": (mono, np.hstack([eye[:, units[:2]] * np.exp([0.4j, -2.0j]),
                                          np.zeros((g.dim, 2)), eye[:, units[2:]] * 1j])),
        "inside-s": (s, np.hstack([dense.span_basis(s) @ rng.normal(size=(s.rank, 3)), base[:, :1]])),
        "scaled-1e-12": (s, 1e-12 * gauss(3)),
    }


@pytest.mark.parametrize("name", sorted(_sum_inputs()))
def test_split_and_sum_match_a_dense_svd_at_their_cut(name):
    """subspace_from_columns (relative cut) and SubspaceData.extended
    (absolute cut) against one SVD of [B_S, columns] at the same cut."""
    s, cols = _sum_inputs()[name]
    n = s.extended(cols)
    empty = np.zeros((s.grid.dim, 0))
    for split, floor, b_s in ((subspace_from_columns(s.grid, cols)[0], 0.0, empty),
                              (n, 1.0, dense.span_basis(s))):
        rank, discarded, p = _dense_sum(b_s, cols, floor)
        assert (split.rank, split.discarded) == (rank, discarded), floor
        assert np.abs(dense.projection(split) - p).max() <= 1e-13, floor
        b_q = split.complement
        assert np.abs(b_q.conj().T @ b_q - np.eye(b_q.shape[1])).max(initial=0.0) <= 1e-13, floor
    assert np.abs(n.complement - s.complement @ (s.complement.conj().T @ n.complement)).max(
        initial=0.0) <= 1e-13


def test_a_sum_cuts_absolutely_and_a_column_set_relatively():
    """Columns of size 1e-12 add nothing to a sum, whose singular values
    are cosines cut at RANK_TOL, but span their own rank as a column set,
    cut at RANK_TOL times the largest."""
    s, cols = _sum_inputs()["scaled-1e-12"]
    n = s.extended(cols)
    assert (n.rank, n.discarded) == (s.rank, 3)
    assert np.abs(dense.projection(n) - dense.projection(s)).max() <= 1e-13
    alone, _ = subspace_from_columns(s.grid, cols)
    assert (alone.rank, alone.discarded) == (3, 0)


def test_zero_and_unit_columns_split_by_index_without_a_factorization(monkeypatch):
    s, cols = _sum_inputs()["zero-and-unit"]

    def refuse(*args, **kwargs):
        raise AssertionError("a coordinate set was factored")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    alone, b_s = subspace_from_columns(s.grid, cols)
    n = s.extended(cols)
    assert (alone.rank, alone.discarded) == (4, 2)
    # (1, 1) and (2, 2) lie in z1z2 H^2, so their columns add nothing to the sum
    assert (n.rank, n.discarded) == (s.rank + 2, 4)
    for b in (b_s, alone.complement, n.complement):
        assert set(np.unique(b)) <= {0, 1}


def test_tensored_split_keeps_its_core_and_a_sum_is_its_own_core():
    """z1^2 on caps (6, 6) leaves z2 free: the split is tensored from a core
    on the z1 grid, and the sum with further columns, which is no tensor
    product, is its own core, as is every other split."""
    g = TruncationGrid((6, 6))
    s = submodule_projection(AnalyticSymbol.monomial((2, 0)), g)
    assert s.core is not s and s.used == (0,) and s.core.grid.caps == (6,)
    assert s.core.core is s.core and s.core.used == (0,)
    n = s.extended(s.complement[:, :2])
    assert n.core is n and n.used == (0, 1)
    bare = SubspaceData(g, s.complement)
    for x in (subspace_from_columns(g, dense.span_basis(s))[0], origin_complement(g), bare):
        assert x.core is x and x.used == (0, 1)


def test_tensored_split_is_freed_without_the_cycle_collector():
    """Neither a tensored split nor its core holds a reference back to it,
    so with the cycle collector off both die on del, caches filled."""
    entry = next(e for e in corpus_entries(0) if e.entry_id == "product3-00")
    gc.disable()
    try:
        s = entry.subspace()
        data = quotient_data(s, margins=entry.margins)
        beurling_criterion(data)
        cross_commutator_criterion(s, margins=entry.margins)
        identity_suite(data)
        assert len(data.compressions) == 3
        refs = [weakref.ref(x) for x in (s, s.core, s.core.complement, data)]
        assert s.core is not s
        del s, data
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("entry_id", ["product3-00", "blaschke3-00", "unitary3-00"])
def test_tensored_split_forms_its_bases_only_when_read(entry_id):
    """quotient_data, the three detectors and identity_suite read the core
    alone, so the split forms no grid-sized B_Q.  Read afterwards, B_Q is
    byte for byte the eager tensoring of its core's, and rank, discarded
    and the count of B_Q's columns are those of the split of the window
    columns on the whole grid."""
    entry = next(e for e in corpus_entries(0) if e.entry_id == entry_id)
    s = entry.subspace()
    data = quotient_data(s, margins=entry.margins)
    beurling_criterion(data)
    cross_commutator_criterion(s, margins=entry.margins)
    identity_suite(data)
    assert data.s is s and s.core is not s
    assert "complement" not in vars(s), entry_id

    symbol, g = entry.symbol, entry.grid()
    dom = g.with_channels(symbol.cols)
    ref, _ = subspace_from_columns(s.grid, toeplitz_matrix(symbol, g)[:, dom.window_indices(symbol.degrees)])
    assert (s.rank, s.discarded) == (ref.rank, ref.discarded)
    want = dense.tensored(s.core.complement, s.grid, s.used)
    assert s.complement.shape == want.shape == ref.complement.shape
    assert s.complement.tobytes() == want.tobytes()
    assert s.complement is s.complement and s.rank == s.grid.dim - s.complement.shape[1]


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


def test_corpus_pass_takes_no_unread_singular_vectors(no_unread_singular_vectors):
    for entry in corpus_entries(0):
        sub = entry.subspace()
        data = quotient_data(sub, margins=entry.margins)
        reports = (
            beurling_criterion(data),
            cross_commutator_criterion(sub, margins=entry.margins),
            identity_suite(data),
        )
        assert all(rep.verdict for rep in reports) == entry.beurling_expected, entry.entry_id


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
    s, b_s = subspace_from_columns(g, cols)
    monkeypatch.setattr(np.linalg, "svd", svd)
    basis, complement, dropped = _always_svd_split(cols.astype(complex))

    assert (s.rank, s.discarded) == (basis.shape[1], dropped)
    assert b_s.shape == basis.shape and b_s.tobytes() == basis.tobytes()
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
    b_q = sub.complement
    assert np.abs(b_q.T.conj() @ b_q - np.eye(343 - sub.rank)).max(initial=0.0) <= 1e-13


def _bp_factor(v, var, nvars):
    """(I - P) + P z_var for the rank-one projection P onto v: a 2 x 2 inner factor."""
    p = np.outer(v, v.conj()) / np.vdot(v, v)
    e = tuple(int(t == var) for t in range(nvars))
    return AnalyticSymbol.polynomial({(0,) * nvars: np.eye(2) - p, e: p}, nvars, rows=2, cols=2)


def _reduced_split_cases():
    """name -> (symbol, caps): symbols that leave some variables of the grid free."""
    b = AnalyticSymbol.blaschke
    rng = np.random.default_rng(0)
    v, u = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
    rotation = np.array([[1, 1j], [1j, 1]]) / np.sqrt(2)
    return {
        "b(z1)-two-variables": (b(0.3 - 0.2j, 0, 2), (5, 4)),
        "b(z1)-three-variables": (b(0.3 - 0.2j, 0, 3), (3, 2, 4)),
        "b(z1)b(z3)-free-middle": (b(0.4, 0, 3).matmul(b(-0.25j, 2, 3)), (3, 4, 2)),
        "two-channel-z1-z2-of-three": (_bp_factor(v, 0, 3).matmul(_bp_factor(u, 1, 3)), (3, 2, 2)),
        "constant-unitary": (AnalyticSymbol.constant(rotation, 3), (2, 1, 2)),
        "z1-squared": (AnalyticSymbol.monomial((2, 0)), (4, 3)),
    }


@pytest.mark.parametrize("name", sorted(_reduced_split_cases()))
def test_reduced_split_matches_the_full_grid_split(name):
    """The split of the support block, tensored with the free box, spans
    what a split of the same window columns on the whole grid spans."""
    symbol, caps = _reduced_split_cases()[name]
    g = TruncationGrid(caps)
    cod, dom = g.with_channels(symbol.rows), g.with_channels(symbol.cols)
    mt = toeplitz_matrix(symbol, g)
    ref, _ = subspace_from_columns(cod, mt[:, dom.window_indices(symbol.degrees)])
    s = submodule_projection(symbol, g)
    assert (s.rank, s.discarded) == (ref.rank, ref.discarded)
    assert s.grid == cod and s.rank + s.complement.shape[1] == cod.dim
    assert np.abs(dense.projection(s) - dense.projection(ref)).max() <= 1e-13
    b_q = s.complement
    assert np.abs(b_q.conj().T @ b_q - np.eye(b_q.shape[1])).max(initial=0.0) <= 1e-13
    if name == "z1-squared":
        rows = [dense.flat(g, k) for k in g.multi_indices if k[0] >= 2]
        assert set(np.unique(b_q)) == {0, 1}
        assert sorted(np.flatnonzero(~b_q.any(axis=1))) == rows


@pytest.mark.parametrize("symbol, caps", [
    (AnalyticSymbol.monomial((1, 2)), (4, 5)),
    (AnalyticSymbol.blaschke(0.3, 0, 2).matmul(AnalyticSymbol.blaschke(-0.2j, 1, 2)), (4, 3)),
    (_bp_factor(np.array([1.0, 1j]), 0, 3).matmul(
        _bp_factor(np.array([1.0, 2.0]), 1, 3)).matmul(
        _bp_factor(np.array([1j, 1.0]), 2, 3)), (2, 3, 2)),
], ids=["z1z2^2", "b(z1)b(z2)", "two-channel-z1-z2-z3"])
def test_symbol_of_every_variable_is_split_once_on_the_grid(symbol, caps):
    """With no free variable the support block is the grid: the split is
    its own core, and its bases are the split of the window columns."""
    g = TruncationGrid(caps)
    cod, dom = g.with_channels(symbol.rows), g.with_channels(symbol.cols)
    mt = toeplitz_matrix(symbol, g)
    ref, _ = subspace_from_columns(cod, mt[:, dom.window_indices(symbol.degrees)])
    s = submodule_projection(symbol, g)
    assert s.core is s and s.used == tuple(range(g.nvars)) and s.grid == cod
    assert np.array_equal(s.complement, ref.complement)
    assert (s.rank, s.discarded) == (ref.rank, ref.discarded)


def _monomial_factor_cases():
    """name -> (symbol, caps, used): symbols with a monomial factor z_M^m in
    variables no denominator key uses, and the variables their keys use."""
    b = AnalyticSymbol.blaschke
    z = AnalyticSymbol.monomial
    v = np.array([1.0, 1j])
    cases = {
        "b_0.05(z1)z2": (b(0.05 * np.exp(0.7j), 0, 2).matmul(z((0, 1))), (8, 8), (0, 1)),
        "b_0.6(z1)z2": (b(0.6 * np.exp(-2.1j), 0, 2).matmul(z((0, 1))), (6, 5), (0, 1)),
        "z2^2 b_0.5(z1)": (z((0, 2)).matmul(b(0.5, 0, 2)), (4, 6), (0, 1)),
        "z3 b(z1), z2 free": (b(0.3 - 0.2j, 0, 3).matmul(z((0, 0, 1))), (6, 3, 6), (0, 2)),
        "two-channel z2 Phi(z1)": (_bp_factor(v, 0, 2).matmul(
            AnalyticSymbol.polynomial({(0, 1): np.eye(2)}, 2, rows=2, cols=2)), (4, 3), (0, 1)),
        # not inner: both channel columns of [b, b] are one column, so the
        # coupled block drops half of its columns
        "rank-collapsing [b(z1), b(z1)] z2": (AnalyticSymbol.rational(
            {(0, 1): [[-0.4, -0.4]], (1, 1): [[1.0, 1.0]]}, {(0, 0): 1.0, (1, 0): -0.4},
            2, rows=1, cols=2), (4, 3), (0, 1)),
        "z2^4 b(z1) past the cap": (z((0, 4)).matmul(b(0.3j, 0, 2)), (3, 3), (0, 1)),
    }
    for entry in corpus_entries(0):
        if entry.entry_id.startswith("mixed2-"):
            cases[entry.entry_id] = (entry.symbol, entry.caps, (0, 1))
    return cases


@pytest.mark.parametrize("name", sorted(_monomial_factor_cases()))
def test_monomial_factor_split_matches_the_dense_window_split(name):
    """The coupled block's split tensored with the coordinate split of z_M^m
    spans what a split of all the window columns of M_symbol on the grid
    spans, with the same rank and discarded count, on the same core."""
    symbol, caps, used = _monomial_factor_cases()[name]
    g = TruncationGrid(caps)
    cod, dom = g.with_channels(symbol.rows), g.with_channels(symbol.cols)
    ref, _ = subspace_from_columns(cod, toeplitz_matrix(symbol, g)[:, dom.window_indices(symbol.degrees)])
    s = _toeplitz_split(symbol, g)
    assert (s.rank, s.discarded) == (ref.rank, ref.discarded)
    assert s.used == used and s.core.grid == TruncationGrid(tuple(caps[t] for t in used), symbol.rows)
    assert np.abs(dense.projection(s) - dense.projection(ref)).max() <= 1e-13
    b_q = s.complement
    assert b_q.shape == (cod.dim, cod.dim - s.rank)
    assert np.abs(b_q.conj().T @ b_q - np.eye(b_q.shape[1])).max(initial=0.0) <= 1e-13
    if name.startswith("rank-collapsing"):
        assert s.discarded == s.rank > 0
    if name.endswith("past the cap"):
        assert s.rank == s.discarded == 0


def test_a_monomial_factor_adds_no_rows_to_the_factorization(no_grid_wide_qr):
    """b_a(z1) z2 at caps 8^2 factors the 9 x 8 window block of b_a(z1) on
    the grid of z1 alone."""
    no_grid_wide_qr(10)
    s = submodule_projection(AnalyticSymbol.blaschke(0.05, 0, 2).matmul(
        AnalyticSymbol.monomial((0, 1))), TruncationGrid((8, 8)))
    assert (s.rank, s.complement.shape[1]) == (64, 17)


@pytest.mark.parametrize("k, caps", [((3, 2), (12, 12)), ((2, 3), (12, 12)), ((1, 2, 1), (3, 4, 2))])
def test_a_monomial_builds_no_toeplitz_matrix_past_one_variable(k, caps, monkeypatch):
    """z^k is split by index from the Toeplitz matrix of one variable's
    power, coordinate columns in increasing row order."""
    from hardylab import subspaces
    built = []
    toeplitz = subspaces.toeplitz_matrix
    monkeypatch.setattr(subspaces, "toeplitz_matrix", lambda symbol, grid: built.append(
        grid.nvars) or toeplitz(symbol, grid))
    g = TruncationGrid(caps)
    s = submodule_projection(AnalyticSymbol.monomial(k), g)
    assert built == [1]
    rows = [dense.flat(g, j) for j in g.multi_indices if all(np.greater_equal(j, k))]
    assert s.rank == len(rows)
    assert np.array_equal(s.complement, np.eye(g.dim)[:, sorted(set(range(g.dim)) - set(rows))])


@pytest.mark.parametrize("k, caps, margins", [
    ((1, 1, 1), (3, 3, 3), (1, 1, 1)),
    ((2, 0), (4, 3), (2, 1)),
    ((1, 2), (4, 5), (1, 2)),
])
def test_a_unimodular_multiple_of_a_monomial_splits_as_the_monomial(k, caps, margins):
    """i z^k and -z^k split by index as z^k does, bit for bit, so their
    quotient battery runs in float64 as that of z^k does."""
    g = TruncationGrid(caps)
    plain = submodule_projection(AnalyticSymbol.monomial(k), g)
    for c in (1j, -1.0):
        s = submodule_projection(AnalyticSymbol.polynomial({k: np.array([[c]])}, len(k)), g)
        assert s.complement.shape == plain.complement.shape
        assert s.complement.tobytes() == plain.complement.tobytes()
        assert s.used == plain.used and s.discarded == plain.discarded == 0
        assert _battery_dtypes(s, margins) == {np.dtype(np.float64)}


@pytest.mark.parametrize("family", ["product3", "blaschke3"])
def test_three_variable_corpus_split_factors_only_its_support_block(family, no_grid_wide_qr):
    """Each symbol of the family leaves a variable free, so its split takes
    no QR of a matrix with as many rows as the dim-343 grid."""
    entries = [e for e in corpus_entries(0) if e.entry_id.startswith(family)]
    no_grid_wide_qr(343)
    for entry in entries:
        sub = entry.subspace()
        assert sub.grid.dim == 343 and sub.discarded == 0
        b_q = sub.complement
        assert np.abs(b_q.T.conj() @ b_q - np.eye(343 - sub.rank)).max(initial=0.0) <= 1e-13


def test_contains():
    g = TruncationGrid((2, 2))
    s = submodule_projection(AnalyticSymbol.monomial((1, 0)), g)
    assert dense.contains(s, dense.unit(g, (1, 1)))
    assert not dense.contains(s, dense.unit(g, (0, 1)))


def test_invariance_defect_zero_for_coordinate_submodule():
    g = TruncationGrid((3, 3))
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), g)
    worst, per = invariance_defect(s, (1, 1))
    assert worst == 0.0 and len(per) == 2
    # cached per margins, so every detector of one split shares one gate
    assert invariance_defect(s, [1, 1]) is invariance_defect(s, (1, 1))


def test_invariance_defect_checks_its_margins():
    """invariance_defect is the one place margins are checked: an empty
    window would pass every subspace, so margins past a cap raise rather
    than read 0.0."""
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), TruncationGrid((2, 2)))
    with pytest.raises(ValueError, match="empty evaluation window"):
        invariance_defect(s, (3, 3))
    with pytest.raises(ValueError, match="need 2 margins, got 3"):
        invariance_defect(s, (1, 1, 1))
    with pytest.raises(ValueError, match="margins must be nonnegative"):
        invariance_defect(s, (-1, 1))


def test_a_free_variable_margin_is_checked_though_the_core_window_ignores_it():
    s = submodule_projection(AnalyticSymbol.blaschke(0.3 - 0.2j, 1, 3), TruncationGrid((3, 5, 2)))
    assert s.used == (1,)
    for margins, match in (((1, 1, -1), "margins must be nonnegative"),
                           ((1, 1, 3), "empty evaluation window")):
        with pytest.raises(ValueError, match=match):
            invariance_defect(s, margins)
        with pytest.raises(ValueError, match=match):
            quotient_data(s, margins=margins)


def test_the_gate_builds_one_window_on_the_core(monkeypatch):
    """quotient_data then cross_commutator_criterion on a tensored split
    build one window, on the core's grid, and share its defect."""
    entry = next(e for e in corpus_entries(0) if e.entry_id.startswith("product3-"))
    s = entry.subspace()
    assert s.core is not s
    built = []
    window_indices = TruncationGrid.window_indices

    def counted(grid, margins):
        built.append(grid)
        return window_indices(grid, margins)

    monkeypatch.setattr(TruncationGrid, "window_indices", counted)
    data = quotient_data(s, margins=entry.margins)
    cross_commutator_criterion(s, margins=entry.margins)
    assert built == [s.core.grid]
    assert invariance_defect(s, entry.margins) == (data.invariance, data.invariance_per_variable)


# ---- arithmetic follows the data ---------------------------------------------


def _real_blaschke_product():
    return AnalyticSymbol.blaschke(0.5, 0, 2).matmul(AnalyticSymbol.blaschke(-0.3, 1, 2))


# symbol, caps and the margins of its invariance gate
REAL_SYMBOLS = {
    "monomial": (AnalyticSymbol.monomial((2, 1)), (4, 4), (2, 1)),
    "free-variable-monomial": (AnalyticSymbol.monomial((0, 2)), (3, 4), (1, 2)),
    "real-blaschke": (_real_blaschke_product(), (4, 5), (1, 1)),
    "rational-witness": (rational_inner_witness(), (5, 5), (3, 3)),
}


@pytest.mark.parametrize("name", sorted(REAL_SYMBOLS))
def test_a_real_symbol_runs_in_float64_throughout(name):
    symbol, caps, margins = REAL_SYMBOLS[name]
    grid = TruncationGrid(caps)
    assert symbol.taylor_table(grid).dtype == np.float64
    assert toeplitz_matrix(symbol, grid).dtype == np.float64
    assert shift_matrix(grid, 0).dtype == np.float64
    assert _battery_dtypes(submodule_projection(symbol, grid), margins) == {np.dtype(np.float64)}


def _battery_dtypes(s, margins):
    """The dtypes of the split's B_Q and of every block its quotient battery forms."""
    data = quotient_data(s, margins=margins)
    core = s.core
    arrays = [s.complement, core.complement, *data.compressions]
    for t in range(core.grid.nvars):
        arrays += [*core.shift_blocks(t), *core.shift_blocks(t, adjoint=True)]
    n = core.grid.nvars
    arrays += [data.gram(a, b) for a in range(n) for b in range(n)]
    return {a.dtype for a in arrays}


def test_one_imaginary_part_keeps_complex128():
    grid = TruncationGrid((3, 3))
    real = _real_blaschke_product()
    tilted = AnalyticSymbol.rational({**real.numerator, (2, 2): np.array([[1e-3j]])},
                                     real.denominator, nvars=2)
    assert tilted.taylor_table(grid).dtype == np.complex128
    assert toeplitz_matrix(tilted, grid).dtype == np.complex128
    rotated = AnalyticSymbol.blaschke(0.5, 0, 2).matmul(AnalyticSymbol.blaschke(-0.3j, 1, 2))
    s = submodule_projection(rotated, grid)
    assert s.complement.dtype == np.complex128

    columns = np.arange(2.0 * grid.dim).reshape(grid.dim, 2) + 0j
    split, b_s = subspace_from_columns(grid, columns)
    assert b_s.dtype == split.complement.dtype == np.float64
    columns[3, 1] += 1e-3j
    split, b_s = subspace_from_columns(grid, columns)
    assert b_s.dtype == split.complement.dtype == np.complex128

    # a real split extended by complex columns becomes complex
    s = submodule_projection(real, grid)
    assert s.complement.dtype == np.float64
    extra = s.complement[:, :2] * np.exp(0.7j)
    wider = s.extended(extra)
    assert wider.rank == s.rank + 2
    assert wider.complement.dtype == np.complex128


NON_FINITE_COLUMNS = {
    "nan-alone": [np.nan, 0.0, 0.0],
    "inf-alone": [np.inf, 0.0, 0.0],
    "nan-among-nonzeros": [1.0, np.nan, 0.5],
}


def _split_columns(columns):
    return subspace_from_columns(TruncationGrid((2,)), columns)


def _extend_by_columns(columns):
    s = submodule_projection(AnalyticSymbol.monomial((2,)), TruncationGrid((2,)))
    return s.extended(columns)


def _check_columns(columns):
    return beurling_submodule_check(columns, AnalyticSymbol.monomial((2,)), TruncationGrid((2,)))


@pytest.mark.parametrize("entry_point", [_split_columns, _extend_by_columns, _check_columns])
@pytest.mark.parametrize("shape", sorted(NON_FINITE_COLUMNS))
def test_a_non_finite_column_is_refused_by_name(shape, entry_point):
    columns = np.column_stack([[0.0, 1.0, 0.0], NON_FINITE_COLUMNS[shape]])
    with pytest.raises(ValueError, match="column 1 has a non-finite entry"):
        entry_point(columns)


def test_basis_text_round_trip():
    g = TruncationGrid((1, 1))
    rows = np.array([[1, 0, 0, 0, 0, 0, 0, 0],
                     [0, 0, 1, 0, 0, -1, 0, 0]], dtype=float)
    text = "\n".join(" ".join(repr(float(x)) for x in row) for row in rows)
    vecs = parse_basis_text(text, g)
    assert vecs.shape == (2, 4)
    assert vecs[1, 1] == pytest.approx(1.0)
    assert vecs[1, 2] == pytest.approx(-1j)
    s, _ = subspace_from_columns(g, vecs.T)
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


@pytest.mark.parametrize("first", [False, True])
def test_shift_block_of_one_direction_is_the_adjoint_of_the_other(first):
    g = TruncationGrid((6, 6))
    rng = np.random.default_rng(3)
    blaschke = AnalyticSymbol.blaschke(0.03 + 0.02j, 0, 2)
    spaces = [submodule_projection(blaschke, g),
              submodule_projection(phi_symbol(), g),
              subspace_from_columns(g, rng.normal(size=(g.dim, 5)) + 1j * rng.normal(size=(g.dim, 5)))[0]]
    for s in spaces:
        b = s.complement
        for t in range(g.nvars):
            asked = s.shift_blocks(t, adjoint=first)[0]
            other = s.shift_blocks(t, adjoint=not first)[0]
            assert np.array_equal(other, asked.conj().T)
            m = shift_matrix(g, t)
            want = m.conj().T if first else m
            np.testing.assert_allclose(asked, b.conj().T @ want @ b, atol=1e-14)
