"""Compression identities and the Beurling-type criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense
from hardylab.corpus import corpus_entries
from hardylab.grids import TruncationGrid
from hardylab.operators import eval_margins, shift_matrices, spectral_norm, windowed_norm
from hardylab.subspaces import (
    InvarianceError,
    SubspaceData,
    _TensoredSplit,
    subspace_from_columns,
    submodule_projection,
)
from hardylab.symbols import AnalyticSymbol
from hardylab.criteria import (
    QuotientData,
    beurling_criterion,
    cross_commutator_criterion,
    identity_suite,
    quotient_data,
    shift_power,
)

UNCONDITIONAL = ("defect_identity", "commutator_identity", "reduces")


def make_quotient(symbol, caps, **kw):
    g = TruncationGrid(caps)
    s = submodule_projection(symbol, g)
    return quotient_data(s, margins=eval_margins(symbol), **kw)


def s00_subspace(caps=(3, 3)):
    """All functions vanishing at the origin: every monomial but the constant."""
    g = TruncationGrid(caps)
    cols = np.eye(g.dim, dtype=complex)[:, 1:]
    s, _ = subspace_from_columns(g, cols)
    return s


def test_monomial_quotient_is_float_exact():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    assert qd.invariance == 0.0
    rep = identity_suite(qd, tol=1e-10)
    assert rep.verdict
    for key in ("xij", "beurling_defect_product", *UNCONDITIONAL):
        assert rep.residuals[key] <= 1e-12, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-12


def test_monomial_defect_is_named_projection():
    # for z1 z2 on caps (3, 3) the first defect projects onto the pure z2
    # powers, its compression formula P_Q M_1* P_S M_1 P_Q, plus the one
    # monomial z1^3 of Q on the top slice, where M_1 drops it
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    g = qd.grid
    m1 = shift_matrices(g)[0]
    p_q = np.eye(g.dim) - dense.projection(qd.s)
    c1 = dense.compressions(qd)[0]
    defect = p_q - c1.conj().T @ c1
    pure_z2, top = np.zeros((g.dim, g.dim)), np.zeros((g.dim, g.dim))
    for i in range(g.dim):
        k, _ = dense.unflat(g, i)
        pure_z2[i, i] = k[0] == 0 and k[1] >= 1
        top[i, i] = k == (3, 0)
    formula = p_q @ m1.conj().T @ dense.projection(qd.s) @ m1 @ p_q
    np.testing.assert_allclose(formula, pure_z2, atol=1e-12)
    np.testing.assert_allclose(defect, pure_z2 + top, atol=1e-12)


def test_beurling_verdicts():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    rep = beurling_criterion(qd, tol=1e-10)
    assert rep.verdict
    assert rep.residuals["beurling_defect_product"] <= 1e-12

    qd0 = quotient_data(s00_subspace(), margins=(1, 1))
    rep0 = beurling_criterion(qd0, tol=1e-8)
    assert not rep0.verdict
    assert rep0.residuals["beurling_defect_product"] == pytest.approx(1.0, abs=1e-12)


def test_s00_identities_hold_but_criteria_fail():
    qd = quotient_data(s00_subspace(), margins=(1, 1))
    assert qd.s.complement.shape[1] == 1
    for c in qd.compressions:
        assert spectral_norm(c) <= 1e-14
    rep = identity_suite(qd, tol=1e-10)
    for key in UNCONDITIONAL:
        assert rep.residuals[key] <= 1e-12, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-10
    assert rep.residuals["xij"] >= 0.5

    cross = cross_commutator_criterion(s00_subspace(), margins=(1, 1))
    assert cross.residuals["cross_commutator"] >= 0.5
    assert not cross.verdict


def test_three_verdicts_agree_on_both_poles():
    tol = 1e-6
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    b = beurling_criterion(qd, tol=tol).verdict
    c = cross_commutator_criterion(qd.s, margins=(1, 1), tol=tol).verdict
    x = identity_suite(qd, tol=tol).residuals["xij"] <= tol
    assert b and c and x

    qd0 = quotient_data(s00_subspace(), margins=(1, 1))
    b0 = beurling_criterion(qd0, tol=tol).verdict
    c0 = cross_commutator_criterion(qd0.s, margins=(1, 1), tol=tol).verdict
    x0 = identity_suite(qd0, tol=tol).residuals["xij"] <= tol
    assert not (b0 or c0 or x0)


def test_detectors_share_one_defect_product():
    entry = next(e for e in corpus_entries(0) if len(e.caps) == 3 and e.symbol is not None)
    qd = quotient_data(entry.subspace(), margins=entry.margins)
    products = qd.defect_products
    b = beurling_criterion(qd, tol=1e-6)
    s = identity_suite(qd, tol=1e-6)
    assert qd.defect_products is products
    assert len(products) == 3
    assert b.residuals["beurling_defect_product"] == s.residuals["beurling_defect_product"]


def test_blaschke_half_embedded_quotient():
    # Q is a space of z1 times all of H^2(z2), so the second defect is only
    # the top-slice term P_Q E_2 P_Q
    sym = AnalyticSymbol.blaschke(0.5, 0, nvars=2)
    qd = make_quotient(sym, (8, 8))
    g = qd.grid
    p_q = np.eye(g.dim) - dense.projection(qd.s)
    c2 = dense.compressions(qd)[1]
    e2 = np.zeros((g.dim, g.dim))
    e2[g.top_slice_indices(1), g.top_slice_indices(1)] = 1.0
    assert spectral_norm(p_q - c2.conj().T @ c2 - p_q @ e2 @ p_q) <= 1e-6
    assert beurling_criterion(qd, tol=1e-6).verdict
    cross = cross_commutator_criterion(qd.s, margins=eval_margins(sym), tol=1e-6)
    assert cross.verdict


def test_corpus_scale_blaschke_product_meets_identity_ceiling():
    b1 = AnalyticSymbol.blaschke(0.05, 0, nvars=2)
    b2 = AnalyticSymbol.blaschke(0.04 + 0.02j, 1, nvars=2)
    qd = make_quotient(b1.matmul(b2), (6, 6))
    rep = identity_suite(qd, tol=1e-10)
    assert rep.verdict
    for key in UNCONDITIONAL:
        assert rep.residuals[key] <= 1e-10, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-10


def test_constant_unitary_quotient_is_trivial():
    g = TruncationGrid((2, 2), channels=2)
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    s = submodule_projection(AnalyticSymbol.constant(u, nvars=2), g)
    qd = quotient_data(s, margins=(1, 1))
    assert qd.s.complement.shape[1] == 0
    rep = identity_suite(qd, tol=1e-10)
    assert rep.verdict
    for key, val in rep.residuals.items():
        if key != "defect_domination_min_eig":
            assert val <= 1e-12, key


def test_invariance_gate_rejects_random_subspace():
    g = TruncationGrid((2, 2))
    rng = np.random.default_rng(11)
    cols = rng.normal(size=(g.dim, 3)) + 1j * rng.normal(size=(g.dim, 3))
    s, _ = subspace_from_columns(g, cols)
    with pytest.raises(InvarianceError):
        quotient_data(s, margins=(1, 1))
    with pytest.raises(InvarianceError):
        cross_commutator_criterion(s, margins=(1, 1))


def test_empty_window_rejected():
    qd_caps = TruncationGrid((2, 2))
    s = submodule_projection(AnalyticSymbol.monomial((1, 1)), qd_caps)
    with pytest.raises(ValueError, match="empty"):
        quotient_data(s, margins=(3, 3))


def test_cross_commutator_rejects_an_empty_window():
    # the origin complement is not of Beurling type; an empty window must not
    # report it as a pass with residual 0
    s = s00_subspace((3, 3))
    assert not cross_commutator_criterion(s, margins=(1, 1)).verdict
    with pytest.raises(ValueError, match="empty evaluation window"):
        cross_commutator_criterion(s, margins=(4, 4))
    with pytest.raises(ValueError, match="empty evaluation window"):
        quotient_data(s, margins=(4, 4))


def test_quotient_data_refuses_a_complement_basis_that_is_no_isometry():
    """A hand-built split whose complement basis is scaled by 1.001 passes
    the invariance gate, but its compressions exceed unit norm."""
    s = submodule_projection(AnalyticSymbol.monomial((1, 0)), TruncationGrid((3, 3)))
    scaled = SubspaceData(s.grid, 1.001 * s.complement)
    with pytest.raises(ValueError, match="compression 1 exceeds unit norm"):
        quotient_data(scaled)


def test_shift_power():
    g = TruncationGrid((2, 2))
    mats = shift_matrices(g)
    m = shift_power(mats, (1, 2))
    np.testing.assert_array_equal(m @ dense.unit(g, (0, 0)), dense.unit(g, (1, 2)))
    np.testing.assert_array_equal(m @ dense.unit(g, (1, 0)), dense.unit(g, (2, 2)))
    np.testing.assert_array_equal(m @ dense.unit(g, (1, 1)), np.zeros(g.dim))
    with pytest.raises(ValueError):
        shift_power(mats, (-1, 0))


@settings(max_examples=15)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       ncols=st.integers(min_value=1, max_value=7))
def test_defect_decomposition_exact_for_any_subspace(seed, ncols):
    """P_Q - C*C = P_Q M* P_S M P_Q + P_Q E P_Q holds for arbitrary splits.

    This is pure matrix algebra in the truncation, so it must hold at float
    accuracy even for subspaces that are nowhere near shift-invariant.
    """
    g = TruncationGrid((2, 2))
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(g.dim, ncols)) + 1j * rng.normal(size=(g.dim, ncols))
    s, _ = subspace_from_columns(g, cols)
    p_s = dense.projection(s)
    p_q = np.eye(g.dim) - p_s
    for t, m in enumerate(shift_matrices(g)):
        chat = p_q @ m @ p_q
        e_t = np.zeros((g.dim, g.dim))
        for i in g.top_slice_indices(t):
            e_t[i, i] = 1.0
        lhs = p_q - chat.conj().T @ chat
        rhs = p_q @ m.conj().T @ p_s @ m @ p_q + p_q @ e_t @ p_q
        assert spectral_norm(lhs - rhs) <= 1e-13
        # and the defect is PSD for any subspace because shifts contract
        assert float(np.linalg.eigvalsh((lhs + lhs.conj().T) / 2)[0]) >= -1e-13


# ---- the battery against the dense formulas it replaced ----------------------

def _dense_battery(s, margins, tol):
    """Every residual and verdict of the detectors, the suite and the invariance
    gate, written out with dim x dim shifts and projections.

    Only the invariance gate is windowed; every other residual is the norm
    of a dense matrix on the whole grid."""
    g = s.grid
    n = g.nvars
    window = g.window_indices(margins)
    mats = shift_matrices(g)
    adj = [m.conj().T for m in mats]
    p_s = dense.projection(s)
    p_q = np.eye(g.dim) - p_s
    # an orthonormal basis of range(P_Q), read from the dense projection
    w, vecs = np.linalg.eigh(p_q)
    on_q = vecs[:, w > 0.5]
    top = []
    for t in range(n):
        e_t = np.zeros((g.dim, g.dim))
        e_t[g.top_slice_indices(t), g.top_slice_indices(t)] = 1.0
        top.append(e_t)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]

    inv = [windowed_norm(p_s @ m @ p_s - m @ p_s, window) for m in mats]
    chat = [p_q @ m @ p_q for m in mats]
    dhat = [p_q - c.conj().T @ c for c in chat]
    ghat = [p_q @ a @ p_s @ m @ p_q for m, a in zip(mats, adj)]
    products = {(i, j): spectral_norm(ghat[i] @ ghat[j]) for i in range(n) for j in range(i + 1, n)}
    worst_prod = max(products.values(), default=0.0)
    beurling = {f"pair_{i}_{j}": v for (i, j), v in products.items()}
    beurling["beurling_defect_product"] = worst_prod

    # B_S R_j* R_i B_S* = P_S M_j* P_S M_i P_S for R_t = B_S* M_t B_S
    r = [p_s @ m @ p_s for m in mats]
    cross = {f"pair_{i}_{j}": spectral_norm(r[j].conj().T @ r[i] - r[i] @ r[j].conj().T)
             for i, j in pairs if i < j}
    cross["cross_commutator"] = max(cross.values(), default=0.0)

    x = {(i, j): p_s @ mats[i] @ p_q @ adj[j] @ p_s for i, j in pairs}
    suite = {
        "defect_identity": max(spectral_norm(d - gh - p_q @ e_t @ p_q)
                               for d, gh, e_t in zip(dhat, ghat, top)),
        "xij": max((spectral_norm(v) for v in x.values()), default=0.0),
    }
    comm_worst, min_eig = 0.0, np.inf
    for i, j in pairs:  # K = [C_i, C_j*]
        comm = chat[i] @ chat[j].conj().T - chat[j].conj().T @ chat[i]
        comm_worst = max(comm_worst, spectral_norm(
            comm - p_q @ adj[j] @ p_s @ mats[i] @ p_q + p_q @ mats[i] @ p_s @ adj[j] @ p_q))
        dom = on_q.conj().T @ (dhat[i] - comm.conj().T @ comm) @ on_q
        min_eig = min(min_eig, float(np.linalg.eigvalsh(dom)[0]))
    suite["commutator_identity"] = comm_worst
    suite["defect_domination_min_eig"] = min_eig
    # P_Q X_t P_S + P_Q E_t P_S + P_Q M_t* P_Q M_t P_S with X_t = M_t* P_S M_t
    suite["reduces"] = max(
        spectral_norm(p_q @ a @ p_s @ m @ p_s + p_q @ e_t @ p_s + p_q @ a @ p_q @ m @ p_s)
        for m, a, e_t in zip(mats, adj, top))
    suite["beurling_defect_product"] = worst_prod

    suite_verdicts = {k: v <= tol for k, v in suite.items()
                      if k not in ("xij", "beurling_defect_product")}
    suite_verdicts["defect_domination_min_eig"] = min_eig >= -tol
    return {
        "invariance": inv,
        "beurling": (beurling, {"beurling_defect_product": worst_prod <= tol}),
        "cross": (cross, {"cross_commutator": cross["cross_commutator"] <= tol}),
        "suite": (suite, suite_verdicts),
    }


def _assert_battery_matches_dense(s, margins, tol=1e-6, atol=1e-13):
    qd = quotient_data(s, margins=margins)
    reports = {
        "beurling": beurling_criterion(qd, tol=tol),
        "cross": cross_commutator_criterion(s, margins=margins, tol=tol),
        "suite": identity_suite(qd, tol=tol),
    }
    dense = _dense_battery(s, margins, tol)
    np.testing.assert_allclose(qd.invariance_per_variable, dense["invariance"], rtol=0, atol=atol)
    assert qd.invariance == max(qd.invariance_per_variable)
    for name, rep in reports.items():
        residuals, verdicts = dense[name]
        assert list(rep.residuals) == list(residuals), name
        for key, want in residuals.items():
            assert abs(rep.residuals[key] - want) <= atol, (name, key, rep.residuals[key], want)
        assert rep.verdicts == verdicts, name
    return reports


def test_battery_matches_dense_formulas_on_a_three_variable_entry():
    entry = next(e for e in corpus_entries(0) if e.caps == (3, 3, 3))
    reports = _assert_battery_matches_dense(entry.subspace(), entry.margins)
    assert reports["beurling"].verdict


def test_battery_matches_dense_formulas_on_a_blaschke_product():
    sym = AnalyticSymbol.blaschke(0.3, 0, nvars=2).matmul(
        AnalyticSymbol.blaschke(0.2 - 0.1j, 1, nvars=2))
    s = submodule_projection(sym, TruncationGrid((6, 6)))
    _assert_battery_matches_dense(s, eval_margins(sym))


def test_battery_matches_dense_formulas_on_the_origin_complement():
    entry = next(e for e in corpus_entries(0) if e.entry_id == "origin-complement")
    reports = _assert_battery_matches_dense(entry.subspace(), entry.margins)
    assert not reports["beurling"].verdict


@st.composite
def monomial_submodules(draw):
    """A shift-invariant subspace: a monomial ideal in each channel, channels mixed by a unitary."""
    nvars = draw(st.integers(min_value=2, max_value=3))
    caps = tuple(draw(st.lists(st.integers(min_value=2, max_value=3 if nvars == 2 else 2),
                               min_size=nvars, max_size=nvars)))
    channels = draw(st.integers(min_value=1, max_value=3))
    g = TruncationGrid(caps, channels)
    exponent = st.tuples(*(st.integers(min_value=0, max_value=c) for c in caps))
    generators = draw(st.lists(st.lists(exponent, max_size=2),
                               min_size=channels, max_size=channels))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    unitary, _ = np.linalg.qr(rng.normal(size=(channels, channels))
                              + 1j * rng.normal(size=(channels, channels)))
    columns = []
    for s, gens in enumerate(generators):
        for r, k in enumerate(g.multi_indices):
            if any(all(a >= b for a, b in zip(k, gen)) for gen in gens):
                col = np.zeros(g.dim, dtype=complex)
                col[r * channels:(r + 1) * channels] = unitary[:, s]
                columns.append(col)
    cols = np.array(columns).T if columns else np.zeros((g.dim, 0), dtype=complex)
    margins = tuple(draw(st.integers(min_value=1, max_value=c)) for c in caps)
    return subspace_from_columns(g, cols)[0], margins


@settings(max_examples=25, deadline=None)
@given(case=monomial_submodules())
def test_battery_matches_dense_formulas_on_drawn_submodules(case):
    s, margins = case
    _assert_battery_matches_dense(s, margins)


def _held_arrays(obj, seen):
    """Every array reachable from a split through its fields, caches and containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _held_arrays(value, seen)
    elif isinstance(obj, (QuotientData, SubspaceData)):
        for value in vars(obj).values():
            yield from _held_arrays(value, seen)


def test_detector_path_forms_no_dense_shift_or_projection(no_dense_operators):
    """quotient_data, the three detectors and identity_suite work from
    index maps and blocks only, and the split holds no dim x dim array."""
    from hardylab import operators

    entry = next(e for e in corpus_entries(0) if e.entry_id == "product3-00")
    sub = entry.subspace()
    qd = quotient_data(sub, margins=entry.margins)
    assert beurling_criterion(qd, tol=1e-6).verdict
    assert cross_commutator_criterion(sub, margins=entry.margins, tol=1e-6).verdict
    assert identity_suite(qd, tol=1e-6).verdict
    with pytest.raises(AssertionError, match="dense shift"):
        operators.shift_matrices(sub.grid)

    dim = qd.grid.dim
    assert dim == 343
    held = list(_held_arrays(qd, set()))
    # the tensored B_Q is formed only when read, so the walk finds the core's
    assert any(a is qd.s.core.complement for a in held) and any(a is qd.defect_blocks[0] for a in held)
    assert all(a.shape != (dim, dim) for a in held), [a.shape for a in held]

    # every block member is sized by the core's q = 13, not the grid's 91
    core = qd.s.core
    q, n = core.complement.shape[1], core.grid.nvars
    assert (q, dim - qd.s.rank, n) == (13, 91, 2)
    assert [qd.leak(t).shape for t in range(n)] == [(core.grid.dim, q)] * n
    square = [*qd.defect_split, *qd.defect_blocks,
              *(qd.gram(a, b) for a in range(n) for b in range(n)),
              *(qd.commutator(i, j) for i in range(n) for j in range(n) if i != j)]
    assert [a.shape for a in square] == [(q, q)] * len(square)


@pytest.mark.parametrize("case", ["b0.05(z1)z2-caps-8-8", "product3-00"])
def test_a_split_and_its_battery_hold_nothing_wider_than_q(case):
    """A symbol split followed by quotient_data and the three detectors holds
    B_Q and blocks of Q alone: the split has no basis of S, and no array
    held by the split, its core or the QuotientData, the grid-sized B_Q
    read last included, has more columns than the quotient's dimension q
    (the core's q for the core, which holds nothing of the split)."""
    if case.startswith("product3"):
        entry = next(e for e in corpus_entries(0) if e.entry_id == case)
        symbol, grid, margins = entry.symbol, entry.grid(), entry.margins
    else:
        symbol = AnalyticSymbol.blaschke(0.05, 0, 2).matmul(AnalyticSymbol.monomial((0, 1)))
        grid, margins = TruncationGrid((8, 8)), None
    s = submodule_projection(symbol, grid)
    qd = quotient_data(s, margins=margins)
    assert beurling_criterion(qd).verdict
    assert cross_commutator_criterion(s, margins=margins).verdict
    assert identity_suite(qd).verdict
    assert not hasattr(s, "basis") and not hasattr(s.core, "basis")
    core = s.core
    q, core_q = s.grid.dim - s.rank, core.grid.dim - core.rank
    assert (q, core_q) == ((17, 17) if core is s else (91, 13))
    assert s.complement.shape == (s.grid.dim, q)
    for owner, width in ((qd, q), (s, q), (core, core_q)):
        held = list(_held_arrays(owner, set()))
        assert held and all(a.ndim == 2 and a.shape[1] <= width for a in held), (
            type(owner).__name__, width, [a.shape for a in held])


def test_battery_lifts_no_compression(monkeypatch):
    """quotient_data and the three detectors take no Kronecker product on
    a split tensored from its core; the compressions on the grid are lifted
    only when read."""
    entry = next(e for e in corpus_entries(0) if e.entry_id == "product3-00")
    sub = entry.subspace()
    calls = []
    kron = np.kron

    def counted(*args, **kwargs):
        calls.append(1)
        return kron(*args, **kwargs)

    monkeypatch.setattr(np, "kron", counted)
    qd = quotient_data(sub, margins=entry.margins)
    beurling_criterion(qd, tol=1e-6)
    cross_commutator_criterion(sub, margins=entry.margins, tol=1e-6)
    identity_suite(qd, tol=1e-6)
    assert calls == []
    assert [c.shape for c in qd.compressions] == [(91, 91)] * 3
    assert len(calls) == 3


def _counting(monkeypatch, names):
    """Wrap np.linalg.<name> for each name; returns the dict of call counts."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(np.linalg, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_residual_norms_factor_one_side_and_take_no_svd(monkeypatch):
    """On a 3-variable caps-6 entry whose symbol leaves one variable free,
    the battery runs on the 2-variable core: one thin QR for the core's one
    unordered pair in the cross-commutator criterion, U_1 of the core in
    xij, none in reduces, and no SVD in any residual norm of the split, the
    detectors or the battery."""
    entry = next(e for e in corpus_entries(0) if e.entry_id == "product3-00")
    sub = entry.subspace()
    assert sub.grid.caps == (6, 6, 6) and len(sub.used) == 2
    calls = _counting(monkeypatch, ("qr", "svd"))
    data = quotient_data(sub, margins=entry.margins)
    assert calls == {"qr": 1, "svd": 0}          # R_Q of the core's invariance window
    calls["qr"] = 0
    cross_commutator_criterion(sub, margins=entry.margins, tol=1e-6)
    assert calls == {"qr": 1, "svd": 0}
    calls["qr"] = 0
    assert data.xij <= 1e-6
    assert calls == {"qr": 1, "svd": 0}
    calls["qr"] = 0
    beurling_criterion(data, tol=1e-6)
    suite = identity_suite(data, tol=1e-6)
    assert suite.verdict
    assert calls == {"qr": 0, "svd": 0}


# ---- the battery reads the basis of Q alone -----------------------------------

def _battery_outcome(s, margins):
    qd = quotient_data(s, margins=margins)
    reports = (beurling_criterion(qd, tol=1e-6),
               cross_commutator_criterion(s, margins=margins, tol=1e-6),
               identity_suite(qd, tol=1e-6))
    return qd.invariance_per_variable, [(rep.residuals, rep.verdicts) for rep in reports]


def _rebuilt(s):
    """A fresh split from B_Q of s alone, with no discarded count and no
    cache; a tensored split is tensored the same way from its core's B_Q."""
    if s.core is s:
        return SubspaceData(s.grid, s.complement.copy())
    return _TensoredSplit(SubspaceData(s.core.grid, s.core.complement.copy()), s.grid, s.used)


def _assert_battery_ignores_the_submodule_basis(s, margins):
    """The split holds no basis of S, and a split rebuilt from its B_Q alone
    gives the same outcome: every residual is read from B_Q."""
    assert not hasattr(s, "basis") and not hasattr(s.core, "basis")
    assert _battery_outcome(_rebuilt(s), margins) == _battery_outcome(s, margins)


def _dim_343_product():
    entry = next(e for e in corpus_entries(0) if e.kind == "blaschke_product" and e.caps == (6, 6, 6))
    s = entry.subspace()
    assert s.grid.dim == 343 and 0 < s.complement.shape[1] < s.grid.dim
    return s, entry.margins


def test_battery_ignores_the_submodule_basis_on_a_dim_343_entry():
    s, margins = _dim_343_product()
    assert s.core is not s and s.core.grid.dim == 49
    _assert_battery_ignores_the_submodule_basis(s, margins)


def test_battery_ignores_the_submodule_basis_on_a_stripped_dim_343_entry():
    """The same split with no core runs the battery on the whole grid."""
    s, margins = _dim_343_product()
    stripped = SubspaceData(s.grid, s.complement)
    assert stripped.core is stripped
    _assert_battery_ignores_the_submodule_basis(stripped, margins)


@settings(max_examples=10, deadline=None)
@given(case=monomial_submodules().filter(lambda case: case[0].grid.channels == 2))
def test_battery_ignores_the_submodule_basis_on_drawn_two_channel_submodules(case):
    _assert_battery_ignores_the_submodule_basis(*case)


# ---- known answers -------------------------------------------------------------

def _rank_one_projection(w):
    return np.outer(w, w.conj()) / np.vdot(w, w).real


def _blaschke_potapov_pair():
    """Theta_BP = [(I - P) + P z1] [(I - R) + R z2], a 2 x 2 polynomial inner
    function, with P and R the projections onto two seeded random lines."""
    rng = np.random.default_rng(0)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    p, r, eye = _rank_one_projection(v), _rank_one_projection(u), np.eye(2)
    f1 = AnalyticSymbol.polynomial({(0, 0): eye - p, (1, 0): p}, nvars=2, rows=2, cols=2)
    f2 = AnalyticSymbol.polynomial({(0, 0): eye - r, (0, 1): r}, nvars=2, rows=2, cols=2)
    return f1.matmul(f2)


def _column_pair():
    """theta_col = [z1; z2] / sqrt(2), a 2 x 1 inner function."""
    e1, e2 = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    return AnalyticSymbol.polynomial({(1, 0): e1 / np.sqrt(2), (0, 1): e2 / np.sqrt(2)},
                                     nvars=2, rows=2, cols=1)


def _detectors(s, margins, tol=1e-8):
    qd = quotient_data(s, margins=margins)
    return (beurling_criterion(qd, tol=tol), cross_commutator_criterion(s, margins=margins, tol=tol),
            identity_suite(qd, tol=tol))


@pytest.mark.parametrize("caps", [4, 6, 10])
@pytest.mark.parametrize("make", [_blaschke_potapov_pair, _column_pair],
                         ids=["theta_bp", "theta_col"])
def test_vector_valued_beurling_quotients_pass_every_detector(make, caps):
    """Both symbols are inner, so S = Theta H^2(C^m) is a Beurling submodule.

    A defect measured through a window reads 0.24 on Theta_BP and 0.25 on
    theta_col at every caps, because Q has mass both inside the window and
    on the top slice; the exact full-grid forms see no such term.
    """
    sym = make()
    s = submodule_projection(sym, TruncationGrid((caps, caps)))
    product, cross, suite = _detectors(s, eval_margins(sym))
    assert product.verdict and cross.verdict and suite.residuals["xij"] <= 1e-8
    for key in UNCONDITIONAL:
        assert suite.residuals[key] <= 1e-14, key


@pytest.mark.parametrize("generators", [
    ((2, 0), (0, 1)),
    ((2, 0), (1, 1), (0, 2)),
    ((3, 0), (1, 1), (0, 2)),
], ids=["z1^2,z2", "(z1,z2)^2", "z1^3,z1z2,z2^2"])
def test_monomial_ideals_are_not_beurling(generators):
    g = TruncationGrid((6, 6))
    cols = [dense.unit(g, k) for k in g.multi_indices
            if any(all(a >= b for a, b in zip(k, gen)) for gen in generators)]
    s, _ = subspace_from_columns(g, np.array(cols).T)
    product, cross, suite = _detectors(s, (1, 1))
    assert product.residuals["beurling_defect_product"] >= 0.99
    assert cross.residuals["cross_commutator"] >= 0.99
    assert suite.residuals["xij"] >= 0.99
    assert not (product.verdict or cross.verdict)
    for key in UNCONDITIONAL:
        assert suite.residuals[key] <= 1e-14, key


def _random_split(seed):
    """A split of caps (3, 3) along 1 + seed random columns, built past the
    invariance gate, which refuses it."""
    g = TruncationGrid((3, 3))
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(g.dim, 1 + seed)) + 1j * rng.normal(size=(g.dim, 1 + seed))
    s, _ = subspace_from_columns(g, cols)
    with pytest.raises(InvarianceError):
        quotient_data(s)
    return QuotientData(s=s, invariance=float("nan"), invariance_per_variable=())


@pytest.mark.parametrize("seed", range(8))
def test_exact_identities_hold_far_from_invariance(seed):
    """The three identities are exact matrix algebra, so they hold to rounding
    for random splits that the invariance gate would reject."""
    qd = _random_split(seed)
    rep = identity_suite(qd, tol=1e-14)
    assert rep.residuals["xij"] > 0.1
    for key in UNCONDITIONAL:
        assert rep.residuals[key] <= 1e-14, key


def _assert_gram_products_within_xij(qd):
    """||G_ji G_ji||, ||G_ii G_ji|| and ||G_ji G_jj|| for every ordered pair of
    core variables are at most xij: each is U_a* (U_i U_j*) U_b with the
    contractions U_a, U_b, so identity_suite need not report them."""
    n = qd.s.core.grid.nvars
    for i in range(n):
        for j in range(n):
            if i != j:
                for a, b, c, d in ((j, i, j, i), (i, i, j, i), (j, i, j, j)):
                    product = spectral_norm(qd.gram(a, b) @ qd.gram(c, d))
                    assert product <= qd.xij, ((i, j), (a, b, c, d), product, qd.xij)


@pytest.mark.parametrize("seed", range(4))
def test_gram_products_are_bounded_by_xij_on_the_corpus(seed):
    for entry in corpus_entries(seed):
        _assert_gram_products_within_xij(quotient_data(entry.subspace(), margins=entry.margins))


@pytest.mark.parametrize("seed", range(8))
def test_gram_products_are_bounded_by_xij_far_from_invariance(seed):
    _assert_gram_products_within_xij(_random_split(seed))


# ---- the battery on the core, lifted over the free variables -------------------

def _battery(s, margins, tol=1e-6):
    qd = quotient_data(s, margins=margins)
    return qd, (beurling_criterion(qd, tol=tol),
                cross_commutator_criterion(s, margins=margins, tol=tol),
                identity_suite(qd, tol=tol))


def _stripped(s):
    """The same split with no core: the battery then runs on the whole grid."""
    return SubspaceData(s.grid, s.complement)


def _bp_factor(v, var, nvars):
    """(I - P) + P z_var for the rank-one projection P onto v: a 2 x 2 inner factor."""
    p = _rank_one_projection(v)
    e = tuple(int(t == var) for t in range(nvars))
    return AnalyticSymbol.polynomial({(0,) * nvars: np.eye(2) - p, e: p}, nvars, rows=2, cols=2)


def _leaves_a_variable_free(symbol):
    """Whether some variable appears in no key of the symbol; a constant
    counts as using its first variable only."""
    keys = (*symbol.numerator, *symbol.denominator)
    return symbol.nvars > 1 and (sum(any(k[t] for k in keys) for t in range(symbol.nvars))
                                 in range(symbol.nvars))


def _free_variable_cases():
    """id -> (symbol, caps, margins): symbols that leave a grid variable free."""
    b = AnalyticSymbol.blaschke
    cases = {}
    for seed in range(3):
        for entry in corpus_entries(seed):
            if entry.symbol is not None and _leaves_a_variable_free(entry.symbol):
                cases[f"corpus{seed}-{entry.entry_id}"] = (entry.symbol, entry.caps, entry.margins)
    rng = np.random.default_rng(0)
    v, u = (rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(2))
    beta = b(0.6, 0, 3).matmul(b(0.6j, 1, 3))
    cases.update({
        # residuals at truncation level, not rounding
        "b0.6(z1)b0.6i(z2)-caps-6-6-3": (beta, (6, 6, 3), (1, 1, 1)),
        "two-channel-bp-z1-z2-of-three": (_bp_factor(v, 0, 3).matmul(_bp_factor(u, 1, 3)),
                                          (4, 3, 2), (1, 1, 1)),
        # a one-variable core, with no pair inside it
        "b(z2)-alone-of-three": (b(0.3 - 0.2j, 1, 3), (3, 5, 2), (1, 1, 1)),
        # q = 0
        "constant-unitary": (AnalyticSymbol.constant(np.array([[1, 1j], [1j, 1]]) / np.sqrt(2), 3),
                             (2, 1, 2), (1, 1, 1)),
        # cap 0 on the free variable: D_f = I
        "caps-6-6-0": (b(0.05, 0, 3).matmul(b(0.04j, 1, 3)), (6, 6, 0), (1, 1, 0)),
    })
    return cases


FREE_VARIABLE_CASES = _free_variable_cases()


@pytest.mark.parametrize("name", sorted(FREE_VARIABLE_CASES))
def test_factored_battery_matches_the_full_grid_battery(name):
    """The battery on the core, lifted over the free variables, against the
    battery of the same B_Q with no core, which runs on the whole grid."""
    symbol, caps, margins = FREE_VARIABLE_CASES[name]
    s = submodule_projection(symbol, TruncationGrid(caps))
    assert s.core is not s and len(s.used) < s.grid.nvars
    qd, reports = _battery(s, margins)
    ref_qd, ref_reports = _battery(_stripped(s), margins)
    assert ref_qd.s.core is ref_qd.s and qd.s.core is not qd.s
    np.testing.assert_allclose(qd.invariance_per_variable, ref_qd.invariance_per_variable,
                               rtol=0, atol=1e-14)
    assert qd.invariance == max(qd.invariance_per_variable)
    for t in range(s.grid.nvars):
        if t not in s.used:
            assert qd.invariance_per_variable[t] == 0.0
    assert len(qd.compressions) == len(ref_qd.compressions) == s.grid.nvars
    for c, ref in zip(qd.compressions, ref_qd.compressions):
        assert c.shape == ref.shape
        assert np.abs(c - ref).max(initial=0.0) <= 1e-14
    for rep, ref in zip(reports, ref_reports):
        assert list(rep.residuals) == list(ref.residuals), rep.name
        assert rep.verdicts == ref.verdicts, rep.name
        for key, want in ref.residuals.items():
            assert abs(rep.residuals[key] - want) <= 1e-14, (rep.name, key, rep.residuals[key], want)
    free = [t for t in range(s.grid.nvars) if t not in s.used]
    for rep in reports[:2]:
        for key, value in rep.residuals.items():
            if key.startswith("pair_") and any(str(f) in key.split("_")[1:] for f in free):
                assert value == 0.0, (rep.name, key)


def test_factored_battery_raises_the_full_grid_error_on_an_empty_window():
    """Default margins on caps (6, 6, 0) leave the window empty; the factored
    and the stripped split refuse it with the same error."""
    symbol = AnalyticSymbol.blaschke(0.05, 0, 3).matmul(AnalyticSymbol.blaschke(0.04j, 1, 3))
    s = submodule_projection(symbol, TruncationGrid((6, 6, 0)))
    messages = []
    for split in (s, _stripped(s)):
        for run in (lambda: quotient_data(split, margins=eval_margins(symbol)),
                    lambda: cross_commutator_criterion(split, margins=None)):
            with pytest.raises(ValueError, match="empty evaluation window") as err:
                run()
            messages.append(str(err.value))
    assert len(set(messages)) == 1


def test_free_variable_residuals_take_their_closed_forms():
    """b(z2) alone on three variables: every pair involves a free variable,
    so every pair residual reads 0.0 and the domination term is
    min(lambda_min(D_2 of the core), 0 for a free variable with cap > 0)."""
    s = submodule_projection(AnalyticSymbol.blaschke(0.3 - 0.2j, 1, 3), TruncationGrid((3, 5, 2)))
    assert s.used == (1,)
    qd, (product, cross, suite) = _battery(s, (1, 1, 1))
    assert all(v == 0.0 for v in product.residuals.values())
    assert all(v == 0.0 for v in cross.residuals.values())
    for key in ("xij", "commutator_identity", "beurling_defect_product"):
        assert suite.residuals[key] == 0.0, key
    # measured on z2 alone: rounding of the core
    assert suite.residuals["defect_identity"] <= 1e-14 and suite.residuals["reduces"] <= 1e-14
    d_core = float(np.linalg.eigvalsh(qd.defect_blocks[0])[0])
    assert suite.residuals["defect_domination_min_eig"] == min(d_core, 0.0)
    assert qd.invariance_per_variable[0] == qd.invariance_per_variable[2] == 0.0

    # with cap 0 on every free variable, D_f = I and the mixed pairs read D_2 of the core
    s = submodule_projection(AnalyticSymbol.blaschke(0.3 - 0.2j, 1, 3), TruncationGrid((0, 5, 0)))
    qd, (_, _, suite) = _battery(s, (0, 1, 0))
    want = min(float(np.linalg.eigvalsh(qd.defect_blocks[0])[0]), 1.0)
    assert suite.residuals["defect_domination_min_eig"] == want


@pytest.mark.parametrize("entry_id", ["product3-00", "blaschke3-00"])
def test_corpus_battery_factors_only_its_support_block(entry_id, no_grid_wide_qr, monkeypatch):
    """quotient_data, the three detectors and identity_suite take no QR of
    more rows than the support grid's dim and no eigenvalue problem larger
    than 2 q for the core's q: the Gram of the cross-commutator's one-sided
    factor R [U_i, -V_j]*, whose R factors the 2 q columns [U_j, V_i]."""
    entry = next(e for e in corpus_entries(0) if e.entry_id == entry_id)
    sub = entry.subspace()
    core = sub.core
    assert core is not sub and core.grid.dim < sub.grid.dim == 343
    q = core.complement.shape[1]
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return eigvalsh(a, *args, **kwargs)

    no_grid_wide_qr(core.grid.dim + 1)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    _, reports = _battery(sub, entry.margins)
    assert all(rep.verdict for rep in reports)
    assert sizes and max(sizes) <= 2 * q, (max(sizes), q)
