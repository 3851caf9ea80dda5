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
    RANK_TOL,
    InvarianceError,
    SubspaceData,
    subspace_from_columns,
    submodule_projection,
)
from hardylab.symbols import AnalyticSymbol
from hardylab.criteria import (
    QuotientData,
    beurling_criterion,
    cross_commutator_criterion,
    douglas_factor,
    identity_suite,
    psd_sqrt,
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
    for key in ("xij", "beurling_defect_product", *UNCONDITIONAL,
                "annihilation_1", "annihilation_2", "annihilation_3"):
        assert rep.residuals[key] <= 1e-12, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-12


def test_monomial_defect_is_named_projection():
    # for z1 z2 on caps (3, 3) the first defect projects onto the pure z2
    # powers, its compression formula P_Q M_1* P_S M_1 P_Q, plus the one
    # monomial z1^3 of Q on the top slice, where M_1 drops it
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    g = qd.grid
    m1 = shift_matrices(g)[0]
    p_q = dense.projection(qd.q)
    c1 = dense.compressions(qd)[0]
    defect = p_q - c1.conj().T @ c1
    pure_z2, top = np.zeros((g.dim, g.dim)), np.zeros((g.dim, g.dim))
    for i in range(g.dim):
        k, _ = g.unflatten(i)
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
    assert qd.q.rank == 1
    for c in qd.compressions:
        assert spectral_norm(c) <= 1e-14
    rep = identity_suite(qd, tol=1e-10)
    for key in UNCONDITIONAL:
        assert rep.residuals[key] <= 1e-12, key
    assert rep.residuals["defect_domination_min_eig"] >= -1e-10
    assert rep.residuals["xij"] >= 0.5
    assert "annihilation_1" not in rep.residuals  # skipped: hypothesis fails

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
    p_q = dense.projection(qd.q)
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
    s = submodule_projection(AnalyticSymbol.constant(u, nvars=2), g, margins=(0, 0))
    qd = quotient_data(s, margins=(1, 1))
    assert qd.q.rank == 0
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


def test_hat_dict_keys_must_name_a_variable():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    with pytest.raises(ValueError, match="khat key 5"):
        identity_suite(qd, khat={5: (0, 1)})
    with pytest.raises(ValueError, match="lhat key -1"):
        identity_suite(qd, lhat={0: (0, 1), -1: (0, 1)})
    # the origin complement is not Beurling, so lhat is never used; its keys
    # are still checked
    with pytest.raises(ValueError, match="lhat key 2"):
        identity_suite(quotient_data(s00_subspace(), margins=(1, 1)), lhat={2: (1, 0)})


def test_khat_validation_and_zero_case():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    rep = identity_suite(qd, khat=(0, 0), lhat=(0, 0))
    assert rep.residuals["commutator_identity"] <= 1e-12
    with pytest.raises(ValueError, match="zero entry"):
        identity_suite(qd, khat=(1, 0))
    with pytest.raises(ValueError, match="entries"):
        identity_suite(qd, khat=(0, 0, 0))
    # per-variable mapping form: variable 0 pairs with z2, variable 1 with z1
    rep2 = identity_suite(qd, khat={0: (0, 1), 1: (1, 0)})
    assert rep2.residuals["commutator_identity"] <= 1e-12


def test_shift_power():
    g = TruncationGrid((2, 2))
    mats = shift_matrices(g)
    m = shift_power(mats, (1, 2))
    np.testing.assert_array_equal(m @ g.basis_vector((0, 0)), g.basis_vector((1, 2)))
    np.testing.assert_array_equal(m @ g.basis_vector((1, 0)), g.basis_vector((2, 2)))
    np.testing.assert_array_equal(m @ g.basis_vector((1, 1)), np.zeros(g.dim))
    with pytest.raises(ValueError):
        shift_power(mats, (-1, 0))


def test_douglas_factor_is_contraction():
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (4, 4))
    _, norm, recon = douglas_factor(qd, 0, 1)
    assert norm <= 1 + 1e-10
    assert recon <= 1e-12
    with pytest.raises(ValueError):
        douglas_factor(qd, 1, 1)


@pytest.mark.parametrize("i, j", [(-2, 0), (0, -1), (0, 2), (2, 0), (-1, -1)])
def test_douglas_factor_rejects_variables_that_do_not_exist(i, j):
    qd = make_quotient(AnalyticSymbol.monomial((1, 1)), (3, 3))
    with pytest.raises(ValueError, match="out of range"):
        douglas_factor(qd, i, j)


def _blaschke_product_quotient():
    theta = AnalyticSymbol.blaschke(0.3, 0, 2).matmul(AnalyticSymbol.blaschke(0.2j, 1, 2))
    return make_quotient(theta, (5, 5))


@pytest.mark.parametrize("make", [
    lambda: make_quotient(AnalyticSymbol.monomial((1, 1)), (4, 4)),
    # the defect of this product has rounding-level eigenvalues, whose roots
    # (about 1e-8) a cut on the roots would keep and invert
    _blaschke_product_quotient,
    lambda: quotient_data(s00_subspace((4, 4)), margins=(1, 1)),
], ids=["monomial", "blaschke-product", "origin-complement"])
def test_douglas_factor_matches_dense_formula(make):
    """X in Q coordinates against the factor built on the whole grid.

    A cut of the defect's eigenvalues at RANK_TOL is a cut of their roots,
    the singular values of D, at sqrt(RANK_TOL).
    """
    qd = make()
    b = qd.q.basis
    c0, c1 = dense.compressions(qd)[:2]
    comm = c0 @ c1.conj().T - c1.conj().T @ c0
    d = psd_sqrt(dense.projection(qd.q) - c0.conj().T @ c0)
    x_dense = comm @ np.linalg.pinv(d, rcond=np.sqrt(RANK_TOL), hermitian=True)
    x, norm, recon = douglas_factor(qd, 0, 1)
    assert x.shape == (qd.q.rank, qd.q.rank)
    assert np.abs(b @ x @ b.conj().T - x_dense).max() <= 1e-12
    assert abs(norm - spectral_norm(x_dense)) <= 1e-12
    assert abs(recon - spectral_norm(comm - x_dense @ d)) <= 1e-12


def test_psd_sqrt_clamps_and_squares():
    a = np.array([[2.0, 0.0], [0.0, 0.0]], dtype=complex)
    r = psd_sqrt(a)
    np.testing.assert_allclose(r @ r, a, atol=1e-12)
    tiny = psd_sqrt(np.array([[-1e-14]], dtype=complex))
    assert tiny[0, 0] == 0.0


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
    s, q = subspace_from_columns(g, cols)
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
    b = s.basis
    p_s = b @ b.conj().T
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

    r = [b.conj().T @ m @ b for m in mats]
    cross = {f"pair_{i}_{j}": spectral_norm(
        b @ (r[j].conj().T @ r[i] - r[i] @ r[j].conj().T) @ b.conj().T) for i, j in pairs}
    cross["cross_commutator"] = max(cross.values(), default=0.0)

    x = {(i, j): p_s @ mats[i] @ p_q @ adj[j] @ p_s for i, j in pairs}
    suite = {
        "defect_identity": max(spectral_norm(d - gh - p_q @ e_t @ p_q)
                               for d, gh, e_t in zip(dhat, ghat, top)),
        "xij": max((spectral_norm(v) for v in x.values()), default=0.0),
    }
    comm_worst, min_eig = 0.0, np.inf
    for i, j in pairs:  # default khat = e_j
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
    if worst_prod <= tol:
        for idx, (left, right) in enumerate([("k", "l"), ("i", "l"), ("k", "j")]):
            suite[f"annihilation_{idx + 1}"] = max(
                spectral_norm(p_q @ adj[{"k": j, "i": i}[left]] @ x[(i, j)]
                              @ mats[{"l": i, "j": j}[right]] @ p_q)
                for i, j in pairs)

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
    assert "annihilation_1" not in reports["suite"].residuals


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
    """quotient_data, the three detectors, identity_suite and douglas_factor
    work from index maps and blocks only, and the split holds no dim x dim array."""
    from hardylab import operators

    entry = next(e for e in corpus_entries(0) if e.entry_id == "product3-00")
    sub = entry.subspace()
    qd = quotient_data(sub, margins=entry.margins)
    assert beurling_criterion(qd, tol=1e-6).verdict
    assert cross_commutator_criterion(sub, margins=entry.margins, tol=1e-6).verdict
    assert identity_suite(qd, tol=1e-6).verdict
    assert douglas_factor(qd, 0, 1)[1] <= 1 + 1e-10
    with pytest.raises(AssertionError, match="dense shift"):
        operators.shift_matrices(sub.grid)

    dim = qd.grid.dim
    assert dim == 343
    held = list(_held_arrays(qd, set()))
    assert any(a is qd.q.basis for a in held) and any(a is qd.defect_blocks[0] for a in held)
    assert all(a.shape != (dim, dim) for a in held), [a.shape for a in held]


def test_user_multi_indices_match_dense_formulas():
    """khat and lhat other than unit indices go through the same index maps."""
    sym = AnalyticSymbol.monomial((1, 1))
    qd = make_quotient(sym, (5, 5))
    khat, lhat = {0: (0, 2), 1: (1, 0)}, {0: (0, 3), 1: (2, 0)}
    rep = identity_suite(qd, khat=khat, lhat=lhat, tol=1e-6)

    g = qd.grid
    mats = shift_matrices(g)
    p_s = qd.s.basis @ qd.s.basis.conj().T
    p_q = np.eye(g.dim) - p_s
    comm_worst, ann = 0.0, [0.0, 0.0, 0.0]
    for i, j in ((0, 1), (1, 0)):
        mk, ml = shift_power(mats, khat[i]), shift_power(mats, lhat[j])
        chat_i, chat_k = p_q @ mats[i] @ p_q, p_q @ mk @ p_q
        comm = chat_i @ chat_k.conj().T - chat_k.conj().T @ chat_i
        exact = p_q @ mk.conj().T @ p_s @ mats[i] @ p_q - p_q @ mats[i] @ p_s @ mk.conj().T @ p_q
        comm_worst = max(comm_worst, spectral_norm(comm - exact))
        x = p_s @ mats[i] @ p_q @ mats[j].conj().T @ p_s
        for idx, (left, right) in enumerate(((mk, ml), (mats[i], ml), (mk, mats[j]))):
            ann[idx] = max(ann[idx], spectral_norm(p_q @ left.conj().T @ x @ right @ p_q))
    assert abs(rep.residuals["commutator_identity"] - comm_worst) <= 1e-13
    for idx in range(3):
        assert abs(rep.residuals[f"annihilation_{idx + 1}"] - ann[idx]) <= 1e-13


# ---- the battery reads the basis of Q alone -----------------------------------

def _battery_outcome(s, margins):
    qd = quotient_data(s, margins=margins)
    reports = (beurling_criterion(qd, tol=1e-6),
               cross_commutator_criterion(s, margins=margins, tol=1e-6),
               identity_suite(qd, tol=1e-6))
    return qd.invariance_per_variable, [(rep.residuals, rep.verdicts) for rep in reports]


def _assert_battery_ignores_the_submodule_basis(s, margins):
    """A NaN basis of S changes nothing: every residual is read from B_Q."""
    blind = SubspaceData(s.grid, np.full_like(s.basis, np.nan), s.complement)
    assert _battery_outcome(blind, margins) == _battery_outcome(s, margins)


def test_battery_ignores_the_submodule_basis_on_a_dim_343_entry():
    entry = next(e for e in corpus_entries(0) if e.kind == "blaschke_product" and e.caps == (6, 6, 6))
    s = entry.subspace()
    assert s.grid.dim == 343 and 0 < s.complement.shape[1] < s.grid.dim
    _assert_battery_ignores_the_submodule_basis(s, entry.margins)


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
    cols = [g.basis_vector(k) for k in g.multi_indices
            if any(all(a >= b for a, b in zip(k, gen)) for gen in generators)]
    s, _ = subspace_from_columns(g, np.array(cols).T)
    product, cross, suite = _detectors(s, (1, 1))
    assert product.residuals["beurling_defect_product"] >= 0.99
    assert cross.residuals["cross_commutator"] >= 0.99
    assert suite.residuals["xij"] >= 0.99
    assert not (product.verdict or cross.verdict)
    for key in UNCONDITIONAL:
        assert suite.residuals[key] <= 1e-14, key


@pytest.mark.parametrize("seed", range(8))
def test_exact_identities_hold_far_from_invariance(seed):
    """The three identities are exact matrix algebra, so they hold to rounding
    for random splits that the invariance gate would reject."""
    g = TruncationGrid((3, 3))
    rng = np.random.default_rng(seed)
    cols = rng.normal(size=(g.dim, 1 + seed)) + 1j * rng.normal(size=(g.dim, 1 + seed))
    s, q = subspace_from_columns(g, cols)
    with pytest.raises(InvarianceError):
        quotient_data(s)
    compressions = tuple(q.shift_blocks(k)[0] for k in ((1, 0), (0, 1)))
    qd = QuotientData(s=s, q=q, compressions=compressions,
                      invariance=float("nan"), invariance_per_variable=())
    rep = identity_suite(qd, tol=1e-14)
    assert rep.residuals["xij"] > 0.1
    for key in UNCONDITIONAL:
        assert rep.residuals[key] <= 1e-14, key
