"""Basis enumeration and flat indexing on truncated grids."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dense
from hardylab import grids
from hardylab.grids import TruncationGrid, order_key


def test_enumeration_graded_order():
    g = TruncationGrid((2, 1))
    assert g.multi_indices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (2, 1))


def test_enumeration_three_variables():
    g = TruncationGrid((1, 1, 1))
    # degree blocks: 000 | 100 010 001 | 110 101 011 | 111
    assert g.multi_indices == (
        (0, 0, 0),
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (1, 1, 0), (1, 0, 1), (0, 1, 1),
        (1, 1, 1),
    )


@pytest.mark.parametrize("caps", [(0,), (5,), (0, 3), (2, 3), (6, 6, 6), (4, 1, 3, 2), (1, 0, 2)])
@pytest.mark.parametrize("channels", [1, 2])
def test_lexsorted_exponents_are_the_order_key_sort(caps, channels):
    g = TruncationGrid(caps, channels)
    want = dense.multi_indices(caps)
    assert g.multi_indices == want
    assert all(type(a) is int for k in g.multi_indices for a in k)
    assert g.exponents.dtype == np.intp and g.exponents.shape == (len(want), len(caps))
    np.testing.assert_array_equal(g.exponents, want)
    with pytest.raises(ValueError):
        g.exponents[0, 0] = 1  # cached on the grid, so read-only
    assert g.dim == len(want) * channels


def test_order_key_sorts_by_total_degree_first():
    ks = [(2, 0), (0, 1), (1, 1), (0, 0)]
    assert sorted(ks, key=order_key) == [(0, 0), (0, 1), (2, 0), (1, 1)]


def test_dim_formula():
    assert TruncationGrid((2, 1)).dim == 6
    assert TruncationGrid((2, 1), channels=3).dim == 18
    assert TruncationGrid((3, 3)).dim == 16
    assert TruncationGrid((1, 1, 1)).dim == 8


def test_with_channels_reuses_the_grid_when_unchanged():
    g = TruncationGrid((2, 3), channels=2)
    assert g.with_channels(g.channels) is g
    other = g.with_channels(1)
    assert other.channels == 1 and other.caps == g.caps and other.with_channels(1) is other


def test_channel_interleaving():
    g = TruncationGrid((1, 1), channels=2)
    # channel-minor: both channels of a monomial sit next to each other
    assert dense.flat(g, (0, 0), 0) == 0
    assert dense.flat(g, (0, 0), 1) == 1
    assert dense.flat(g, (1, 0), 0) == 2
    assert dense.flat(g, (0, 1), 1) == 5


def test_window_indices_counts():
    g = TruncationGrid((3, 3))
    assert len(g.window_indices((1, 1))) == 9
    assert len(g.window_indices((0, 0))) == 16
    assert len(g.window_indices((3, 3))) == 1
    # every windowed multi-index respects the per-variable margin
    for i in g.window_indices((2, 1)):
        k, _ = dense.unflat(g, i)
        assert k[0] <= 1 and k[1] <= 2


def test_window_indices_cover_all_channels():
    g = TruncationGrid((1, 1), channels=2)
    win = g.window_indices((1, 1))
    assert sorted(dense.unflat(g, i)[1] for i in win) == [0, 1]


def test_top_slice_indices():
    g = TruncationGrid((2, 1))
    top0 = {dense.unflat(g, i)[0] for i in g.top_slice_indices(0)}
    assert top0 == {(2, 0), (2, 1)}
    top1 = {dense.unflat(g, i)[0] for i in g.top_slice_indices(1)}
    assert top1 == {(0, 1), (1, 1), (2, 1)}


@pytest.mark.parametrize("t", [-1, 2])
def test_top_slice_indices_rejects_a_variable_out_of_range(t):
    # the check and message of shift, not numpy's negative indexing or IndexError
    g = TruncationGrid((2, 1))
    with pytest.raises(ValueError, match=f"variable {t} out of range for n=2"):
        g.top_slice_indices(t)


def _fractional_entry_points():
    from hardylab.dilation import canonical_dilation, random_brehmer_pair
    from hardylab.kernels import kernel_sum_oracle, reduced_kernel_suite
    from hardylab.subspaces import invariance_defect, submodule_projection
    from hardylab.symbols import AnalyticSymbol

    z1z2 = submodule_projection(AnalyticSymbol.monomial((1, 1)), TruncationGrid((3, 3)))
    return {
        "caps": (lambda: TruncationGrid((3.7, 3)), "cap", "3.7"),
        "channels": (lambda: TruncationGrid((3, 3), channels=2.9), "channels", "2.9"),
        "with-channels": (lambda: TruncationGrid((3, 3), 2).with_channels(2.5), "channels", "2.5"),
        "window": (lambda: TruncationGrid((3, 3)).window_indices((1.9, 1)), "margin", "1.9"),
        "dilation": (lambda: canonical_dilation(random_brehmer_pair(0), (3.7, 3)), "cap", "3.7"),
        "oracle": (lambda: kernel_sum_oracle((0.1, 0.2), (0.3, 0.1), (2.5, 2)), "cap", "2.5"),
        "kernel-suite": (lambda: reduced_kernel_suite((4, 4.5)), "cap", "4.5"),
        "invariance": (lambda: invariance_defect(z1z2, (0.5, 1)), "margin", "0.5"),
    }


@pytest.mark.parametrize("where", ["caps", "channels", "with-channels", "window", "dilation",
                                   "oracle", "kernel-suite", "invariance"])
def test_a_fractional_size_is_refused_by_name(where):
    """A cap, channel count or margin with a fractional part is refused,
    never truncated to the int below it."""
    call, name, shown = _fractional_entry_points()[where]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {shown}$"):
        call()


def test_integral_sizes_of_any_numeric_type_are_read_as_ints():
    g = TruncationGrid((np.int64(3), 2.0), channels=np.float64(2))
    assert g == TruncationGrid((3, 2), 2)
    assert type(g.caps[0]) is int and type(g.caps[1]) is int and type(g.channels) is int
    assert np.array_equal(g.window_indices((1.0, np.int32(1))), g.window_indices((1, 1)))


def test_validation_errors():
    with pytest.raises(ValueError):
        TruncationGrid((2, -1))
    with pytest.raises(ValueError):
        TruncationGrid((2, 2), channels=0)


@given(
    caps=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    channels=st.integers(min_value=1, max_value=3),
)
def test_ranks_invert_multi_indices(caps, channels):
    g = TruncationGrid(tuple(caps), channels=channels)
    for i in range(g.dim):
        k, s = dense.unflat(g, i)
        assert dense.flat(g, k, s) == i


# ---- array-built index sets against the loops they replaced ------------------

def _rank_table(g):
    """multi-index -> rank from the enumeration alone, independent of TruncationGrid.ranks."""
    return {k: r for r, k in enumerate(g.multi_indices)}


def _loop_shift_map(g, k):
    rank = _rank_table(g)
    src, dst = [], []
    for r, j in enumerate(g.multi_indices):
        up = tuple(a + b for a, b in zip(j, k))
        if all(u <= c for u, c in zip(up, g.caps)):
            for s in range(g.channels):
                src.append(r * g.channels + s)
                dst.append(rank[up] * g.channels + s)
    return np.array(src, dtype=int), np.array(dst, dtype=int)


def _loop_index_set(g, keep):
    out = []
    for r, k in enumerate(g.multi_indices):
        if keep(k):
            out.extend(range(r * g.channels, (r + 1) * g.channels))
    return np.array(out, dtype=int)


GRIDS = [TruncationGrid(caps, channels)
         for caps in ((3,), (0,), (2, 3), (3, 0), (2, 1, 2))
         for channels in (1, 2, 3)]


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"caps{g.caps}-m{g.channels}")
def test_ranks_match_the_enumeration(g):
    rank = _rank_table(g)
    exps = np.array(g.multi_indices, dtype=int).reshape(-1, g.nvars)
    for k in g.multi_indices:
        assert g.ranks(k) == rank[k]
    np.testing.assert_array_equal(g.ranks(exps), np.arange(len(exps)))
    # the leading axes of the argument are kept
    np.testing.assert_array_equal(g.ranks(np.stack([exps, exps[::-1]])),
                                  [np.arange(len(exps)), np.arange(len(exps))[::-1]])
    sums = (exps[:, None] + exps[None]).reshape(-1, g.nvars)
    diffs = (exps[:, None] - exps[None]).reshape(-1, g.nvars)
    for keys in (sums[np.all(sums <= g.caps, axis=1)], diffs[np.all(diffs >= 0, axis=1)]):
        assert len(keys) >= len(exps)
        np.testing.assert_array_equal(g.ranks(keys), [rank[tuple(k)] for k in keys])


@pytest.mark.parametrize("g", GRIDS, ids=lambda g: f"caps{g.caps}-m{g.channels}")
def test_array_index_sets_match_loop_references(g):
    from hardylab.operators import shift_matrix

    rank = _rank_table(g)
    for t in range(g.nvars):
        src, dst = g._shift_pairs[t]
        want_src, want_dst = _loop_shift_map(g, tuple(int(i == t) for i in range(g.nvars)))
        np.testing.assert_array_equal(src, want_src)
        np.testing.assert_array_equal(dst, want_dst)
        assert g._shift_pairs[t][0] is src  # built once per grid
        for index_map in (src, dst):
            with pytest.raises(ValueError):
                index_map[:1] = 0  # shared between calls, so read-only
        want = np.zeros((g.dim, g.dim), dtype=complex)
        for j, k in enumerate(g.multi_indices):
            up = tuple(a + (i == t) for i, a in enumerate(k))
            if up in rank:
                for s in range(g.channels):
                    want[rank[up] * g.channels + s, j * g.channels + s] = 1.0
        np.testing.assert_array_equal(shift_matrix(g, t), want)
        np.testing.assert_array_equal(
            g.top_slice_indices(t), _loop_index_set(g, lambda k: k[t] == g.caps[t]))
    for margins in [(0,) * g.nvars, (1,) * g.nvars, tuple(range(g.nvars)), (5,) * g.nvars]:
        np.testing.assert_array_equal(
            g.window_indices(margins),
            _loop_index_set(g, lambda k: all(a <= c - w for a, c, w in zip(k, g.caps, margins))))


@pytest.mark.parametrize("caps", [(3,), (2, 3), (2, 1, 2)])
@pytest.mark.parametrize("channels", [1, 2])
def test_shift_is_the_dense_shift_and_its_adjoint(caps, channels):
    from hardylab.operators import shift_matrix

    g = TruncationGrid(caps, channels)
    rng = np.random.default_rng(len(caps) * 10 + channels)
    x = rng.normal(size=(g.dim, 3)) + 1j * rng.normal(size=(g.dim, 3))
    for t in range(g.nvars):
        m = shift_matrix(g, t)
        assert np.array_equal(g.shift(x, t, adjoint=False), m @ x)
        assert np.array_equal(g.shift(x, t, adjoint=True), m.conj().T @ x)
        assert np.array_equal(g.shift(x[:, 0], t, adjoint=True), m.conj().T @ x[:, 0])
    for t in (-1, g.nvars):
        with pytest.raises(ValueError, match="out of range"):
            g.shift(x, t, adjoint=False)


@given(caps=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3))
def test_sum_and_difference_ranks_are_the_ranks_of_the_multi_indices(caps):
    """sum_ranks of two ranks is ranks of their summed multi-indices, and
    predecessors(j) holds ranks of k - j, with the sentinel len(exponents)
    exactly where k - j leaves the box, also for j beyond the caps."""
    g = TruncationGrid(tuple(caps))
    exps = g.exponents
    size = len(exps)
    a, b = (x.ravel() for x in np.meshgrid(np.arange(size), np.arange(size), indexing="ij"))
    sums = exps[a] + exps[b]
    fits = np.all(sums <= g.caps, axis=1)
    assert fits.sum() >= size
    np.testing.assert_array_equal(g.sum_ranks(a[fits], b[fits]), g.ranks(sums[fits]))
    beyond = [tuple(c + (t == s) for s, c in enumerate(caps)) for t in range(len(caps))]
    for j in [*g.multi_indices, *beyond]:
        pred = g.predecessors(j)
        diffs = exps - j
        inside = np.all(diffs >= 0, axis=1)
        assert pred.shape == (size,) and pred.dtype == np.intp
        np.testing.assert_array_equal(pred[inside], g.ranks(diffs[inside]))
        np.testing.assert_array_equal(np.flatnonzero(pred == size), np.flatnonzero(~inside))


# ---- index tables shared per caps --------------------------------------------

def _builders():
    return (grids._exponents, grids._multi_indices, grids._codes, grids._radix,
            grids._predecessors, grids._shift_pairs, grids._window, grids._top_slice,
            grids._tensor_rows)


def test_grids_of_the_same_caps_share_their_tables():
    a, b = TruncationGrid((6, 6, 6)), TruncationGrid((6, 6, 6))
    assert a is not b
    assert a.exponents is b.exponents and a.multi_indices is b.multi_indices
    assert grids._codes(a.caps) is grids._codes(b.caps)
    assert a.predecessors((1, 0, 2)) is b.predecessors([1, 0, 2])
    assert a._shift_pairs is b._shift_pairs
    assert a.window_indices((1, 2, 3)) is b.window_indices([1, 2, 3])
    assert a.top_slice_indices(1) is b.top_slice_indices(1)
    assert a._tensor_rows((0, 2)) is b._tensor_rows([0, 2])
    two = a.with_channels(2)
    assert two.exponents is a.exponents and two.multi_indices is a.multi_indices
    assert two.predecessors((1, 0, 2)) is a.predecessors((1, 0, 2))
    assert two._shift_pairs is not a._shift_pairs
    assert two.window_indices((1, 2, 3)) is not a.window_indices((1, 2, 3))
    np.testing.assert_array_equal(two._shift_pairs[0][0][::2], 2 * a._shift_pairs[0][0])


def test_every_shared_table_is_read_only():
    g = TruncationGrid((6, 6, 6), channels=2)
    tables = [g.exponents, grids._codes(g.caps), *grids._radix(g.caps), g.predecessors((1, 0, 1)),
              *(m for pair in g._shift_pairs for m in pair),
              g.window_indices((1, 1, 1)), g.top_slice_indices(2), g._tensor_rows((1,))]
    assert len(tables) == 14 and all(t.size for t in tables)
    for table in tables:
        assert table.flags.writeable is False
        with pytest.raises(ValueError, match="read-only"):
            table[:1] = 0


def test_the_tensor_row_map_is_the_rank_of_each_sum():
    g = TruncationGrid((2, 1, 3), channels=2)
    for used in [(0,), (1,), (0, 2), (0, 1, 2)]:
        rows = g._tensor_rows(used)
        free = [t for t in range(3) if t not in used]
        exps = np.array(g.multi_indices)
        on_support = np.flatnonzero(~exps[:, free].any(axis=1))
        on_free = np.flatnonzero(~exps[:, list(used)].any(axis=1))
        assert rows.shape == (on_support.size * g.channels, on_free.size)
        for i in range(rows.shape[0]):
            for b in range(rows.shape[1]):
                k = exps[on_support[i // g.channels]] + exps[on_free[b]]
                assert rows[i, b] == dense.flat(g, tuple(int(a) for a in k), i % g.channels)


def _corpus_pass(seed):
    from hardylab import criteria
    from hardylab.corpus import corpus_entries

    for entry in corpus_entries(seed):
        sub = entry.subspace()
        data = criteria.quotient_data(sub, margins=entry.margins)
        criteria.beurling_criterion(data, tol=1e-6)
        criteria.cross_commutator_criterion(sub, margins=entry.margins, tol=1e-6)
        criteria.identity_suite(data, tol=1e-6)


def test_a_corpus_pass_builds_each_table_once():
    """10 distinct caps, 13 (caps, channels) pairs and 4 (caps, j) pairs in
    corpus_entries(1): one build each, and none on a second pass."""
    for build in _builders():
        build.cache_clear()
    _corpus_pass(1)
    assert grids._exponents.cache_info().misses <= 12
    assert grids._codes.cache_info().misses <= 12
    assert grids._predecessors.cache_info().misses <= 4
    assert grids._shift_pairs.cache_info().misses <= 13
    built = [build.cache_info().misses for build in _builders()]
    _corpus_pass(1)
    assert [build.cache_info().misses for build in _builders()] == built


def _arrays(table) -> list:
    """The arrays of a table, depth first."""
    if isinstance(table, np.ndarray):
        return [table]
    return [a for part in table for a in _arrays(part)]


def test_each_table_cache_stays_at_its_bound():
    bound = grids.TABLE_CACHE
    first = TruncationGrid((0, 1), channels=2)

    def tables(g):
        return (g.exponents, grids._codes(g.caps), grids._radix(g.caps), g.predecessors((0, 1)),
                g._shift_pairs, g.window_indices((0, 1)), g.top_slice_indices(1),
                g._tensor_rows((1,)))

    kept = tables(first)
    for c in range(bound + 5):
        g = TruncationGrid((c, 2), channels=2)
        tables(g)
        assert len(g.multi_indices) == len(g.exponents)
    for build in _builders():
        assert build.cache_info().currsize == bound, build
    # first's tables were evicted: its next read builds them again, equal
    # to a build that bypasses the caches
    again = tables(first)
    assert all(new is not old for new, old in zip(again, kept))
    caps = first.caps
    fresh = (grids._exponents.__wrapped__(caps), grids._codes.__wrapped__(caps),
             grids._radix.__wrapped__(caps), grids._predecessors.__wrapped__(caps, (0, 1)),
             grids._shift_pairs.__wrapped__(caps, 2),
             grids._window.__wrapped__(caps, 2, (0, 1)),
             grids._top_slice.__wrapped__(caps, 2, 1),
             grids._tensor_rows.__wrapped__(caps, 2, (1,)))
    assert len(_arrays(again)) == len(_arrays(fresh)) == 12
    for new, want in zip(_arrays(again), _arrays(fresh)):
        np.testing.assert_array_equal(new, want)
    np.testing.assert_array_equal(first.exponents, dense.multi_indices(caps))
