"""Corpus composition, determinism, and parameter ranges."""

import numpy as np

import dense
from hardylab.corpus import BLASCHKE_RADIUS, corpus_entries
from hardylab.grids import TruncationGrid


def test_corpus_size_and_kinds():
    entries = corpus_entries(0)
    symbols = [e for e in entries if e.symbol is not None]
    assert len(symbols) >= 50
    assert len(entries) == len(symbols) + 1
    kinds = {e.kind for e in entries}
    assert kinds == {"monomial", "blaschke", "blaschke_product", "mixed",
                     "unitary", "origin_complement"}
    ids = [e.entry_id for e in entries]
    assert len(set(ids)) == len(ids)


def test_corpus_is_deterministic():
    a = corpus_entries(3)
    b = corpus_entries(3)
    assert [e.entry_id for e in a] == [e.entry_id for e in b]
    for x, y in zip(a, b):
        if x.symbol is None:
            continue
        gx = TruncationGrid(x.caps)
        assert np.array_equal(x.symbol.taylor_table(gx), y.symbol.taylor_table(gx))


def test_different_seeds_differ():
    a = next(e for e in corpus_entries(0) if e.kind == "blaschke")
    b = next(e for e in corpus_entries(1) if e.kind == "blaschke")
    ca = a.symbol.numerator[(0,) * a.symbol.nvars][0, 0]
    cb = b.symbol.numerator[(0,) * b.symbol.nvars][0, 0]
    assert ca != cb


def test_blaschke_parameters_stay_small():
    lo, hi = BLASCHKE_RADIUS
    for e in corpus_entries(0):
        if e.kind != "blaschke":
            continue
        radius = abs(e.symbol.numerator[(0,) * e.symbol.nvars][0, 0])
        assert lo <= radius <= hi
        assert e.caps == (6,) * e.symbol.nvars


def test_caps_within_contract():
    for e in corpus_entries(0):
        assert all(2 <= c <= 6 for c in e.caps), e.entry_id
        assert all(m >= 1 for m in e.margins), e.entry_id


def test_origin_complement_subspace():
    entry = corpus_entries(0)[-1]
    assert entry.kind == "origin_complement"
    assert not entry.beurling_expected
    s = entry.subspace()
    assert s.rank == s.grid.dim - 1
    assert abs(dense.projection(s)[0, 0]) <= 1e-14


def test_symbol_subspaces_materialize():
    # one entry of each kind goes through the full subspace construction
    seen = set()
    for e in corpus_entries(0):
        if e.symbol is None or e.kind in seen:
            continue
        seen.add(e.kind)
        s = e.subspace()
        assert s.rank > 0
        assert s.grid.caps == e.caps
