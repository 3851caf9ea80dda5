"""Seeded corpus of inner symbols for the cross-module agreement checks.

The corpus mixes every family the criteria are supposed to agree on:
monomials in two and three variables, one-variable Blaschke factors and
their separate-variable products, monomial-times-Blaschke hybrids, and
constant unitaries of several channel counts.  One deliberately
non-Beurling entry is included: the subspace of functions vanishing at the
origin, whose quotient is the constants and whose defect-product residual
is exactly one.

Blaschke parameters are kept small (|a| <= 0.05) at caps 6.  Truncation
shows only in the windowed invariance gate, whose defect for a rational
entry scales like |a|^(caps+2).  Every battery residual is an exact identity
of the truncated matrices or a criterion measured on the whole grid: the
identities sit at rounding for every entry, far under the 1e-10 ceiling,
and the criterion quantities cancel to rounding for every tensor-factored
submodule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import TruncationGrid
from .operators import eval_margins
from .subspaces import SubspaceData, origin_complement, submodule_projection
from .symbols import AnalyticSymbol

__all__ = ["CorpusEntry", "corpus_entries", "symbol_entries"]

BLASCHKE_RADIUS = (0.02, 0.05)


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    kind: str
    caps: tuple
    symbol: AnalyticSymbol | None
    margins: tuple
    beurling_expected: bool

    def grid(self) -> TruncationGrid:
        channels = 1 if self.symbol is None else self.symbol.rows
        return TruncationGrid(self.caps, channels=channels)

    def subspace(self) -> SubspaceData:
        """Materialize the shift-invariant subspace this entry describes."""
        if self.symbol is not None:
            return submodule_projection(self.symbol, TruncationGrid(self.caps))
        return origin_complement(self.grid())


def _blaschke_parameter(rng) -> complex:
    lo, hi = BLASCHKE_RADIUS
    radius = rng.uniform(lo, hi)
    angle = rng.uniform(0.0, 2 * np.pi)
    return complex(radius * np.exp(1j * angle))


def _random_unitary(rng, m: int) -> np.ndarray:
    gauss = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    q, r = np.linalg.qr(gauss)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _symbol_entry(entry_id, kind, symbol, caps) -> CorpusEntry:
    return CorpusEntry(
        entry_id=entry_id,
        kind=kind,
        caps=tuple(caps),
        symbol=symbol,
        margins=eval_margins(symbol),
        beurling_expected=True,
    )


def corpus_entries(seed: int = 0) -> tuple:
    """The full seeded corpus, in a stable order for a fixed seed."""
    rng = np.random.default_rng(int(seed))
    entries = []

    # monomials, two variables
    for i in range(12):
        while True:
            k = tuple(int(x) for x in rng.integers(0, 4, size=2))
            if sum(k) > 0:
                break
        cap = max(max(k) + int(rng.integers(1, 3)), 2)
        cap = min(cap, 6)
        entries.append(_symbol_entry(
            f"monomial2-{i:02d}", "monomial",
            AnalyticSymbol.monomial(k), (cap, cap),
        ))

    # monomials, three variables
    for i in range(8):
        while True:
            k = tuple(int(x) for x in rng.integers(0, 3, size=3))
            if sum(k) > 0:
                break
        cap = max(max(k) + 1, 2)
        entries.append(_symbol_entry(
            f"monomial3-{i:02d}", "monomial",
            AnalyticSymbol.monomial(k), (cap,) * 3,
        ))

    # single Blaschke factors, two variables
    for i in range(8):
        a = _blaschke_parameter(rng)
        var = int(rng.integers(0, 2))
        entries.append(_symbol_entry(
            f"blaschke2-{i:02d}", "blaschke",
            AnalyticSymbol.blaschke(a, var, 2), (6, 6),
        ))

    # single Blaschke factors, three variables
    for i in range(4):
        a = _blaschke_parameter(rng)
        var = int(rng.integers(0, 3))
        entries.append(_symbol_entry(
            f"blaschke3-{i:02d}", "blaschke",
            AnalyticSymbol.blaschke(a, var, 3), (6, 6, 6),
        ))

    # separate-variable Blaschke products, two variables
    for i in range(8):
        a = _blaschke_parameter(rng)
        b = _blaschke_parameter(rng)
        product = AnalyticSymbol.blaschke(a, 0, 2).matmul(
            AnalyticSymbol.blaschke(b, 1, 2))
        entries.append(_symbol_entry(
            f"product2-{i:02d}", "blaschke_product", product, (6, 6),
        ))

    # separate-variable Blaschke products, three variables
    for i in range(4):
        a = _blaschke_parameter(rng)
        b = _blaschke_parameter(rng)
        v1, v2 = sorted(rng.choice(3, size=2, replace=False).tolist())
        product = AnalyticSymbol.blaschke(a, v1, 3).matmul(
            AnalyticSymbol.blaschke(b, v2, 3))
        entries.append(_symbol_entry(
            f"product3-{i:02d}", "blaschke_product", product, (6, 6, 6),
        ))

    # monomial times Blaschke in the other variable
    for i in range(4):
        a = _blaschke_parameter(rng)
        var = int(rng.integers(0, 2))
        j = int(rng.integers(1, 3))
        mono = tuple(j if t != var else 0 for t in range(2))
        hybrid = AnalyticSymbol.monomial(mono).matmul(
            AnalyticSymbol.blaschke(a, var, 2))
        entries.append(_symbol_entry(
            f"mixed2-{i:02d}", "mixed", hybrid, (6, 6),
        ))

    # constant unitaries, assorted channel counts
    for i in range(4):
        m = int(rng.integers(1, 4))
        cap = int(rng.integers(2, 4))
        entries.append(_symbol_entry(
            f"unitary2-{i:02d}", "unitary",
            AnalyticSymbol.constant(_random_unitary(rng, m), 2), (cap, cap),
        ))
    for i in range(2):
        entries.append(_symbol_entry(
            f"unitary3-{i:02d}", "unitary",
            AnalyticSymbol.constant(_random_unitary(rng, 2), 3), (2, 2, 2),
        ))

    entries.append(CorpusEntry(
        entry_id="origin-complement",
        kind="origin_complement",
        caps=(6, 6),
        symbol=None,
        margins=(1, 1),
        beurling_expected=False,
    ))
    return tuple(entries)


def symbol_entries(seed: int = 0) -> tuple:
    """Only the inner-symbol entries (the agreement corpus proper)."""
    return tuple(e for e in corpus_entries(seed) if e.symbol is not None)
