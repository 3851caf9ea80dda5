"""Commuting contraction tuples and their canonical shift dilations.

A ContractionTuple is checked when it is built: square entries of one
size, each of norm at most 1 + NORM_SLACK, commuting pairwise to within
COMMUTATION_TOL.  So no tuple the package dilates is a non-commuting
pair, for which the n-step defect sum below is not the subset sum.

A tuple whose alternating defect sum D is PSD and whose entries are pure
embeds isometrically into a truncated vector-valued Hardy grid: the row of
the embedding at multi-index k is R T*^k, with R the root of D on its
range.  On a finite grid the construction is exact for nilpotent tuples
once the caps reach the nilpotency indices, and that exactness is
verified, not assumed: the isometry and intertwining residuals are
computed and reported every time.  The adjoint powers T*^k are filled in
lexicographic order of k, one batched product per variable and level:
Sum caps_i products where the box has Prod (caps_i + 1) powers, each
T*^k still T_f* T*^(k - e_f) for the first variable f with k_f > 0.  The
shifts are applied by TruncationGrid.shift, never as dense matrices.  D is
formed in n steps, D <- D - T_i D T_i* from D = I, and decomposed once
(brehmer_defect).
Each entry picks its dtype by grids._as_data and numpy's promotion
carries it, so a real tuple runs in float64 end to end.

The same circle of ideas runs backwards: compressing the coordinate shifts
to the quotient of an inner-symbol submodule yields a tuple whose defect
products vanish, and a tuple with vanishing defect products is (up to
unitary equivalence) of that form.  model_correspondence checks whichever
direction matches its input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .criteria import (
    CriterionReport,
    beurling_criterion,
    quotient_data,
)
from .grids import TruncationGrid, _as_data, _integral
from .operators import _lambda_min, eval_margins, spectral_norm
from .subspaces import RANK_TOL, submodule_projection
from .symbols import AnalyticSymbol
from .textlines import complex_row, content_lines, fields, numbers

__all__ = [
    "ContractionTuple",
    "DilationData",
    "DilationError",
    "brehmer_defect",
    "pureness_check",
    "canonical_dilation",
    "model_correspondence",
    "random_brehmer_pair",
    "parse_tuple_text",
]

NORM_SLACK = 1e-10
COMMUTATION_TOL = 1e-10
EIG_TOL = 1e-10
PURENESS_TOL = 1e-10
MAX_TRIES = 64


class DilationError(ValueError):
    """A dilation precondition failed (defect, pureness, or grid size)."""


@dataclass(frozen=True)
class ContractionTuple:
    """Commuting square contractions on a common finite-dimensional space.

    Construction checks the shapes, every norm (at most 1 + NORM_SLACK)
    and every pairwise commutator (at most COMMUTATION_TOL).  Each matrix
    is read by grids._as_data."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(_as_data(m) for m in self.matrices)
        if not mats:
            raise ValueError("need at least one matrix")
        shape = mats[0].shape
        for m in mats:
            # ndim first: the first entry's shape has two sides only then
            if m.ndim != 2 or m.shape != shape or shape[0] != shape[1]:
                raise ValueError("all matrices must be square and of equal size")
        for i, m in enumerate(mats):
            nm = spectral_norm(m)
            if nm > 1 + NORM_SLACK:
                raise ValueError(f"matrix {i} has norm {nm:.6f} > 1")
        for (i, a), (j, b) in itertools.combinations(enumerate(mats), 2):
            dev = spectral_norm(a @ b - b @ a)
            if dev > COMMUTATION_TOL:
                raise ValueError(f"matrices {i} and {j} do not commute: deviation {dev:.3e}")
        object.__setattr__(self, "matrices", mats)

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]


def _defect_sum(matrices) -> np.ndarray:
    """D = sum over subsets F of (-1)^|F| T_F T_F*, symmetrized, as the n
    steps D <- D - T_i D T_i* from D = I (one per commuting entry)."""
    defect = np.eye(len(matrices[0]))
    for m in matrices:
        defect = defect - m @ defect @ m.conj().T
    return (defect + defect.conj().T) / 2


def brehmer_defect(t: ContractionTuple):
    """(D, psd, root): the alternating defect sum D = V W V* (_defect_sum,
    one eigh), PSD when its least eigenvalue is at least -EIG_TOL or the
    space is {0}, and its root on its range, root = sqrt(W+) V+* (r x dim).
    V+ holds the eigenvectors whose eigenvalue exceeds the cut, RANK_TOL
    times the largest, and W+ their eigenvalues; r is the defect rank, and
    root* root is D with every eigenvalue at or below the cut set to zero."""
    defect = _defect_sum(t.matrices)
    w, v = np.linalg.eigh(defect)
    keep = w > RANK_TOL * w.max(initial=0.0)
    root = np.sqrt(w[keep])[:, None] * v[:, keep].conj().T
    return defect, bool(w.size == 0 or w[0] >= -EIG_TOL), root


def pureness_check(t_i: np.ndarray) -> tuple[bool, float]:
    """(pure, radius): whether adjoint powers of one contraction tend to
    zero, and its spectral radius, 0.0 for a nilpotent matrix.

    Finite dimensions make this exact: T*^k tends to zero exactly when
    the spectral radius is below 1.  Nilpotency settles it first; otherwise
    the radius must be below 1 - PURENESS_TOL.  A radius inside that band
    reads as not pure, as any power test would read it: there ||T*^k|| >=
    radius^k stays above PURENESS_TOL for every k below 2e11.
    """
    m = _as_data(t_i)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("pureness_check needs a square matrix")
    power = np.linalg.matrix_power(m, m.shape[0])
    radius = float(np.abs(np.linalg.eigvals(m)).max()) if power.any() else 0.0
    return radius < 1 - PURENESS_TOL, radius


@dataclass(frozen=True)
class DilationData:
    grid: TruncationGrid
    pi: np.ndarray
    isometry_residual: float
    intertwining_residuals: tuple
    tail_mass: float

    @property
    def intertwining_residual(self) -> float:
        return max(self.intertwining_residuals)


def canonical_dilation(t: ContractionTuple, caps, tail_tol: float = 1e-8) -> DilationData:
    """Assemble the row map Pi with rows R T*^k on the truncated grid,
    R the defect root of brehmer_defect and its row count r the channels.

    Preconditions (PSD defect and pure entries, as brehmer_defect and
    pureness_check decide them) are enforced.  The truncation is certified
    by the mass of the first multi-index shell beyond the caps: those are
    the rows the grid drops, identically zero for nilpotent tuples once the
    caps reach the nilpotency indices.
    """
    caps = tuple(_integral(c, "cap") for c in caps)
    if len(caps) != t.n:
        raise ValueError(f"need {t.n} caps, got {len(caps)}")
    defect, psd, root = brehmer_defect(t)
    if not psd:
        raise DilationError(f"defect sum is not PSD: min eigenvalue {_lambda_min(defect):.3e}")
    for i, m in enumerate(t.matrices):
        pure, radius = pureness_check(m)
        if not pure:
            raise DilationError(f"matrix {i} is not pure (spectral radius {radius:.3e})")
    r = root.shape[0]
    if r == 0:
        raise DilationError("defect space is trivial; nothing to dilate into")
    grid = TruncationGrid(caps, channels=r)

    # T*^k = T_f* T*^(k - e_f), f the first variable with k_f > 0, filled in
    # lexicographic order of k: once the first `size` places hold every k
    # with k_1 = .. = k_i = 0, the block with k_i = l is T_i* times the block
    # k_i = l - 1 just before it, one batched product per level
    adj = [m.conj().T for m in t.matrices]
    lex = np.empty((len(grid.exponents), t.dim, t.dim), dtype=np.result_type(*adj))
    lex[0] = np.eye(t.dim)
    size = 1
    for i in reversed(range(t.n)):
        for level in range(1, caps[i] + 1):
            np.matmul(adj[i], lex[(level - 1) * size:level * size],
                      out=lex[level * size:(level + 1) * size])
        size *= caps[i] + 1
    # the lexicographic place of k is sum_i k_i * prod_{j>i} (caps_j + 1)
    exps = grid.exponents
    stack = lex[exps @ np.cumprod((1,) + tuple(c + 1 for c in caps[:0:-1]))[::-1]]
    # rows rank(k) * r .. rank(k) * r + r - 1 of Pi are R T*^k
    pi = (root @ stack).reshape(grid.dim, t.dim)

    # the dropped shell in variable i: R T_i* T*^k for every k with k_i = caps_i
    tail = 0.0
    for i in range(t.n):
        dropped = (root @ adj[i]) @ stack[exps[:, i] == caps[i]]
        tail += float(np.sum(np.abs(dropped) ** 2))
    if tail > tail_tol:
        raise DilationError(
            f"grid too small: dropped-shell mass {tail:.3e} exceeds {tail_tol:g}; "
            "raise the caps"
        )

    return DilationData(
        grid=grid,
        pi=pi,
        isometry_residual=spectral_norm(pi.conj().T @ pi - np.eye(t.dim)),
        intertwining_residuals=tuple(spectral_norm(pi @ adj[i] - grid.shift(pi, i, adjoint=True))
                                     for i in range(t.n)),
        tail_mass=tail,
    )


def _annihilation_full(t: ContractionTuple) -> float:
    """max over pairs i < j of ||D_i D_j||, D_i = I - T_i* T_i.

    Each D_i is Hermitian, so ||D_j D_i|| = ||(D_i D_j)*|| = ||D_i D_j||.
    """
    eye = np.eye(t.dim)
    d = [eye - m.conj().T @ m for m in t.matrices]
    return max((spectral_norm(d[i] @ d[j]) for i in range(t.n) for j in range(i + 1, t.n)),
               default=0.0)


def model_correspondence(source, caps=None, tol: float = 1e-8, margins=None) -> CriterionReport:
    """Both directions of the quotient-module model for contraction tuples.

    Symbol input: compress the shifts to the quotient of the symbol's
    submodule and verify the extracted tuple satisfies everything the model
    promises (PSD defect, pure entries, and the vanishing defect product of
    beurling_criterion, measured on the core of Q and lifted over the free
    variables).  Tuple input (a ContractionTuple, or matrices it is built
    from): report whether the defect products vanish, which is the
    computable face of being unitarily equivalent to module operators on
    such a quotient.
    For a symbol, margins set the window of the invariance gate
    (quotient_data); they default to eval_margins(source).
    """
    if isinstance(source, AnalyticSymbol):
        if caps is None:
            raise ValueError("symbol input needs grid caps")
        grid = TruncationGrid(tuple(caps))
        s = submodule_projection(source, grid, inner_tol=tol)
        data = quotient_data(s, margins=eval_margins(source) if margins is None else margins)
        worst = beurling_criterion(data, tol=tol).residuals["beurling_defect_product"]
        # plain matrices, not a ContractionTuple: truncation leaves the
        # compressions commuting only to rounding, 7.8e-10 for
        # b_0.05(z1) b_0.04(z2) at caps (6, 6), above COMMUTATION_TOL
        matrices = data.compressions
        name = "model_correspondence_symbol"
    else:
        t = source if isinstance(source, ContractionTuple) else ContractionTuple(source)
        worst = _annihilation_full(t)
        matrices = t.matrices
        name = "model_correspondence_tuple"
    residuals = {"annihilation": worst}
    verdicts = {"annihilation": worst <= tol}

    min_eig = _lambda_min(_defect_sum(matrices))
    residuals["brehmer_min_eig"] = min_eig
    verdicts["brehmer_min_eig"] = min_eig >= -tol
    for i, m in enumerate(matrices):
        key = f"pureness_{i}"
        verdicts[key], residuals[key] = pureness_check(m)
    return CriterionReport(name=name, tolerance=tol, residuals=residuals,
                           verdicts=verdicts)


def random_brehmer_pair(seed, size: int = 4) -> ContractionTuple:
    """Seeded commuting nilpotent pair with PSD defect sum.

    Both entries are strictly upper-triangular polynomials in one Jordan
    block, so they commute exactly and are nilpotent; the pair is shrunk
    geometrically, at most MAX_TRIES times, until the alternating defect
    sum is PSD.
    """
    rng = np.random.default_rng(seed)
    nil = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        nil[i, i + 1] = 1.0
    def poly():
        coeffs = rng.normal(size=size - 1) + 1j * rng.normal(size=size - 1)
        m = np.zeros_like(nil)
        p = np.eye(size, dtype=complex)
        for c in coeffs:
            p = p @ nil
            m = m + c * p
        return m
    a, b = poly(), poly()
    scale = 0.9 / max(spectral_norm(a), spectral_norm(b), 1e-12)
    a, b = a * scale, b * scale
    for _ in range(MAX_TRIES):
        t = ContractionTuple((a, b))
        if brehmer_defect(t)[1]:
            return t
        a, b = 0.8 * a, 0.8 * b
    raise DilationError("could not reach a PSD defect sum by shrinking")


# ---- tuple file format ----------------------------------------------------

def parse_tuple_text(text: str) -> ContractionTuple:
    """Labeled block format: 'dim d' and 'count n' headers, then for each
    matrix a 'matrix i' label followed by d rows of d re/im pairs."""
    lines = [(lineno, fields(line)) for lineno, line in content_lines(text)]
    if len(lines) < 2:
        raise ValueError("tuple text needs 'dim' and 'count' headers")
    def header(pos, word):
        lineno, words = lines[pos]
        if len(words) != 2 or words[0] != word:
            raise ValueError(f"line {lineno}: expected '{word} <integer>', got {' '.join(words)!r}")
        return numbers(words[1:], int, f"line {lineno}: {word}")[0]
    dim = header(0, "dim")
    count = header(1, "count")
    if dim < 1 or count < 1:
        raise ValueError("dim and count must be positive")
    pos = 2
    mats = []
    for mi in range(count):
        if pos >= len(lines) or lines[pos][1] != ["matrix", str(mi)]:
            where = f"line {lines[pos][0]}" if pos < len(lines) else "end of text"
            raise ValueError(f"{where}: expected 'matrix {mi}' label")
        pos += 1
        rows = []
        for ri in range(dim):
            if pos >= len(lines):
                raise ValueError(f"matrix {mi} row {ri}: unexpected end of text")
            lineno, words = lines[pos]
            rows.append(complex_row(words, dim, f"line {lineno}: matrix {mi} row {ri}"))
            pos += 1
        mats.append(np.stack(rows))
    if pos != len(lines):
        raise ValueError(f"line {lines[pos][0]}: trailing content after the last matrix block")
    return ContractionTuple(mats)

