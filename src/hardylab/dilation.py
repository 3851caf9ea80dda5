"""Commuting contraction tuples and their canonical shift dilations.

A tuple whose alternating defect sum is PSD and whose entries are pure
embeds isometrically into a truncated vector-valued Hardy grid: the row of
the embedding at multi-index k is D T*^k, with D the positive square root
of the defect sum.  On a finite grid the construction is exact for
nilpotent tuples once the caps reach the nilpotency indices, and that
exactness is verified, not assumed: the isometry and intertwining residuals
are computed and reported every time.  The shifts are applied as the grid's
index maps (TruncationGrid.shift_map), never as dense matrices: M_i* Pi is
Pi with rows dst moved to rows src and every other row zero.

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
    psd_sqrt,
    quotient_data,
)
from .grids import TruncationGrid
from .operators import eval_margins, spectral_norm, unit_index
from .subspaces import RANK_TOL, submodule_projection
from .symbols import AnalyticSymbol
from .textlines import content_lines, fields, numbers

__all__ = [
    "ContractionTuple",
    "PurenessReport",
    "DilationData",
    "DilationError",
    "brehmer_defect",
    "pureness_check",
    "canonical_dilation",
    "model_correspondence",
    "random_brehmer_pair",
    "parse_tuple_text",
    "dump_tuple_text",
]

NORM_SLACK = 1e-10
COMMUTATION_TOL = 1e-10
EIG_TOL = 1e-10
PURENESS_TOL = 1e-10
MAX_POWER = 64
MAX_TRIES = 64


class DilationError(ValueError):
    """A dilation precondition failed (defect, pureness, or grid size)."""


@dataclass(frozen=True)
class ContractionTuple:
    """Commuting square contractions on a common finite-dimensional space."""

    matrices: tuple

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=complex) for m in self.matrices)
        if not mats:
            raise ValueError("need at least one matrix")
        d = mats[0].shape[0]
        for m in mats:
            if m.ndim != 2 or m.shape != (d, d):
                raise ValueError("all matrices must be square and of equal size")
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def checked(cls, matrices) -> "ContractionTuple":
        """The tuple, after its norms (at most 1 + NORM_SLACK) and pairwise
        commutators (at most COMMUTATION_TOL) are checked."""
        t = cls(tuple(matrices))
        for i, m in enumerate(t.matrices):
            nm = spectral_norm(m)
            if nm > 1 + NORM_SLACK:
                raise ValueError(f"matrix {i} has norm {nm:.6f} > 1")
        for i in range(t.n):
            for j in range(i + 1, t.n):
                a, b = t.matrices[i], t.matrices[j]
                dev = spectral_norm(a @ b - b @ a)
                if dev > COMMUTATION_TOL:
                    raise ValueError(
                        f"matrices {i} and {j} do not commute: deviation {dev:.3e}"
                    )
        return t

    @property
    def n(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].shape[0]

    def subset_product(self, subset) -> np.ndarray:
        out = np.eye(self.dim, dtype=complex)
        for i in subset:
            out = out @ self.matrices[i]
        return out


def brehmer_defect(t: ContractionTuple):
    """Alternating defect sum, its PSD verdict, and a defect-space basis.

    defect = sum over subsets F of (-1)^|F| T_F T_F*, PSD when its least
    eigenvalue is at least -EIG_TOL.  The returned basis spans the range of
    the clamped square root: the eigenvectors whose eigenvalue exceeds
    RANK_TOL times the largest.
    """
    dim = t.dim
    defect = np.zeros((dim, dim), dtype=complex)
    for r in range(t.n + 1):
        for subset in itertools.combinations(range(t.n), r):
            tf = t.subset_product(subset)
            defect += (-1) ** r * tf @ tf.conj().T
    defect = (defect + defect.conj().T) / 2
    w, v = np.linalg.eigh(defect)
    psd = bool(w[0] >= -EIG_TOL)
    top = float(w[-1]) if w.size else 0.0
    keep = w > max(RANK_TOL * max(top, 0.0), 0.0)
    basis = v[:, keep]
    return defect, psd, basis


@dataclass(frozen=True)
class PurenessReport:
    verdict: bool
    rule: str      # "nilpotent", "spectral_radius", "power_norm", or "none"
    value: float   # the quantity the rule examined


def pureness_check(t_i: np.ndarray) -> PurenessReport:
    """Decide whether adjoint powers of one contraction tend to zero.

    Finite dimensions make this exact: nilpotency or spectral radius below
    1 - PURENESS_TOL each settle it, with an explicit fallback for matrices
    whose radius sits inside that band: the norm of T*^MAX_POWER must be at
    most PURENESS_TOL.
    """
    m = np.asarray(t_i, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("pureness_check needs a square matrix")
    power = np.linalg.matrix_power(m, m.shape[0])
    if spectral_norm(power) == 0.0:
        return PurenessReport(True, "nilpotent", 0.0)
    radius = float(np.abs(np.linalg.eigvals(m)).max())
    if radius < 1 - PURENESS_TOL:
        return PurenessReport(True, "spectral_radius", radius)
    tail = spectral_norm(np.linalg.matrix_power(m.conj().T, MAX_POWER))
    return PurenessReport(tail <= PURENESS_TOL, "power_norm", tail)


@dataclass(frozen=True)
class DilationData:
    grid: TruncationGrid
    defect_sq: np.ndarray
    defect_space_basis: np.ndarray
    pi: np.ndarray
    isometry_residual: float
    intertwining_residuals: tuple
    tail_mass: float

    @property
    def intertwining_residual(self) -> float:
        return max(self.intertwining_residuals)


def canonical_dilation(t: ContractionTuple, caps, tail_tol: float = 1e-8) -> DilationData:
    """Assemble the row map Pi with rows D T*^k on the truncated grid.

    Preconditions (PSD defect and pure entries, as brehmer_defect and
    pureness_check decide them) are enforced.  The truncation is certified
    by the mass of the first multi-index shell beyond the caps: those are
    the rows the grid drops, identically zero for nilpotent tuples once the
    caps reach the nilpotency indices.
    """
    caps = tuple(int(c) for c in caps)
    if len(caps) != t.n:
        raise ValueError(f"need {t.n} caps, got {len(caps)}")
    defect, psd, basis = brehmer_defect(t)
    if not psd:
        w = np.linalg.eigvalsh(defect)
        raise DilationError(f"defect sum is not PSD: min eigenvalue {w[0]:.3e}")
    for i, m in enumerate(t.matrices):
        rep = pureness_check(m)
        if not rep.verdict:
            raise DilationError(
                f"matrix {i} is not pure ({rep.rule} = {rep.value:.3e})"
            )
    r = basis.shape[1]
    if r == 0:
        raise DilationError("defect space is trivial; nothing to dilate into")
    grid = TruncationGrid(caps, channels=r)
    d_root = psd_sqrt(defect)
    rows_in_defect = basis.conj().T @ d_root   # r x dim, rows in defect coordinates

    # adjoint powers T*^k, filled along the graded order via one-step parents
    adj = [m.conj().T for m in t.matrices]
    powers = {}
    for k in grid.multi_indices:
        if sum(k) == 0:
            powers[k] = np.eye(t.dim, dtype=complex)
            continue
        i = next(idx for idx, ki in enumerate(k) if ki > 0)
        parent = tuple(ki - (1 if idx == i else 0) for idx, ki in enumerate(k))
        powers[k] = adj[i] @ powers[parent]

    # rows rank(k) * r .. rank(k) * r + r - 1 of Pi are D T*^k in defect coordinates
    pi = (rows_in_defect @ np.stack([powers[k] for k in grid.multi_indices])
          ).reshape(grid.dim, t.dim)

    tail = 0.0
    for i in range(t.n):
        step = adj[i]
        for k in grid.multi_indices:
            if k[i] == caps[i]:
                dropped = rows_in_defect @ step @ powers[k]
                tail += float(np.sum(np.abs(dropped) ** 2))
    if tail > tail_tol:
        raise DilationError(
            f"grid too small: dropped-shell mass {tail:.3e} exceeds {tail_tol:g}; "
            "raise the caps"
        )

    iso = spectral_norm(pi.conj().T @ pi - np.eye(t.dim))
    inter = []
    for i in range(t.n):
        # M_i* Pi through the index map: (M_i* Pi)[src] = Pi[dst], other rows zero
        src, dst = grid.shift_map(unit_index(t.n, i))
        down = np.zeros_like(pi)
        down[src] = pi[dst]
        inter.append(spectral_norm(pi @ adj[i] - down))
    return DilationData(
        grid=grid,
        defect_sq=defect,
        defect_space_basis=basis,
        pi=pi,
        isometry_residual=iso,
        intertwining_residuals=tuple(inter),
        tail_mass=tail,
    )


def _annihilation_full(t: ContractionTuple) -> float:
    eye = np.eye(t.dim)
    worst = 0.0
    for i in range(t.n):
        for j in range(t.n):
            if i == j:
                continue
            di = eye - t.matrices[i].conj().T @ t.matrices[i]
            dj = eye - t.matrices[j].conj().T @ t.matrices[j]
            worst = max(worst, spectral_norm(di @ dj))
    return worst


def model_correspondence(source, caps=None, tol: float = 1e-8) -> CriterionReport:
    """Both directions of the quotient-module model for contraction tuples.

    Symbol input: compress the shifts to the quotient of the symbol's
    submodule and verify the extracted tuple satisfies everything the model
    promises (PSD defect, pure entries, and the vanishing defect product of
    beurling_criterion, measured on the whole grid).  Tuple input:
    report whether the defect products vanish, which is the computable face
    of being unitarily equivalent to module operators on such a quotient.
    """
    residuals: dict = {}
    verdicts: dict = {}
    if isinstance(source, AnalyticSymbol):
        if caps is None:
            raise ValueError("symbol input needs grid caps")
        grid = TruncationGrid(tuple(caps))
        s = submodule_projection(source, grid)
        data = quotient_data(s, margins=eval_margins(source))
        worst = beurling_criterion(data, tol=tol).residuals["beurling_defect_product"]
        residuals["annihilation"] = worst
        verdicts["annihilation"] = worst <= tol
        extracted = ContractionTuple(data.compressions)
        name = "model_correspondence_symbol"
    else:
        extracted = source if isinstance(source, ContractionTuple) else \
            ContractionTuple.checked(source)
        worst = _annihilation_full(extracted)
        residuals["annihilation"] = worst
        verdicts["annihilation"] = worst <= tol
        name = "model_correspondence_tuple"

    defect, psd, _ = brehmer_defect(extracted)
    min_eig = float(np.linalg.eigvalsh(defect)[0]) if defect.size else 0.0
    residuals["brehmer_min_eig"] = min_eig
    verdicts["brehmer_min_eig"] = min_eig >= -tol
    for i, m in enumerate(extracted.matrices):
        rep = pureness_check(m)
        key = f"pureness_{i}"
        residuals[key] = rep.value
        verdicts[key] = rep.verdict
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
        t = ContractionTuple.checked((a, b))
        _, psd, _ = brehmer_defect(t)
        if psd:
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
            what = f"line {lineno}: matrix {mi} row {ri}"
            if len(words) != 2 * dim:
                raise ValueError(f"{what}: want {2 * dim} floats, got {len(words)}")
            vals = np.array(numbers(words, float, what))
            rows.append(vals[0::2] + 1j * vals[1::2])
            pos += 1
        mats.append(np.stack(rows))
    if pos != len(lines):
        raise ValueError(f"line {lines[pos][0]}: trailing content after the last matrix block")
    return ContractionTuple.checked(mats)


def dump_tuple_text(t: ContractionTuple) -> str:
    out = [f"dim {t.dim}", f"count {t.n}"]
    for mi, m in enumerate(t.matrices):
        out.append(f"matrix {mi}")
        for row in m:
            out.append(" ".join(f"{float(v.real)!r} {float(v.imag)!r}" for v in row))
    return "\n".join(out) + "\n"
