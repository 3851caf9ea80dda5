"""Matrix-valued analytic symbols on the polydisc.

A symbol is a ratio N(z)/q(z) where N is a matrix polynomial (rows x cols)
and q is a scalar polynomial with q(0) != 0.  Polynomials are stored as
sparse coefficient maps multi-index -> matrix.  Taylor coefficients on a
truncation grid are produced by the exact linear recursion

    q_0 c_k = n_k - sum_{0 < j <= k} q_j c_{k-j}

solved in graded order, never by sampling, so no aliasing enters.  Point
evaluation always uses the closed rational form; that is what makes torus
checks exact for symbols whose coefficient tails decay slowly.

The module also reads and writes the coefficient text format: one record
per coefficient, "k_1 ... k_n row col re im", grouped under "numerator" /
"denominator" labels (a label-free file is a plain polynomial numerator).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import TruncationGrid, order_key
from .textlines import content_lines, fields, numbers

__all__ = [
    "AnalyticSymbol",
    "SymbolEvaluationError",
    "parse_coefficient_text",
    "dump_coefficient_text",
]


class SymbolEvaluationError(ValueError):
    """Raised when a rational symbol cannot be evaluated where asked."""


def _zero_index(nvars: int) -> tuple[int, ...]:
    return (0,) * nvars


def _normalize_matrix_coeffs(coeffs, nvars, rows, cols):
    out: dict[tuple[int, ...], np.ndarray] = {}
    for k, mat in coeffs.items():
        k = tuple(int(x) for x in k)
        if len(k) != nvars or any(x < 0 for x in k):
            raise ValueError(f"bad multi-index {k} for n={nvars}")
        arr = np.asarray(mat, dtype=complex)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.shape != (rows, cols):
            raise ValueError(f"coefficient at {k} has shape {arr.shape}, want {(rows, cols)}")
        if np.any(arr != 0):
            out[k] = arr.copy()
    return out


def _normalize_scalar_coeffs(coeffs, nvars):
    out: dict[tuple[int, ...], complex] = {}
    for k, val in coeffs.items():
        k = tuple(int(x) for x in k)
        if len(k) != nvars or any(x < 0 for x in k):
            raise ValueError(f"bad multi-index {k} for n={nvars}")
        val = complex(val)
        if val != 0:
            out[k] = val
    return out


@dataclass(frozen=True)
class AnalyticSymbol:
    """Rational matrix symbol N(z)/q(z) with q(0) != 0.

    numerator maps multi-index -> (rows, cols) complex matrix; denominator
    maps multi-index -> complex scalar.  A polynomial symbol is one whose
    denominator is the constant 1.  Instances are immutable; all operations
    return new symbols.
    """

    nvars: int
    rows: int
    cols: int
    numerator: dict = field(repr=False)
    denominator: dict = field(repr=False)

    def __post_init__(self) -> None:
        if self.nvars < 1 or self.rows < 1 or self.cols < 1:
            raise ValueError("nvars, rows, cols must all be >= 1")
        num = _normalize_matrix_coeffs(self.numerator, self.nvars, self.rows, self.cols)
        den = _normalize_scalar_coeffs(self.denominator, self.nvars)
        z0 = _zero_index(self.nvars)
        if den.get(z0, 0) == 0:
            raise ValueError("denominator must not vanish at the origin")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    # ---- constructors ----------------------------------------------------

    @staticmethod
    def polynomial(coeffs: dict, nvars: int, rows: int = 1, cols: int = 1) -> "AnalyticSymbol":
        return AnalyticSymbol(nvars, rows, cols, coeffs, {_zero_index(nvars): 1.0})

    @staticmethod
    def rational(numerator: dict, denominator: dict, nvars: int, rows: int = 1, cols: int = 1) -> "AnalyticSymbol":
        return AnalyticSymbol(nvars, rows, cols, numerator, denominator)

    @staticmethod
    def monomial(k: tuple[int, ...], nvars: int | None = None, scale: complex = 1.0) -> "AnalyticSymbol":
        """Scalar symbol scale * z^k."""
        k = tuple(int(x) for x in k)
        n = len(k) if nvars is None else nvars
        return AnalyticSymbol.polynomial({k: np.array([[scale]])}, n)

    @staticmethod
    def constant(matrix, nvars: int) -> "AnalyticSymbol":
        mat = np.atleast_2d(np.asarray(matrix, dtype=complex))
        r, c = mat.shape
        return AnalyticSymbol.polynomial({_zero_index(nvars): mat}, nvars, r, c)

    @staticmethod
    def blaschke(a: complex, var: int, nvars: int) -> "AnalyticSymbol":
        """One-variable Blaschke factor (z_var - a)/(1 - conj(a) z_var), |a| < 1."""
        a = complex(a)
        if abs(a) >= 1:
            raise ValueError(f"Blaschke parameter must lie in the open disc, got |a|={abs(a)}")
        if not 0 <= var < nvars:
            raise ValueError(f"variable index {var} out of range for n={nvars}")
        e = tuple(1 if i == var else 0 for i in range(nvars))
        z0 = _zero_index(nvars)
        num = {z0: np.array([[-a]]), e: np.array([[1.0 + 0j]])}
        den = {z0: 1.0, e: -np.conj(a)}
        return AnalyticSymbol(nvars, 1, 1, num, den)

    # ---- structure -------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return set(self.denominator) == {_zero_index(self.nvars)}

    @property
    def degrees(self) -> tuple[int, ...]:
        """Per-variable numerator degree (zeros for a constant)."""
        if not self.numerator:
            return _zero_index(self.nvars)
        return tuple(max(k[i] for k in self.numerator) for i in range(self.nvars))

    @property
    def denominator_degrees(self) -> tuple[int, ...]:
        return tuple(max(k[i] for k in self.denominator) for i in range(self.nvars))

    def coefficient(self, k: tuple[int, ...]) -> np.ndarray:
        """Numerator coefficient at k (zero matrix if absent)."""
        return self.numerator.get(tuple(k), np.zeros((self.rows, self.cols), dtype=complex)).copy()

    # ---- Taylor data -----------------------------------------------------

    def taylor_table(self, grid: TruncationGrid) -> np.ndarray:
        """Taylor coefficients of N/q on the grid, shape (ranks, rows, cols).

        Row r of the result is the coefficient at grid.multi_indices[r]; the
        grid channel count is irrelevant here.  When the denominator is the
        constant one this is just the numerator laid out on the grid.
        """
        if len(grid.caps) != self.nvars:
            raise ValueError(f"grid has {len(grid.caps)} variables, symbol has {self.nvars}")
        ranks = len(grid.multi_indices)
        table = np.zeros((ranks, self.rows, self.cols), dtype=complex)
        q0 = complex(self.denominator[_zero_index(self.nvars)])
        den_tail = [(k, v) for k, v in self.denominator.items() if any(k)]
        rank = grid.rank
        for r, k in enumerate(grid.multi_indices):
            acc = self.numerator.get(k)
            acc = np.zeros((self.rows, self.cols), dtype=complex) if acc is None else acc.copy()
            for j, qj in den_tail:
                prev = tuple(k[i] - j[i] for i in range(self.nvars))
                if any(x < 0 for x in prev):
                    continue
                acc -= qj * table[rank[prev]]
            table[r] = acc / q0
        return table

    # ---- evaluation ------------------------------------------------------

    def evaluate(self, points) -> np.ndarray:
        """Evaluate the closed rational form at points of shape (..., nvars).

        Returns an array of shape (..., rows, cols).  Raises
        SymbolEvaluationError if the denominator is numerically zero at any
        point; the caller decides whether that is fatal.
        """
        pts = np.asarray(points, dtype=complex)
        if pts.shape[-1] != self.nvars:
            raise ValueError(f"points must have last axis {self.nvars}")
        flat = pts.reshape(-1, self.nvars)
        npts = flat.shape[0]

        num = np.zeros((npts, self.rows, self.cols), dtype=complex)
        for k, mat in self.numerator.items():
            zk = np.prod(flat ** np.asarray(k), axis=1)
            num += zk[:, None, None] * mat

        den = np.zeros(npts, dtype=complex)
        for k, val in self.denominator.items():
            den += val * np.prod(flat ** np.asarray(k), axis=1)

        scale = max(abs(v) for v in self.denominator.values())
        bad = np.abs(den) < 1e-12 * scale
        if np.any(bad):
            where = flat[np.argmax(bad)]
            raise SymbolEvaluationError(f"denominator vanishes near z={tuple(where)}")
        out = num / den[:, None, None]
        return out.reshape(*pts.shape[:-1], self.rows, self.cols)

    # ---- algebra ---------------------------------------------------------

    def matmul(self, other: "AnalyticSymbol") -> "AnalyticSymbol":
        """Pointwise matrix product self(z) @ other(z)."""
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.cols} vs {other.rows}")
        num: dict[tuple[int, ...], np.ndarray] = {}
        for ka, ma in self.numerator.items():
            for kb, mb in other.numerator.items():
                k = tuple(ka[i] + kb[i] for i in range(self.nvars))
                acc = num.get(k)
                prod = ma @ mb
                num[k] = prod if acc is None else acc + prod
        den: dict[tuple[int, ...], complex] = {}
        for ka, va in self.denominator.items():
            for kb, vb in other.denominator.items():
                k = tuple(ka[i] + kb[i] for i in range(self.nvars))
                den[k] = den.get(k, 0.0) + va * vb
        return AnalyticSymbol(self.nvars, self.rows, other.cols, num, den)

    def scaled(self, factor: complex) -> "AnalyticSymbol":
        num = {k: factor * m for k, m in self.numerator.items()}
        return AnalyticSymbol(self.nvars, self.rows, self.cols, num, dict(self.denominator))


# ---- coefficient text format ----------------------------------------------
#
# records: n integers (multi-index), row, col, real, imag -- whitespace split
# block labels: a line reading "numerator" or "denominator"
# label-free text is a numerator; comments, blank lines, commas and number
# syntax follow the shared rules in textlines


def parse_coefficient_text(text: str) -> AnalyticSymbol:
    sections: dict[str, list[tuple[tuple[int, ...], int, int, complex]]] = {
        "numerator": [],
        "denominator": [],
    }
    current = "numerator"
    nvars = None
    for lineno, line in content_lines(text):
        word = line.lower()
        if word in sections:
            current = word
            continue
        words = fields(line)
        if len(words) < 5:
            raise ValueError(f"line {lineno}: want 'k_1 .. k_n row col re im', got {line!r}")
        if nvars is None:
            nvars = len(words) - 4
        if len(words) != nvars + 4:
            raise ValueError(f"line {lineno}: expected {nvars + 4} fields, got {len(words)}")
        *k, row, col = numbers(words[:nvars + 2], int, f"line {lineno}: index")
        real, imag = numbers(words[nvars + 2:], float, f"line {lineno}: value")
        if min(k + [row, col]) < 0:
            raise ValueError(f"line {lineno}: negative index in {line!r}")
        sections[current].append((tuple(k), row, col, complex(real, imag)))

    if nvars is None:
        raise ValueError("no coefficient records found")
    if not sections["numerator"]:
        raise ValueError("numerator block is empty")

    rows = 1 + max(r for _, r, _, _ in sections["numerator"])
    cols = 1 + max(c for _, _, c, _ in sections["numerator"])
    num: dict[tuple[int, ...], np.ndarray] = {}
    for k, r, c, v in sections["numerator"]:
        mat = num.setdefault(k, np.zeros((rows, cols), dtype=complex))
        mat[r, c] += v

    if sections["denominator"]:
        den: dict[tuple[int, ...], complex] = {}
        for k, r, c, v in sections["denominator"]:
            if (r, c) != (0, 0):
                raise ValueError("denominator records must be scalar (row=col=0)")
            den[k] = den.get(k, 0.0) + v
    else:
        den = {_zero_index(nvars): 1.0}
    return AnalyticSymbol(nvars, rows, cols, num, den)


def _fmt_records(items, nvars):
    lines = []
    for k in sorted(items, key=order_key):
        val = items[k]
        if np.isscalar(val) or np.asarray(val).ndim == 0:
            entries = [((0, 0), complex(val))]
        else:
            arr = np.asarray(val)
            entries = [((r, c), arr[r, c]) for r in range(arr.shape[0]) for c in range(arr.shape[1]) if arr[r, c] != 0]
        for (r, c), v in entries:
            ks = " ".join(str(x) for x in k)
            lines.append(f"{ks} {r} {c} {float(v.real)!r} {float(v.imag)!r}")
    return lines


def dump_coefficient_text(symbol: AnalyticSymbol) -> str:
    """Inverse of parse_coefficient_text (up to field formatting)."""
    lines = ["numerator"]
    lines += _fmt_records(symbol.numerator, symbol.nvars)
    if not symbol.is_polynomial:
        lines.append("denominator")
        lines += _fmt_records(symbol.denominator, symbol.nvars)
    return "\n".join(lines) + "\n"
