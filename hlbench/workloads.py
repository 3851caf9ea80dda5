"""The benchmark workloads: seeded inputs, one callable per check, and its gate.

A workload object turns its seed into a list of checks (``make_checks`` is
the input generation that ``setup_s`` times).  Each check has a ``run``
callable, which is the only part that is timed, and a ``verify`` callable
that inspects the outcome afterwards and returns None when it is correct or
a one-line reason when it is not.  Every call into hardylab goes through a
module attribute (``criteria.quotient_data``, not a name imported here), so
the traced run sees the wrapped functions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hardylab import cli, corpus, criteria, dilation, factorization
from hardylab.grids import TruncationGrid
from hardylab.symbols import AnalyticSymbol


@dataclass(frozen=True)
class Check:
    check_id: str
    group: str                                # warm-up runs the first check of each group
    run: Callable[[], object]
    verify: Callable[[object], "str | None"]


# ---- corpus ------------------------------------------------------------------

DETECTOR_TOL = 1e-6      # detector tolerance of the acceptance corpus pass
CEILING = 1e-10          # ceiling of the unconditional identities


def _corpus_check(entry) -> Check:
    def run():
        sub = entry.subspace()
        data = criteria.quotient_data(sub, margins=entry.margins)
        return (
            criteria.beurling_criterion(data, tol=DETECTOR_TOL),
            criteria.cross_commutator_criterion(sub, margins=entry.margins, tol=DETECTOR_TOL),
            criteria.identity_suite(data, tol=DETECTOR_TOL),
        )

    def verify(outcome):
        product, commutator, suite = outcome
        r = suite.residuals
        verdicts = (product.verdict, commutator.verdict, r["xij"] <= DETECTOR_TOL)
        if len(set(verdicts)) != 1:
            return f"detectors disagree: product/commutator/xij = {verdicts}"
        if verdicts[0] != entry.beurling_expected:
            return f"verdict {verdicts[0]} but the entry expects {entry.beurling_expected}"
        for key in ("defect_identity", "commutator_identity", "reduces"):
            if not r[key] <= CEILING:
                return f"{key} = {r[key]:.3e} above the {CEILING:g} ceiling"
        if not r["defect_domination_min_eig"] >= -CEILING:
            return f"defect_domination_min_eig = {r['defect_domination_min_eig']:.3e}"
        return None

    return Check(entry.entry_id, entry.entry_id.split("-")[0], run, verify)


class Corpus:
    """Every corpus_entries(seed) entry through the three detectors and the identity suite."""

    name = "corpus"

    def __init__(self, seed: int, root: Path, tiny: bool = False):
        self.seed, self.tiny = seed, tiny

    def make_checks(self) -> list:
        entries = corpus.corpus_entries(self.seed)
        if self.tiny:
            small = [e for e in entries if len(e.caps) == 2 and max(e.caps) <= 3]
            entries = small[:3] + [e for e in entries if e.symbol is None]
        return [_corpus_check(e) for e in entries]


# ---- cli-batch ---------------------------------------------------------------

SCENARIOS = (
    "blaschke-separated",
    "constants-quotient",
    "extracted-model",
    "jordan-dilation",
    "mixed-identities",
    "monomial-pair",
    "product-roundtrip",
    "reduced-kernel",
    "zero-pair-model",
)


def _expect_block(text: str) -> dict:
    """The `name = value` lines between `expect:` and `end`, read independently of hardylab."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    start = lines.index("expect:") + 1
    expect = {}
    for line in lines[start:lines.index("end", start)]:
        if line:
            name, _, value = line.partition("=")
            value = value.strip()
            expect[name.strip()] = value if name.strip() == "status" else value == "true"
    return expect


class CliBatch:
    """The nine shipped scenario configs, each one in-process `hardylab <command> --config` call."""

    name = "cli-batch"

    def __init__(self, seed: int, root: Path, tiny: bool = False):
        self.seed = seed
        self.config_dir = root / "scenarios"
        self.out_dir = root / ".hlbench_out" / "cli"
        self.first_bytes: dict = {}           # report bytes of each config's first run

    def _check(self, name: str) -> Check:
        config = self.config_dir / f"{name}.cfg"
        text = config.read_text()
        command = re.search(r"^command\s*=\s*(\S+)", text, re.M).group(1)
        expect = _expect_block(text)
        out = self.out_dir / f"{name}.out"
        argv = [command, "--config", str(config), "--seed", str(self.seed), "--out", str(out)]

        def run():
            return cli.main(argv)

        def verify(code):
            if code != 0:
                return f"exit code {code}"
            payload = out.read_bytes()
            report = json.loads(payload)
            if report["status"] != "ok":
                return f"status {report['status']!r}"
            for key, wanted in expect.items():
                got = report["status"] if key == "status" else report["verdicts"].get(key)
                if got != wanted:
                    return f"expect {key} = {wanted} but the report has {got}"
            if payload != self.first_bytes.setdefault(name, payload):
                return "report bytes differ from this config's first run"
            return None

        return Check(name, name, run, verify)

    def make_checks(self) -> list:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return [self._check(name) for name in SCENARIOS]


# ---- division-dilation -------------------------------------------------------

INSTANCES = 4
DILATION_SIZE, DILATION_CAPS, DILATION_TOL = 8, (8, 8), 1e-12
MONOMIAL_CAPS, MONOMIAL_TOL = (12, 12), 1e-10
# b_a(z1) z2 / b_a(z1) at caps 8 needs margins 4: the divisor's truncated
# Taylor tail leaves a shift-commutation residual near 1e-9, inside the
# package's default tolerance 1e-8.
RATIONAL_RADIUS, RATIONAL_CAPS, RATIONAL_MARGINS, RATIONAL_TOL = 0.05, (8, 8), (4, 4), 1e-8


def _dilation_check(check_id: str, pair) -> Check:
    def run():
        return (dilation.canonical_dilation(pair, DILATION_CAPS, tail_tol=DILATION_TOL),
                dilation.model_correspondence(pair))

    def verify(outcome):
        data, model = outcome
        if not data.isometry_residual <= DILATION_TOL:
            return f"isometry residual {data.isometry_residual:.3e}"
        if not data.intertwining_residual <= DILATION_TOL:
            return f"intertwining residual {data.intertwining_residual:.3e}"
        # a nilpotent pair with PSD defect sum: positive and pure by construction
        for key in ("brehmer_min_eig", "pureness_0", "pureness_1"):
            if not model.verdicts[key]:
                return f"model verdict {key} is false"
        return None

    return Check(check_id, "dilation", run, verify)


def _division_check(check_id: str, group: str, theta, phi, caps, tol, margins=None) -> Check:
    grid = TruncationGrid(caps)

    def run():
        witness = factorization.invariant_subspace_from_factorization(
            theta, phi, grid, tol=tol, margins=margins)
        check = factorization.beurling_submodule_check(
            witness.m_basis, theta, grid, tol=tol, margins=margins)
        return witness, check

    def verify(outcome):
        witness, check = outcome
        for key, value in witness.residuals.items():
            if not value <= tol:
                return f"witness residual {key} = {value:.3e} above {tol:g}"
        for key, value in check.verdicts.items():
            if not value:
                return f"verdict {key} is false"
        return None

    return Check(check_id, group, run, verify)


class DivisionDilation:
    """Seeded instances, each a dilation, a monomial division and a rational division."""

    name = "division-dilation"

    def __init__(self, seed: int, root: Path, tiny: bool = False):
        self.seed = seed
        self.instances = 1 if tiny else INSTANCES

    def make_checks(self) -> list:
        checks = []
        for i in range(self.instances):
            rng = np.random.default_rng([self.seed, i])
            pair = dilation.random_brehmer_pair(int(rng.integers(2**31)), size=DILATION_SIZE)
            k = (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            k1 = int(rng.integers(1, k[0] + 1))
            a = complex(RATIONAL_RADIUS * np.exp(1j * rng.uniform(0.0, 2 * np.pi)))
            blaschke = AnalyticSymbol.blaschke(a, 0, 2)
            checks += [
                _dilation_check(f"dilation-{i}", pair),
                _division_check(f"monomial-{i}", "monomial", AnalyticSymbol.monomial(k),
                                AnalyticSymbol.monomial((k1, 0)), MONOMIAL_CAPS, MONOMIAL_TOL),
                _division_check(f"rational-{i}", "rational",
                                blaschke.matmul(AnalyticSymbol.monomial((0, 1))), blaschke,
                                RATIONAL_CAPS, RATIONAL_TOL, RATIONAL_MARGINS),
            ]
        return checks


WORKLOADS = {w.name: w for w in (Corpus, CliBatch, DivisionDilation)}
