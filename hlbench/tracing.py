"""In-memory span recorder that wraps hardylab functions from outside the package.

hardylab modules import each other's functions by name
(``from .operators import windowed_norm``), so replacing
``hardylab.operators.windowed_norm`` alone would miss every call made
through ``hardylab.criteria.windowed_norm``.  ``Tracer.install`` replaces the
function object under every name it is bound to in every loaded hardylab
module (and on the class, for methods).  Each call then records a span with
its parent span and the id of the check it ran under, which gives nested
spans and self time without editing the package.  ``Tracer.uninstall`` puts
every original binding back.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# metric prefix, module, attribute ("Class.method" for a method)
TRACED = (
    ("operators.toeplitz_matrix", "hardylab.operators", "toeplitz_matrix"),
    ("operators.shift_matrices", "hardylab.operators", "shift_matrices"),
    ("operators.innerness_check", "hardylab.operators", "innerness_check"),
    ("operators.windowed_norm", "hardylab.operators", "windowed_norm"),
    ("symbols.AnalyticSymbol.taylor_table", "hardylab.symbols", "AnalyticSymbol.taylor_table"),
    ("subspaces.submodule_projection", "hardylab.subspaces", "submodule_projection"),
    ("subspaces.subspace_from_columns", "hardylab.subspaces", "subspace_from_columns"),
    ("subspaces.invariance_defect", "hardylab.subspaces", "invariance_defect"),
    ("criteria.quotient_data", "hardylab.criteria", "quotient_data"),
    ("criteria.beurling_criterion", "hardylab.criteria", "beurling_criterion"),
    ("criteria.cross_commutator_criterion", "hardylab.criteria", "cross_commutator_criterion"),
    ("criteria.identity_suite", "hardylab.criteria", "identity_suite"),
    ("criteria.shift_power", "hardylab.criteria", "shift_power"),
    ("dilation.canonical_dilation", "hardylab.dilation", "canonical_dilation"),
    ("dilation.brehmer_defect", "hardylab.dilation", "brehmer_defect"),
    ("dilation.pureness_check", "hardylab.dilation", "pureness_check"),
    ("dilation.model_correspondence", "hardylab.dilation", "model_correspondence"),
    ("factorization.invariant_subspace_from_factorization", "hardylab.factorization",
     "invariant_subspace_from_factorization"),
    ("factorization.beurling_submodule_check", "hardylab.factorization",
     "beurling_submodule_check"),
    ("kernels.reduced_kernel_suite", "hardylab.kernels", "reduced_kernel_suite"),
    ("kernels.kernel_sum_oracle", "hardylab.kernels", "kernel_sum_oracle"),
    ("kernels.gram_negativity_search", "hardylab.kernels", "gram_negativity_search"),
    ("corpus.corpus_entries", "hardylab.corpus", "corpus_entries"),
    ("scenarios.run_scenario", "hardylab.scenarios", "run_scenario"),
    ("cli.parse_scenario", "hardylab.cli", "parse_scenario"),
    ("cli.emit_report", "hardylab.cli", "emit_report"),
    ("cli.main", "hardylab.cli", "main"),
)

# Functions that can fail with a domain error (every one is a ValueError
# subclass).  run_scenario turns those errors into an "error:" status
# instead of raising, so its count comes from the reports it returns.
ERRORS = (
    "subspaces.submodule_projection",
    "criteria.quotient_data",
    "dilation.canonical_dilation",
    "factorization.invariant_subspace_from_factorization",
    "factorization.beurling_submodule_check",
    "scenarios.run_scenario",
    "cli.parse_scenario",
)

COUNTERS = (
    ("operators.shift_matrices.bytes", "B"),
    ("operators.toeplitz_matrix.bytes", "B"),
)


def metric_units() -> dict:
    """Every per-layer metric a traced run emits, with its unit."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    for name in ERRORS:
        units[f"{name}.errors"] = "count"
    units.update(COUNTERS)
    units["subspaces.discarded_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _bytes_of_matrix(tracer, args, kwargs, out):
    tracer.counters["operators.toeplitz_matrix.bytes"] += out.nbytes


def _bytes_of_shifts(tracer, args, kwargs, out):
    tracer.counters["operators.shift_matrices.bytes"] += sum(m.nbytes for m in out)


def _discarded_columns(tracer, args, kwargs, out):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    tracer.counters["subspaces.columns_offered"] += np.shape(columns)[1]
    tracer.counters["subspaces.columns_discarded"] += out[0].discarded


def _error_status(tracer, args, kwargs, out):
    if out.status.startswith("error:"):
        tracer.errors["scenarios.run_scenario"] += 1


HOOKS = {
    "operators.toeplitz_matrix": _bytes_of_matrix,
    "operators.shift_matrices": _bytes_of_shifts,
    "subspaces.subspace_from_columns": _discarded_columns,
    "scenarios.run_scenario": _error_status,
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent, check, error] lists."""

    def __init__(self):
        self.spans: list = []
        self.counters: defaultdict = defaultdict(float)
        self.errors: defaultdict = defaultdict(int)
        self.check_id = None
        self._stack: list = []
        self._undo: list = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, self.check_id, None])
        self._stack.append(index)
        return index

    def leave(self, index: int, error: BaseException | None = None):
        span = self.spans[index]
        span[2] = perf_counter()
        if error is not None:
            span[5] = type(error).__name__
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.leave(index, exc)
                if isinstance(exc, ValueError):
                    self.errors[name] += 1
                raise
            self.leave(index)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def install(self):
        """Rebind every traced function wherever a hardylab module holds it."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hardylab" or key.startswith("hardylab."))]
        for name, module_name, attr in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self._wrap(name, original))
                self._undo.append((cls, method, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def layer_metrics(self, passes: int, time_scale: float = 1.0) -> dict:
        """Per-pass calls, total and self time of every traced function.

        Times are multiplied by time_scale (the harness passes the inverse
        of the host factor, so they are host-normalized like pass_s).
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[index]
        out = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = calls[name] / passes
            out[f"{name}.total_s"] = total[name] * time_scale / passes
            out[f"{name}.self_s"] = own[name] * time_scale / passes
        for name in ERRORS:
            out[f"{name}.errors"] = self.errors[name] / passes
        for name, _ in COUNTERS:
            out[name] = self.counters[name] / passes
        offered = self.counters["subspaces.columns_offered"]
        discarded = self.counters["subspaces.columns_discarded"]
        out["subspaces.discarded_ratio"] = discarded / offered if offered else 0.0
        return out

    def write_jsonl(self, path, origin: float):
        """One JSON object per span, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, check, error) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "parent": parent, "check": check,
                    "start": start - origin, "end": end - origin, "error": error,
                }) + "\n")
