"""Every function the benchmark's --trace 1 rebinds still exists under its
traced name, and every counter hook still reads what it is handed.

hlbench/tracing.py lists (metric, module, attribute) triples and replaces
each attribute in place, and its HOOKS read the return value of some; a
rename, a removal or a changed return shape in hardylab would otherwise
only show up as a broken traced run.  The file is loaded as it is, not
modified.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "hlbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("hlbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced():
    return _tracing().TRACED


@pytest.mark.parametrize("metric, module, attribute", _traced())
def test_traced_name_resolves(metric, module, attribute):
    """A traced name is a function of its module, or a method defined in its
    class's own __dict__, which is where the tracer rebinds it."""
    owner = importlib.import_module(module)
    *classes, name = attribute.split(".")
    for part in classes:
        assert isinstance(vars(owner).get(part), type), f"{metric}: {module}.{part} is no class"
        owner = vars(owner)[part]
    assert name in vars(owner), f"{metric}: {module}.{attribute} is gone"
    assert callable(getattr(owner, name)), metric


NON_INNER_CFG = """
command = check-beurling
caps = 2 2
symbol:
numerator
1 0 0 0 0.5 0.0
0 1 0 0 0.5 0.0
end
"""


def test_every_hook_counter_moves_under_the_installed_tracer():
    """One call of each hooked function under an installed Tracer moves every
    counter its hook keeps: the bytes of a Toeplitz matrix and of the shift
    matrices, the columns offered to and discarded by subspace_from_columns
    (two equal columns, so one is discarded), and the error count of a
    scenario that fails with an "error:" status (a symbol that is not inner).
    Each call goes through the module attribute the tracer rebinds."""
    from hardylab import operators, scenarios, subspaces
    from hardylab.grids import TruncationGrid
    from hardylab.symbols import AnalyticSymbol

    tracing = _tracing()
    for _, module, _ in tracing.TRACED:
        importlib.import_module(module)        # install rebinds in every traced module
    tracer = tracing.Tracer()
    grid = TruncationGrid((2, 2))
    original = subspaces.subspace_from_columns
    tracer.install()
    try:
        operators.toeplitz_matrix(AnalyticSymbol.monomial((1, 0)), grid)
        operators.shift_matrices(grid)
        column = np.eye(grid.dim)[:, 1:2]
        subspaces.subspace_from_columns(grid, np.hstack([column, column]))
        report = scenarios.run_scenario(scenarios.parse_scenario(NON_INNER_CFG))
    finally:
        tracer.uninstall()
    assert report.status.startswith("error:")
    assert subspaces.subspace_from_columns is original
    moved = {**tracer.counters, **tracer.errors}
    for name in ("operators.toeplitz_matrix.bytes", "operators.shift_matrices.bytes",
                 "subspaces.columns_offered", "subspaces.columns_discarded",
                 "scenarios.run_scenario"):
        assert moved.get(name, 0) > 0, (name, moved)
    assert set(tracing.HOOKS) == {"operators.toeplitz_matrix", "operators.shift_matrices",
                                  "subspaces.subspace_from_columns", "scenarios.run_scenario"}
