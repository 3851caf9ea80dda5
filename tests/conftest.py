import sys

import pytest
from hypothesis import settings

# Matrix-valued examples can be slow on first compile of the BLAS path;
# derandomize keeps runs reproducible without a frozen database.
settings.register_profile("hardylab", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("hardylab")


@pytest.fixture
def no_dense_operators(monkeypatch):
    """Make every dense shift and SubspaceData.projection raise for one test.

    shift_matrix and shift_matrices are replaced in every hardylab module that
    binds them, so a path that forms either fails the test.
    """
    from hardylab import operators
    from hardylab.subspaces import SubspaceData

    def refuse(*args, **kwargs):
        raise AssertionError("a dense shift or projection was formed")

    originals = (operators.shift_matrices, operators.shift_matrix)
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "hardylab" or key.startswith("hardylab.")):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, refuse)
    monkeypatch.setattr(SubspaceData, "projection", property(refuse))


@pytest.fixture
def no_torus_evaluation(monkeypatch):
    """Make AnalyticSymbol.evaluate raise for one test, so a path that
    evaluates a symbol anywhere, the torus included, fails the test."""
    from hardylab.symbols import AnalyticSymbol

    def refuse(*args, **kwargs):
        raise AssertionError("a symbol was evaluated")

    monkeypatch.setattr(AnalyticSymbol, "evaluate", refuse)
