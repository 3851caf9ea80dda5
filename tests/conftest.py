import sys

import numpy as np
import pytest
from hypothesis import settings

# Matrix-valued examples can be slow on first compile of the BLAS path;
# derandomize keeps runs reproducible without a frozen database.
settings.register_profile("hardylab", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("hardylab")


@pytest.fixture
def no_dense_operators(monkeypatch):
    """Make every dense shift raise for one test.

    shift_matrix and shift_matrices are replaced in every hardylab module that
    binds them, so a path that forms either fails the test.
    """
    from hardylab import operators

    def refuse(*args, **kwargs):
        raise AssertionError("a dense shift was formed")

    originals = (operators.shift_matrices, operators.shift_matrix)
    for key, module in list(sys.modules.items()):
        if module is not None and (key == "hardylab" or key.startswith("hardylab.")):
            for attr, value in list(vars(module).items()):
                if any(value is fn for fn in originals):
                    monkeypatch.setattr(module, attr, refuse)


@pytest.fixture
def no_wide_singular_vectors(monkeypatch):
    """Return arm(dim); once armed, np.linalg.svd raises when asked for the
    singular vectors of a matrix with at least dim rows.

    Splitting a subspace of a grid of dimension dim by an SVD of its
    columns, or of any grid-wide matrix, then fails the test; singular
    values alone (compute_uv=False) and thin blocks stay allowed.
    """
    svd = np.linalg.svd

    def arm(dim):
        def guarded(a, full_matrices=True, compute_uv=True, hermitian=False):
            if compute_uv and np.shape(a)[-2] >= dim:
                raise AssertionError(f"singular vectors of a {np.shape(a)} matrix on a dim-{dim} grid")
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)

        monkeypatch.setattr(np.linalg, "svd", guarded)

    return arm


@pytest.fixture
def no_grid_wide_qr(monkeypatch):
    """Return arm(dim); once armed, np.linalg.qr raises when asked to
    factor a matrix with at least dim rows, so a split of a grid of
    dimension dim that factors grid-wide columns fails the test."""
    qr = np.linalg.qr

    def arm(dim):
        def guarded(a, mode="reduced"):
            if np.shape(a)[-2] >= dim:
                raise AssertionError(f"QR of a {np.shape(a)} matrix on a dim-{dim} grid")
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", guarded)

    return arm


@pytest.fixture
def no_torus_evaluation(monkeypatch):
    """Make AnalyticSymbol.evaluate raise for one test, so a path that
    evaluates a symbol anywhere, the torus included, fails the test."""
    from hardylab.symbols import AnalyticSymbol

    def refuse(*args, **kwargs):
        raise AssertionError("a symbol was evaluated")

    monkeypatch.setattr(AnalyticSymbol, "evaluate", refuse)


@pytest.fixture
def no_svd_in_subspaces(monkeypatch):
    """Make np.linalg.svd raise when called from hardylab.subspaces, so a
    split that confirms its rank by an SVD fails the test; SVDs called
    anywhere else, numpy's own norms included, stay allowed."""
    svd = np.linalg.svd

    def guarded(*args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "hardylab.subspaces":
            raise AssertionError("hardylab.subspaces took an SVD")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", guarded)


@pytest.fixture
def no_unread_singular_vectors(monkeypatch):
    """Make np.linalg.svd raise when asked for the full singular vectors of
    a non-square matrix: that call forms a square factor on the longer
    side whether or not it is read, so a path that takes it fails the
    test.  Thin factors, square inputs and singular values alone stay
    allowed."""
    svd = np.linalg.svd

    def guarded(a, full_matrices=True, compute_uv=True, hermitian=False):
        rows, cols = np.shape(a)[-2:]
        if compute_uv and full_matrices and rows != cols:
            raise AssertionError(f"full singular vectors of a {np.shape(a)} matrix")
        return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)

    monkeypatch.setattr(np.linalg, "svd", guarded)
