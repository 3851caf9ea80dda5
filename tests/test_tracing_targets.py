"""Every function the benchmark's --trace 1 rebinds still exists under its traced name.

hlbench/tracing.py lists (metric, module, attribute) triples and replaces
each attribute in place; a rename or removal in hardylab would otherwise
only show up as a broken traced run.  The list is read from the file, which
is not modified.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "hlbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("hlbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


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
