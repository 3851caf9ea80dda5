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
    target = importlib.import_module(module)
    for part in attribute.split("."):
        assert hasattr(target, part), f"{metric}: {module}.{attribute} is gone"
        target = getattr(target, part)
    assert callable(target), metric
