"""The exported names resolve, and the package exports only what its modules declare."""

import importlib
import pkgutil

import hardylab


def test_public_surface_has_no_stale_names():
    modules = [importlib.import_module(f"hardylab.{info.name}")
               for info in pkgutil.iter_modules(hardylab.__path__)]
    for module in (hardylab, *modules):
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)

    namespace: dict = {}
    exec("from hardylab import *", namespace)
    assert set(hardylab.__all__) <= set(namespace)

    declared = set().union(*(getattr(m, "__all__", ()) for m in modules))
    assert set(hardylab.__all__) - declared <= {"__version__"}
