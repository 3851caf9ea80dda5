"""The exported names resolve, the package exports only what its modules
declare, each module uses or exports every name it imports, every export
and every public member of an exported class has a reader outside the
tests, the sizes of the surface are pinned, and every hardylab name
README.md, a docstring or a comment spells out resolves."""

import ast
import dataclasses
import functools
import importlib
import importlib.util
import inspect
import io
import pkgutil
import re
import sys
import tokenize
from pathlib import Path

import hardylab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(hardylab.__file__).parent


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


REPUBLISHED = ("grids", "symbols", "operators", "subspaces", "criteria", "dilation",
               "factorization", "kernels", "corpus", "reports", "scenarios")


def test_package_all_is_the_republished_module_lists():
    """hardylab.__all__ is "__version__" and then each republished module's
    __all__ in order, and the package binds no other public name: every
    public name is declared once, in its module."""
    modules = [importlib.import_module(f"hardylab.{name}") for name in REPUBLISHED]
    assert hardylab.__all__ == ["__version__", *(n for m in modules for n in m.__all__)]
    public = {name for name, value in vars(hardylab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(hardylab.__all__) - {"__version__"}
    assert {info.name for info in pkgutil.iter_modules(hardylab.__path__)} \
        == {*REPUBLISHED, "cli", "textlines"}


UNUSED_IMPORTS_ALLOWED: set = set()


def test_every_import_is_used_or_exported():
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names if alias.name != "*"  # a re-export binds its module's __all__
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        modname = "hardylab" if path.stem == "__init__" else f"hardylab.{path.stem}"
        exported = set(getattr(importlib.import_module(modname), "__all__", ()))
        unused |= {(path.stem, name) for name in imported - used - exported}
    assert unused <= UNUSED_IMPORTS_ALLOWED, sorted(unused - UNUSED_IMPORTS_ALLOWED)


def test_runtime_imports_are_numpy_or_the_standard_library():
    """The package's one runtime dependency is numpy (pyproject.toml):
    every absolute import of src/hardylab names numpy or a module of the
    standard library."""
    imported = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "numpy" in imported
    assert sorted(imported - {"numpy"} - sys.stdlib_module_names) == []


FORCED_COMPLEX = {
    "symbols._normalize_matrix_coeffs", "symbols.AnalyticSymbol.constant",
    "symbols.AnalyticSymbol.taylor_table", "symbols.AnalyticSymbol.evaluate",
    "symbols.parse_coefficient_text", "operators.innerness_check",
    "kernels.kernel_sum_oracle", "kernels.gram_matrix", "dilation.random_brehmer_pair",
    "criteria.shift_power",
}


def _forced_complex_sites(node, scope, in_function=False):
    """The qualified names of the functions under node that hold a
    dtype=complex keyword, scope being the names enclosing node; a nested
    function counts as the function it is defined in."""
    if isinstance(node, ast.keyword) and node.arg == "dtype" \
            and isinstance(node.value, ast.Name) and node.value.id == "complex":
        return {".".join(scope)}
    if isinstance(node, ast.ClassDef) or isinstance(node, ast.FunctionDef) and not in_function:
        scope, in_function = (*scope, node.name), isinstance(node, ast.FunctionDef)
    return set().union(*(_forced_complex_sites(child, scope, in_function)
                         for child in ast.iter_child_nodes(node)))


def test_complex_is_forced_only_where_the_allowlist_says():
    """The dtype follows the data (grids._as_data): a dtype=complex keyword
    in src/hardylab sits only in a function of FORCED_COMPLEX, so a new
    forced-complex site on the split or dilation path fails here."""
    sites = set().union(*(_forced_complex_sites(ast.parse(path.read_text()), (path.stem,))
                          for path in sorted(PACKAGE.glob("*.py"))))
    assert sites == FORCED_COMPLEX


def _defaulted(fn) -> int:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):  # a builtin without a signature
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def test_defaulted_parameter_count():
    """Defaulted parameters of the exported functions and of the public
    methods of the exported classes.  An option added or removed changes
    this number, and the change says why."""
    count = 0
    for name in hardylab.__all__:
        obj = getattr(hardylab, name)
        if inspect.isclass(obj):
            count += sum(_defaulted(member) for member_name, member in inspect.getmembers(obj)
                         if not member_name.startswith("_") and callable(member))
        elif callable(obj):
            count += _defaulted(obj)
    assert count == 28


def _read_names(path: Path) -> set:
    """Every name a file reads, as a bare name or as an attribute."""
    loads = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(getattr(node, "ctx", None), ast.Load)]
    return ({node.id for node in loads if isinstance(node, ast.Name)}
            | {node.attr for node in loads if isinstance(node, ast.Attribute)})


def _traced_names() -> set:
    """The names hlbench/tracing.py rebinds, read from the file as
    test_tracing_targets does."""
    spec = importlib.util.spec_from_file_location("hlbench_tracing", ROOT / "hlbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {part for _, _, attribute in module.TRACED for part in attribute.split(".")}


def test_every_export_has_a_reader_outside_the_tests():
    """An exported name is read by the package itself, a demo or the
    benchmark, or the benchmark traces it; one that only tests read goes."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "hlbench").glob("*.py")]
    read = _traced_names().union(*(_read_names(p) for p in sources))
    assert sorted(set(hardylab.__all__) - read) == []


def _public_members(cls) -> list:
    """The public methods and properties a class defines itself; dataclass
    fields are data, not members."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return [name for name, member in vars(cls).items()
            if not name.startswith("_") and name not in fields
            and (callable(member) or isinstance(member, (property, functools.cached_property,
                                                         staticmethod, classmethod)))]


def test_every_public_member_has_a_reader_outside_the_tests():
    """A public method or property of an exported class is read by the
    package, a demo or the benchmark, or the benchmark traces it; one that
    only tests read goes, like an export."""
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "hlbench").glob("*.py")]
    read = _traced_names().union(*(_read_names(p) for p in sources))
    classes = [getattr(hardylab, name) for name in hardylab.__all__
               if inspect.isclass(getattr(hardylab, name))]
    members = {(cls.__name__, name) for cls in classes for name in _public_members(cls)}
    assert any(cls == "TruncationGrid" and name == "ranks" for cls, name in members)
    assert sorted((cls, name) for cls, name in members if name not in read) == []


def test_export_count():
    assert len(hardylab.__all__) == 55


DOTTED = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"


def _readme_dotted_names() -> list:
    """(line, name) for every backticked dotted name in README.md outside code
    fences, read as the leading a.b.c of the span (`TruncationGrid.shift(x)`
    gives TruncationGrid.shift)."""
    text = (ROOT / "README.md").read_text()
    text = re.sub(r"```.*?```", lambda m: "\n" * m.group().count("\n"), text, flags=re.S)
    out = []
    for match in re.finditer(r"`([^`]+)`", text):
        name = re.match(DOTTED, match.group(1))
        if name:
            out.append((text.count("\n", 0, match.start()) + 1, name.group()))
    return out


def _prose_dotted_names(path: Path) -> list:
    """(line, name) for every dotted name in the docstrings and comments of
    a Python file (np.linalg.qr, SubspaceData.core), not inside a longer
    dotted name."""
    text = path.read_text()
    spans = [(node.body[0].lineno, ast.get_docstring(node, clean=False))
             for node in ast.walk(ast.parse(text))
             if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
             and ast.get_docstring(node, clean=False)]
    spans += [(tok.start[0], tok.string)
              for tok in tokenize.generate_tokens(io.StringIO(text).readline)
              if tok.type == tokenize.COMMENT]
    return [(line + span.count("\n", 0, match.start()), match.group())
            for line, span in spans for match in re.finditer(r"(?<![\w.])" + DOTTED, span)]


def _hardylab_root(first: str):
    """The object a dotted README name starts from, or None when its first
    part is no hardylab name (a file such as pyproject.toml, a report key)."""
    modules = {info.name for info in pkgutil.iter_modules(hardylab.__path__)}
    if first == "hardylab":
        return hardylab
    if first in modules:
        return importlib.import_module(f"hardylab.{first}")
    if first in hardylab.__all__ and inspect.isclass(getattr(hardylab, first)):
        return getattr(hardylab, first)
    return None


def _resolves(name: str) -> bool:
    """Whether a dotted hardylab name names a module, class, attribute or
    dataclass field; a name that starts from no hardylab name resolves.
    The type of a field is not followed."""
    obj = _hardylab_root(name.split(".")[0])
    for part in name.split(".")[1:]:
        if obj is None or (dataclasses.is_dataclass(obj)
                           and part in {f.name for f in dataclasses.fields(obj)}):
            return True
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_readme_dotted_names_resolve():
    """Every hardylab name in README.md and in the docstrings and comments
    of the package and the demos resolves, so a deleted member cannot stay
    named."""
    names = [("README.md", line, name) for line, name in _readme_dotted_names()]
    assert any(name == "TruncationGrid.shift" for _, _, name in names)
    for path in sorted([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")]):
        where = f"{path.parent.name}/{path.name}"
        names += [(where, line, name) for line, name in _prose_dotted_names(path)]
    assert any(name == "SubspaceData.core" for _, _, name in names)
    unresolved = [f"{where}:{line}: {name}" for where, line, name in names if not _resolves(name)]
    assert unresolved == []


def _readme_residual_keys() -> list:
    """The keys of README's "Residual keys" table, one pattern each: the
    first column's backticked names, a comma list split, and a `_i` or `_j`
    part standing for an index (`pair_i_j`, `pureness_i`)."""
    text = (ROOT / "README.md").read_text()
    table = text.split("## Residual keys", 1)[1].split("\n\n", 2)[1]
    rows = [line.split("|")[1] for line in table.splitlines()[2:]]
    return [re.sub(r"_[ij](?=_|$)", r"_\\d+", name)
            for row in rows for name in re.findall(r"`([^`]+)`", row)]


def _emitted_residual_keys() -> set:
    """Every residual key of the shipped scenarios and of the corpus battery."""
    from hardylab.corpus import corpus_entries
    from hardylab.criteria import (
        beurling_criterion,
        cross_commutator_criterion,
        identity_suite,
        quotient_data,
    )
    from hardylab.scenarios import parse_scenario, run_scenario

    keys = set()
    for cfg in sorted((ROOT / "scenarios").glob("*.cfg")):
        report = run_scenario(parse_scenario(cfg.read_text(), cfg.stem, cfg.parent))
        assert report.ok, (cfg.name, report.status)
        keys |= set(report.residuals)
    for entry in corpus_entries(0):
        sub = entry.subspace()
        data = quotient_data(sub, margins=entry.margins)
        for report in (beurling_criterion(data), identity_suite(data),
                       cross_commutator_criterion(sub, margins=entry.margins)):
            keys |= set(report.residuals)
    return keys


def test_readme_residual_keys_match_the_reports():
    """README's residual-key table names every key the ten shipped scenarios
    and the corpus battery emit, and no key that none of them emits."""
    patterns, emitted = _readme_residual_keys(), _emitted_residual_keys()
    assert r"pair_\d+_\d+" in patterns and "witness_within_tolerance" in emitted
    undocumented = sorted(k for k in emitted if not any(re.fullmatch(p, k) for p in patterns))
    unemitted = [p for p in patterns if not any(re.fullmatch(p, k) for k in emitted)]
    assert undocumented == [] and unemitted == []
