"""The package imports nothing at run time beyond the standard library, numpy and
scipy, each module exports only what it defines, and the package exports what
its modules export."""

import ast
import importlib
import sys
from pathlib import Path

import muntzvide

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def test_runtime_imports_are_stdlib_numpy_or_scipy():
    sources = sorted(Path(muntzvide.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in ALLOWED, f"{path.name} imports {name}"


def _top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_every_exported_name_exists_and_is_defined_in_its_module():
    # a stale __all__ entry (a deleted function) or a re-exported import fails
    modules = sorted(Path(muntzvide.__file__).parent.glob("*.py"))
    exporting = 0
    for path in modules:
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"muntzvide.{path.stem}")
        defined = _top_level_names(ast.parse(path.read_text(), filename=str(path)))
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.name} exports missing name {name!r}"
            assert name in defined, f"{path.name} exports {name!r} but does not define it"
        exporting += hasattr(module, "__all__")
    assert exporting


def test_package_exports_every_module_export_once():
    # the package's __all__ is the modules' lists joined in order, with no name
    # spelled twice, and each name is the object its module defines
    modules = ["analysis", "collocation", "muntz_basis", "problem", "quadrature"]
    joined = [(m, name) for m in modules for name in importlib.import_module(f"muntzvide.{m}").__all__]
    assert muntzvide.__all__ == [name for _, name in joined]
    assert len(set(muntzvide.__all__)) == len(muntzvide.__all__)
    for m, name in joined:
        assert getattr(muntzvide, name) is getattr(importlib.import_module(f"muntzvide.{m}"), name), name
