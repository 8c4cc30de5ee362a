"""The package imports nothing at run time beyond the standard library, numpy and scipy."""

import ast
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
