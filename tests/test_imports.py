"""Every module-level import of an lsaforge module is used by it.

`__init__.py` is left out: its imports are the package's public names.
"""

import ast
import os

import pytest

import lsaforge

PACKAGE = os.path.dirname(lsaforge.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}                          # name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import os\nimport re\nfrom x import (a,\n"
                           "    b)\nprint(re, b)\n") == [(1, "os"),
                                                      (3, "a")]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_its_imports(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as handle:
        assert _unused_imports(handle.read()) == []
