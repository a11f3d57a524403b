"""Every name a library module imports is used in that module (the package
__init__ only re-exports, so it is exempt), and every name the package
exports exists."""

import ast
import os

import pytest

import costltl

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "costltl")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom .x import a, b as c\nprint(a)\n") == ["os", "c"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert _unused_imports(fh.read()) == []


def test_every_public_name_resolves():
    assert [name for name in costltl.__all__ if not hasattr(costltl, name)] == []
