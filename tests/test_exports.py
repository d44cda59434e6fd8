"""Every public name the package lists resolves.

A stale ``__all__`` entry fails only under ``import *``, so removing a name
from a module could otherwise leave its export behind unnoticed.
"""

import ast
import importlib
import os

import pytest

import arrayemu

MODULES = ["arrays", "music", "network", "metrics", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"arrayemu.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_names_are_module_exports():
    """Each name ``arrayemu/__init__.py`` imports is in its module's
    ``__all__`` and is the object the package exposes."""
    with open(os.path.join(os.path.dirname(arrayemu.__file__), "__init__.py")) as f:
        tree = ast.parse(f.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} == set(MODULES)
    for node in imports:
        module = importlib.import_module(f"arrayemu.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(arrayemu, alias.name) is getattr(module, alias.name)


def _unused_imports(path):
    """Names an import in the module at ``path`` binds that the module never
    reads and does not list in its ``__all__``."""
    with open(path) as f:
        tree = ast.parse(f.read())
    bound, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read | exported)


@pytest.mark.parametrize(
    "filename",
    sorted(
        name
        for name in os.listdir(os.path.dirname(arrayemu.__file__))
        if name.endswith(".py") and name != "__init__.py"
    ),
)
def test_every_import_is_used(filename):
    """A dependency-free unused-import lint: each name a module imports is
    read in that module or re-exported through its ``__all__``."""
    assert _unused_imports(os.path.join(os.path.dirname(arrayemu.__file__), filename)) == []
