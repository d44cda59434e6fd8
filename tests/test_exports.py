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
