"""Every public name the package lists resolves.

The package star-imports each module's ``__all__``, so a stale entry fails
``import arrayemu`` itself; these tests name the module at fault and catch a
name two modules both list.
"""

import ast
import importlib
import os
import types
import warnings

import pytest

import arrayemu

MODULES = ["arrays", "music", "network", "metrics", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"arrayemu.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_names_are_module_exports():
    """The package's public names are exactly its modules' ``__all__`` lists
    plus ``__version__``, each the module's own object, and no name is listed
    by two modules: a star import would let the later module win silently."""
    owner = {}
    for name in MODULES:
        module = importlib.import_module(f"arrayemu.{name}")
        for attr in module.__all__:
            assert attr not in owner, (attr, owner.get(attr), name)
            owner[attr] = module
    public = {
        attr
        for attr, value in vars(arrayemu).items()
        if not attr.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(owner)
    assert arrayemu.__version__
    for attr, module in owner.items():
        assert getattr(arrayemu, attr) is getattr(module, attr), attr


def test_project_version_is_the_package_version():
    """pyproject.toml reads its version from ``arrayemu.__version__``."""
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools flags [tool.setuptools] as beta
        config = pyprojecttoml.read_configuration(f"{root}/pyproject.toml", expand=True)
    assert config["project"]["version"] == arrayemu.__version__


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
