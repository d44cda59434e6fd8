"""The benchmark's measurement hooks still fit the package.

``perfbench/spans.py`` patches functions and ``Harness`` methods by name.
Installing each hook here turns a renamed or deleted target into a test
failure instead of failed benchmark operations.
"""

import importlib.util
import pathlib

import pytest

from arrayemu.harness import Harness

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces(spans):
    """The identity of every name in each namespace the hooks patch."""
    owners = {**spans.MODULES, "Harness": Harness}
    return {name: {k: id(v) for k, v in vars(owner).items()} for name, owner in owners.items()}


@pytest.mark.parametrize("hook", ["Probe", "Tracer"])
def test_hook_installs_and_restores_every_original(spans, hook):
    before = namespaces(spans)
    h = getattr(spans, hook)()
    try:
        h.install()
        assert namespaces(spans) != before
        assert id(Harness.test_bank) != before["Harness"]["test_bank"]
    finally:
        h.uninstall()
    assert namespaces(spans) == before
