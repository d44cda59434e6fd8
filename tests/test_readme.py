"""The README's quick start runs as written, and the code it names exists."""

import importlib
import pathlib
import re

import numpy as np

ROOT = pathlib.Path(__file__).parent.parent
README = ROOT / "README.md"
MODULES = ("arrays", "music", "network", "metrics", "harness", "cli")


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    angles = np.array(capsys.readouterr().out.strip("[] \n").split(), dtype=float)
    assert angles.size == 4 and np.all(np.diff(angles) > 0)


def test_code_references_resolve():
    """Every backticked dotted name headed by ``Harness``, ``arrayemu`` or a
    module resolves attribute by attribute (a trailing ``*`` must match at
    least one name), and every backticked ``tests/`` or ``demos/`` path
    exists, so a renamed or retired name cannot linger in the prose."""
    heads = {name: importlib.import_module(f"arrayemu.{name}") for name in MODULES}
    heads["arrayemu"] = importlib.import_module("arrayemu")
    heads["Harness"] = heads["harness"].Harness
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    names = [s for s in spans if re.fullmatch(r"\w+(\.\w+)+\*?", s) and s.split(".")[0] in heads]
    paths = [s for s in spans if re.fullmatch(r"(tests|demos)/[\w./-]*", s)]
    assert names and paths
    missing = [p for p in paths if not (ROOT / p).exists()]
    for name in names:
        head, *attrs, last = name.split(".")
        owner = heads[head]
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if last.endswith("*"):
            found = owner is not None and any(n.startswith(last[:-1]) for n in dir(owner))
        else:
            found = hasattr(owner, last)
        if not found:
            missing.append(name)
    assert missing == []
