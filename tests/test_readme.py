"""The README's quick start runs as written."""

import pathlib
import re

import numpy as np

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_quick_start_runs(capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    angles = np.array(capsys.readouterr().out.strip("[] \n").split(), dtype=float)
    assert angles.size == 4 and np.all(np.diff(angles) > 0)
