"""Smoke test of the demo scripts: each runs to completion from a copy in a
temporary directory, so anything a demo writes beside itself lands there."""

import pathlib
import runpy
import shutil

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_four_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, capsys):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    if demo.name.startswith("04"):
        results = tmp_path / "out_snr_sweep" / "results"
        assert sorted(p.name for p in results.iterdir()) == [
            "sweep_matched_snr.csv", "sweep_raw_high.csv", "sweep_raw_low.csv",
        ]
