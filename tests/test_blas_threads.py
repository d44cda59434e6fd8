"""The BLAS thread pin set in conftest.py reaches the loaded OpenBLAS, the
CLI pins itself, and test bank files do not depend on the thread count."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from arrayemu.cli import _openblas_function
from test_cli import write_tiny_config

SRC = str(Path(__file__).resolve().parents[1] / "src")
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# numpy's own record of the BLAS it links ("scipy-openblas" for its wheels):
# where it names OpenBLAS, a finder that finds nothing is a failure, not a skip.
needs_openblas = pytest.mark.skipif(
    "openblas" not in np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
    reason="numpy is not linked against OpenBLAS",
)


@needs_openblas
def test_openblas_runs_one_thread():
    getter = _openblas_function("get_num_threads", [], ctypes.c_int)
    assert getter is not None, "numpy links OpenBLAS, but no mapped library exports its getter"
    assert getter() == 1


def test_finder_returns_none_for_a_function_no_library_exports():
    """The case where ``entry_point`` finds no thread setter and runs on."""
    assert _openblas_function("no_such_function", [ctypes.c_int], None) is None


DRAW_BANK = """
import sys
from arrayemu.harness import ExperimentConfig, Harness
cfg = ExperimentConfig(angle_ranges_deg=[(0.0, 25.0)], test_samples=1500, output_dir=sys.argv[1])
print(Harness(cfg).bank_path(0, 0.0))
Harness(cfg).test_bank(0, 0.0)
"""


def test_bank_file_bytes_do_not_follow_the_thread_count(tmp_path):
    """Acceptance-size arrays, where the 64x64 covariance gemm runs threaded
    and rounds its last bits by thread count: processes on 1 and 2 BLAS
    threads write the same bank file."""
    files = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", DRAW_BANK, str(tmp_path / threads)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        files.append(Path(out.stdout.strip()).read_bytes())
    assert files[0] == files[1]


# ``python -m arrayemu.cli``, which prints the BLAS thread count it ran on
# as its last line.  arrayemu.cli is imported only at exit, after runpy has
# run it as __main__.
RUN_CLI_AS_MAIN = """
import atexit, ctypes, runpy, sys

def report():
    from arrayemu.cli import _openblas_function
    getter = _openblas_function("get_num_threads", [], ctypes.c_int)
    print("blas threads:", getter() if getter is not None else "unknown")

atexit.register(report)
sys.argv[0] = "arrayemu"
runpy.run_module("arrayemu.cli", run_name="__main__", alter_sys=True)
"""


def run_cli(args, pinned):
    env = {k: v for k, v in os.environ.items() if k not in PINS}
    if pinned:
        env.update(dict.fromkeys(PINS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = ["-m", "arrayemu.cli"] if pinned else ["-c", RUN_CLI_AS_MAIN]
    out = subprocess.run(
        [sys.executable, *command, *args], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@needs_openblas
def test_unpinned_cli_runs_one_thread_and_writes_the_pinned_bytes(tmp_path):
    """With no thread variable set, OpenBLAS starts a thread per core; the
    CLI's own process sets it to one before any work, and a verb that
    trains, predicts and runs MUSIC writes the bytes of a pinned run."""
    outputs = []
    for pinned in (True, False):
        (tmp_path / str(pinned)).mkdir()
        cfg = write_tiny_config(tmp_path / str(pinned))
        lines = run_cli(["sweep", "--case", "mixed_M1", "--config", str(cfg)], pinned)
        if not pinned:
            assert lines[-1] == "blas threads: 1"
        out = cfg.parent / "out"
        outputs.append({str(f.relative_to(out)): f.read_bytes() for f in out.rglob("*") if f.is_file()})
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]
