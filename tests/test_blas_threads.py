"""The BLAS thread pin set in conftest.py reaches the loaded OpenBLAS, the
CLI pins itself, and test bank files do not depend on the thread count."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from openblas_lib import openblas_function
from test_cli import write_tiny_config

TESTS = str(Path(__file__).resolve().parent)
SRC = str(Path(TESTS).parent / "src")
PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def test_openblas_runs_one_thread():
    getter = openblas_function(GETTERS, ctypes.c_int)
    if getter is None:
        pytest.skip("numpy is not linked against a findable OpenBLAS")
    assert getter() == 1


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
# as its last line.
RUN_CLI_AS_MAIN = f"""
import atexit, ctypes, runpy, sys
from openblas_lib import openblas_function
getter = openblas_function({GETTERS!r}, ctypes.c_int)
atexit.register(lambda: print("blas threads:", getter() if getter else "unknown"))
sys.argv[0] = "arrayemu"
runpy.run_module("arrayemu.cli", run_name="__main__", alter_sys=True)
"""


def run_cli(args, pinned):
    env = {k: v for k, v in os.environ.items() if k not in PINS}
    if pinned:
        env.update(dict.fromkeys(PINS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, TESTS, env.get("PYTHONPATH")]))
    command = ["-m", "arrayemu.cli"] if pinned else ["-c", RUN_CLI_AS_MAIN]
    out = subprocess.run(
        [sys.executable, *command, *args], env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_unpinned_cli_runs_one_thread_and_writes_the_pinned_bytes(tmp_path):
    """With no thread variable set, OpenBLAS starts a thread per core; the
    CLI's own process sets it to one before any work, and a verb that
    trains, predicts and runs MUSIC writes the bytes of a pinned run."""
    if openblas_function(GETTERS, ctypes.c_int) is None:
        pytest.skip("numpy is not linked against a findable OpenBLAS")
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
