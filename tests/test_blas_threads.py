"""The BLAS thread pin set in conftest.py reaches the loaded OpenBLAS, and
test bank files do not depend on the thread count."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

from openblas_lib import openblas_function

SRC = str(Path(__file__).resolve().parent.parent / "src")

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
