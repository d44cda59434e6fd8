"""The BLAS thread pin set in conftest.py reaches the loaded OpenBLAS."""

import ctypes

import numpy as np  # noqa: F401  (loads BLAS before its maps are read)
import pytest

GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def loaded_openblas():
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter
    return None


def test_openblas_runs_one_thread():
    getter = loaded_openblas()
    if getter is None:
        pytest.skip("numpy is not linked against a findable OpenBLAS")
    assert getter() == 1
