"""The BLAS thread pin set in conftest.py reaches the loaded OpenBLAS."""

import ctypes

import pytest

from openblas_lib import openblas_function

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
