"""The OpenBLAS library numpy loaded, found through this process's memory
maps, and the kernel it runs."""

import ctypes

import numpy as np  # noqa: F401  (loads BLAS before its maps are read)

CORENAME_GETTERS = (
    "scipy_openblas_get_corename64_",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


def openblas_function(names, restype):
    """The first of ``names`` that the loaded OpenBLAS exports, as a function
    of no argument returning ``restype``; None if numpy is not linked
    against a findable OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in names:
            function = getattr(lib, name, None)
            if function is not None:
                function.argtypes, function.restype = [], restype
                return function
    return None


def openblas_kernel() -> str:
    """The kernel OpenBLAS picked for this CPU, by its name ("SkylakeX",
    "Haswell", ...), or "unknown"."""
    getter = openblas_function(CORENAME_GETTERS, ctypes.c_char_p)
    return getter().decode() if getter is not None else "unknown"
