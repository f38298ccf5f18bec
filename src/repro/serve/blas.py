"""Read and set the thread count of the OpenBLAS that numpy links.

``repro serve`` runs on one BLAS thread.  A delta's snapshot build runs
many small GEMMs (K-Means over every node's embedding), and while request
threads share the cores with it, each GEMM split over a second BLAS thread
waits for that thread to be scheduled.  Only the serve entry point pins the
count; library code never does, because float results of training depend
on it.

Both functions answer ``None`` and change nothing where numpy links no
OpenBLAS (or a build that exports none of the known symbols).
"""

from __future__ import annotations

import ctypes
from typing import Optional

#: Thread-count symbols, with ``{}`` for ``set`` / ``get``: the scipy-openblas
#: build numpy's wheels ship, a 64-bit-integer build, a plain build.
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
            "openblas_{}_num_threads")


def _openblas_function(kind: str):
    """numpy's OpenBLAS ``openblas_<kind>_num_threads``, or None if absent."""
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    library = ctypes.CDLL(_multiarray_umath.__file__)
    for symbol in _SYMBOLS:
        function = getattr(library, symbol.format(kind), None)
        if function is not None:
            return function
    return None


def blas_threads() -> Optional[int]:
    """The number of threads numpy's OpenBLAS runs on, or None."""
    getter = _openblas_function("get")
    if getter is None:
        return None
    getter.argtypes = []
    getter.restype = ctypes.c_int
    return int(getter())


def set_blas_threads(count: int) -> Optional[int]:
    """Run numpy's OpenBLAS on ``count`` threads; the previous count, or None."""
    previous = blas_threads()
    setter = _openblas_function("set")
    if previous is None or setter is None:
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(int(count))
    return previous
