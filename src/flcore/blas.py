"""Scoped single-threaded BLAS for the OpenBLAS that numpy already loaded.

The entry points are looked up through numpy's own extension module, so
ctypes reaches the copy in memory (the wheel's ``numpy.libs`` OpenBLAS, or a
system one).  Without an OpenBLAS, ``single_thread`` does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath


def _find_openblas():
    """(set_num_threads, get_num_threads) of numpy's OpenBLAS, or None."""
    lib = ctypes.CDLL(_multiarray_umath.__file__)
    for name in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            if hasattr(lib, f"{name}_set_num_threads{suffix}"):
                set_threads = getattr(lib, f"{name}_set_num_threads{suffix}")
                get_threads = getattr(lib, f"{name}_get_num_threads{suffix}")
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return set_threads, get_threads
    return None


OPENBLAS = _find_openblas()


@contextmanager
def single_thread():
    """Run the enclosed BLAS calls on one thread; the count is process-wide while the scope is open."""
    if OPENBLAS is None:
        yield
        return
    set_threads, get_threads = OPENBLAS
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
