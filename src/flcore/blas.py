"""One BLAS thread for the OpenBLAS that numpy already loaded.

The entry points are looked up through numpy's own extension module, so
ctypes reaches the copy in memory (the wheel's ``numpy.libs`` OpenBLAS, or a
system one).  Without an OpenBLAS, ``one_thread`` does nothing.  Every model
kernel and client round calls it on entry, so no metric depends on the host's
BLAS thread count.  No flcore BLAS call wants a second thread, so the count
is never set back; a host that wants more threads afterwards sets them itself.
"""

from __future__ import annotations

import ctypes

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


def one_thread() -> None:
    """Set numpy's OpenBLAS to one thread for the whole process, whatever it was before."""
    if OPENBLAS is not None:
        OPENBLAS[0](1)
