"""Scoped single-threaded BLAS for the OpenBLAS that numpy already loaded.

The entry points are looked up through numpy's own extension module, so
ctypes reaches the copy in memory (the wheel's ``numpy.libs`` OpenBLAS, or a
system one).  Without an OpenBLAS, ``single_thread`` does nothing.  Every
model kernel and client round runs inside it, so no metric depends on the
host's BLAS thread count.
"""

from __future__ import annotations

import ctypes
import threading

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


class single_thread:
    """Run the enclosed BLAS calls on one thread; the count is process-wide while any scope is open.

    Scopes nest and overlap across threads: the first to open saves the count
    and sets 1, the last to close restores it.  A class, not a generator,
    because nested entries are on the kernel's hot path.
    """

    _lock = threading.Lock()
    _open = _saved = 0

    def __enter__(self) -> None:
        if OPENBLAS is not None:
            with single_thread._lock:
                if not single_thread._open:
                    single_thread._saved = OPENBLAS[1]()
                    OPENBLAS[0](1)
                single_thread._open += 1

    def __exit__(self, *exc) -> None:
        if OPENBLAS is not None:
            with single_thread._lock:
                single_thread._open -= 1
                if not single_thread._open:
                    OPENBLAS[0](single_thread._saved)
