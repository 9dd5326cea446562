"""One BLAS thread per unit of work.

numpy and scipy wheels each load their own OpenBLAS from ``numpy.libs/`` and
``scipy.libs/``, and each runtime keeps its own thread count. On a few cores
a second thread spins between the calls of a sweep row or a ramp step and
makes a row's floating-point sums depend on the count. ``single_thread``
sets every runtime found to one thread for a block and restores the caller's
counts when the block exits, also by an exception; parallelism comes from
``sweep --jobs`` instead. A block entered inside another changes nothing.
Where no OpenBLAS control is found (MKL, Accelerate, a system OpenBLAS), the
block runs as it is.
"""

from __future__ import annotations

import contextlib
import ctypes
from pathlib import Path

import numpy
import scipy

# numpy's runtime exports scipy_openblas_*64_, scipy's scipy_openblas_*; a
# plain OpenBLAS build exports openblas_*
_NAMES = [(prefix, suffix) for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


def _find_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS in numpy.libs and scipy.libs."""
    controls = []
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in _NAMES:
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return tuple(controls)


CONTROLS = _find_controls()


@contextlib.contextmanager
def single_thread():
    """Run the block with every OpenBLAS control at one thread; usable as a decorator."""
    changed = [(set_, count) for get, set_ in CONTROLS if (count := get()) != 1]
    for set_, _ in changed:
        set_(1)
    try:
        yield
    finally:
        for set_, count in changed:
            set_(count)
