"""Numerical laboratory for detection-event statistics, Fisher-information
functionals, two-component wavefunction dynamics, and their classical limits."""

import ctypes

__version__ = "0.1.0"

# glibc's mallopt parameter numbers, from <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Serve arrays up to 32 MiB from the heap, and keep what it frees.

    Under glibc's default policy the freed numpy temporaries of one
    equivalence residual go back to the kernel, and the next residual
    faults them in again.  Both thresholds are set, or neither: fixing
    either one alone turns off glibc's dynamic thresholds and faults more
    than the default.  Where ``mallopt`` is missing (not glibc) this does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) == 1:
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_memory()
