"""OpenBLAS's thread count for the workers of a sweep's process pool.

numpy has no call that sets it, so the loaded library is found among the
files this process maps (/proc/self/maps, Linux only) and its exported
setter is called through ctypes.  Where no OpenBLAS exporting one of the
names below is mapped (another BLAS, or another platform), nothing
changes.  Only a sweep that starts a process pool imports this module
(`sim.run_sweeps` passes `single_thread` as the pool's initializer), so
importing the package does not load it.  A pool's workers run points in
parallel, so their own BLAS threads only contend: on 2 vCPUs a 5-worker
fully correlated 256x8 sweep took 1.3-1.6 s with one each, 8.4-11.1 s
without; a serial sweep keeps the default threads (1.4-1.8 s; 1.5-1.7 s on one).
"""

from __future__ import annotations

import ctypes

# the thread-count setter and getter of numpy's bundled scipy-openblas
# (64-bit integer interface), then of other OpenBLAS builds
_SYMBOLS = {
    "set": ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_", "openblas_set_num_threads"),
    "get": ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"),
}


def openblas_function(kind: str):
    """The mapped OpenBLAS's thread-count function `kind` ("set" or "get"), or None."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _SYMBOLS[kind]:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def single_thread() -> None:
    """Run the mapped OpenBLAS on one thread in this process; do nothing where none is found."""
    fn = openblas_function("set")
    if fn is not None:
        fn.argtypes, fn.restype = [ctypes.c_int], None
        fn(1)
