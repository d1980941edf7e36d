"""One OpenBLAS thread, except around the one call that gains from more.

The numpy and scipy wheels each bundle their own OpenBLAS with its own
thread pool. Importing wemp drops both pools to one thread, for the whole
process, unrelated numpy and scipy code included: on a 2-core machine, the
only one this was measured on, the marches' many small BLAS calls ran
slower at two, with a pool's idle worker spinning on the core the other
pool or the main thread needed next. full_pools() sets the counts the
pools had on import for the generalized eigendecomposition
(solvers.ms_modes), then puts back the counts it found. A pool this module
cannot find, as on conda, MKL or Accelerate builds, is left alone.
"""

import contextlib
import ctypes
import glob
import os
import threading
from typing import Callable, NamedTuple

import numpy
import scipy


class Pool(NamedTuple):
    """A bundled OpenBLAS's thread-count getter and setter, and the count
    it had on import."""
    get: Callable[[], int]
    set: Callable[[int], None]
    count: int


def _find_pools() -> tuple:
    """The Pool of each bundled OpenBLAS found."""
    pools = []
    for package, pattern, suffix in (
            (numpy, "libscipy_openblas64_*.so", "64_"),
            (scipy, "libscipy_openblas*.so", "")):
        site = os.path.dirname(os.path.dirname(package.__file__))
        libs = os.path.join(site, package.__name__ + ".libs")
        for path in glob.glob(os.path.join(libs, pattern)):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
            except (OSError, AttributeError):
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            pools.append(Pool(get, put, get()))
    return tuple(pools)


POOLS = _find_pools()
for _pool in POOLS:
    _pool.set(1)


# one body at a time, so that each puts back the counts it found
_LOCK = threading.Lock()


@contextlib.contextmanager
def full_pools():
    """Run the body with every pool at its count on import, then at the
    count it had on entry, also when the body raises."""
    with _LOCK:
        entry = [pool.get() for pool in POOLS]
        try:
            for pool in POOLS:
                pool.set(pool.count)
            yield
        finally:
            for pool, count in zip(POOLS, entry):
                pool.set(count)
