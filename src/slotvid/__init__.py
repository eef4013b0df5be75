"""Slot-based video token connectors with a deterministic float32 training harness."""

import ctypes
import os

# SFSL_THREADS caps BLAS parallelism; the determinism guarantees hold at 1.
# Must be exported before numpy first loads its BLAS backend, so this module
# should be imported early in any entry point.
_threads = os.environ.setdefault("SFSL_THREADS", "1")
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ.setdefault(_var, _threads)


def _keep_freed_pages() -> None:
    """Keep freed heap pages in the process; a no-op where glibc's ``mallopt`` is missing.

    ``engine.backward`` frees each step's graph as it walks it, and the next
    step re-grows the same memory. Under glibc's defaults the freed top of
    the heap went back to the system and its pages faulted in again: a
    median of 3,068-7,000 minor faults (12-27 MB) per step of the
    benchmark's three training workloads, each paid for in step time. A
    high trim threshold keeps those pages; alone it still left arrays over
    128 KiB to ``mmap``, unmapped on every free (15,028 faults per
    ``pretrain_slow`` step), so the mmap threshold is raised too; with both,
    the median is 0. Setting either one fixes both thresholds, turning off
    glibc's dynamic adjustment. Measured with glibc 2.36 on a 2-core x86-64
    host.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: trim only above 1 GiB of free top
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: mmap only blocks of 32 MiB and more


_keep_freed_pages()

__version__ = "0.1.0"
