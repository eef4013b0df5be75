"""Process set-up shared by the benchmark's scripts; imports nothing heavy.

The thread cap must be in the environment before numpy loads its BLAS
backend, so every script calls ``prepare()`` before importing numpy or
slotvid. The benchmark measures the setting the determinism contract is
stated for: one BLAS thread.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = (
    "SFSL_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class BenchSetupError(Exception):
    """The checkout cannot be benchmarked (no sources, or numpy loaded too early)."""


def prepare() -> dict:
    """Cap threads, put the checkout's ``src`` first on the path; return what was set."""
    if not os.path.isfile(os.path.join(SRC, "slotvid", "__init__.py")):
        raise BenchSetupError(f"no slotvid sources under {SRC}")
    numpy_was_loaded = "numpy" in sys.modules
    if numpy_was_loaded:
        raise BenchSetupError("numpy was imported before the thread cap was set")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import slotvid

    if os.path.dirname(os.path.abspath(slotvid.__file__)) != os.path.join(SRC, "slotvid"):
        raise BenchSetupError(f"slotvid imported from {slotvid.__file__}, not from {SRC}")
    return {
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "numpy_loaded_before_cap": numpy_was_loaded,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from ``.git`` without running git; None outside a repo."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None
