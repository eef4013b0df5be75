"""Importing an entry point caps the BLAS threads before numpy loads.

The determinism contract is stated for one thread, and the thread variables
only take effect if they are set before numpy first loads its BLAS backend.
``slotvid/__init__`` sets them, and Python runs it before the body of any
``slotvid`` module. Each case imports one entry point in a fresh
interpreter whose environment holds none of the variables, and records
them at the moment numpy is first looked up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

WATCH = """
import importlib, json, os, sys

class NumpyWatch:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and NumpyWatch.seen is None:
            NumpyWatch.seen = {{var: os.environ.get(var) for var in {vars!r}}}
        return None

sys.meta_path.insert(0, NumpyWatch())
importlib.import_module({module!r})
print(json.dumps(NumpyWatch.seen))
"""


@pytest.mark.parametrize("module", ["slotvid.cli", "slotvid.training"])
def test_thread_caps_are_set_before_numpy_loads(module):
    env = {key: val for key, val in os.environ.items() if key not in THREAD_VARS + ("SFSL_THREADS",)}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = WATCH.format(vars=THREAD_VARS, module=module)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {var: "1" for var in THREAD_VARS}
