"""The benchmark's own smoke test runs clean against the current sources.

``benchmarks/smoke.py`` runs every workload on a tiny config, untraced and
traced, and checks the outputs, the declared metric names and the tracer's
restored bindings. It runs in a fresh process because the benchmark caps the
BLAS threads before numpy loads. Its records go to the ignored
``.bench_results/``; bytecode writing is off so nothing lands under
``benchmarks/``.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "smoke.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout
