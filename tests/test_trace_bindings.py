"""The benchmark tracer's binding contract holds for the current modules.

``benchmarks/tracing.py`` wraps each traced function in every ``slotvid``
namespace that holds it and refuses to run when a name is missing from a
namespace it lists, so moving an import breaks the benchmark. The file is
compiled from source here, so the check writes nothing under ``benchmarks/``.
"""

import sys
import types
from pathlib import Path

import slotvid.cli  # noqa: F401
import slotvid.training  # noqa: F401

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def test_required_bindings_present():
    tracing = load_tracing()
    missing = []
    for module_name, attr, span in tracing.SPANS:
        if span not in tracing.REQUIRED_BINDINGS:
            continue
        original = getattr(sys.modules[module_name], attr)
        for holder in tracing.REQUIRED_BINDINGS[span]:
            if not any(value is original for value in vars(sys.modules[holder]).values()):
                missing.append(f"{span} in {holder}")
    assert not missing
    assert set(tracing.REQUIRED_BINDINGS) <= {span for _, _, span in tracing.SPANS}
