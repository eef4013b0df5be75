"""Smoke test of the benchmark itself on a tiny config, in a few seconds.

    python3 benchmarks/smoke.py

Checks that all four workloads run untraced and traced with every check
passing, that every emitted metric name and unit is the one BENCHMARK.json
declares, and that after the traced runs every patched name (for example
``slotvid.training.forward_batch``) is again the original object.
``eval_heldout``, which BENCHMARK.json does not declare, must report
``mean_ari`` in place of ``final_loss``. Exits 1 and lists the problems if
any check fails.
"""

from __future__ import annotations

import json
import os
import sys

import bootstrap


def _bindings(tracing) -> dict:
    """Every (namespace, attribute) the tracer or the step clock can patch, with its object."""
    out = {}
    for module_name, attr, _name in tracing.SPANS + (("slotvid.engine", "adam_update", ""),):
        owner, leaf = tracing._resolve(module_name, attr)
        original = getattr(owner, leaf)
        targets = [(owner, leaf)] if isinstance(owner, type) else tracing._bindings(original)
        for target, target_attr in targets:
            out[(getattr(target, "__name__", str(target)), target_attr)] = (target, original)
    return out


def main() -> int:
    bootstrap.prepare()
    import harness
    import run
    import tracing

    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    undeclared = {w["name"] for w in bench["workloads"]} - set(harness.WORKLOADS)
    if undeclared:
        problems.append(f"BENCHMARK.json names workloads the harness lacks: {sorted(undeclared)}")

    before = _bindings(tracing)
    workdir = os.path.join(bootstrap.ROOT, ".bench_results", f"smoke-{os.getpid()}")
    for name in harness.WORKLOADS:
        for trace in (False, True):
            summary = harness.measure(name, seed=3, seconds=0, trace=trace, workdir=workdir,
                                      size=harness.TINY)
            where = f"{name} trace={int(trace)}"
            if not summary["correct"] or summary["failed"]:
                problems.append(f"{where}: not correct: {summary['errors'] + summary.get('coverage_errors', [])}")
            emitted = {m: run._unit(m) for m in summary["metrics"]}
            expected = dict(declared[trace])
            if not trace:
                quality = harness.WORKLOADS[name].quality
                expected.pop("final_loss")
                expected[quality] = run.END_TO_END_UNITS[quality]
            if emitted != expected:
                problems.append(f"{where}: emitted metrics {sorted(set(emitted) ^ set(expected))} "
                                f"or their units differ from BENCHMARK.json")
    for (namespace, attr), (owner, original) in before.items():
        if getattr(owner, attr) is not original:
            problems.append(f"{namespace}.{attr} is not the original object after the runs")

    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
