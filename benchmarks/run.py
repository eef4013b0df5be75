"""Benchmark entry point: one workload in one process, a closed loop with one caller.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (untraced and traced reps alternate, so the tracing overhead is
measured in the same process). The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
result file with the environment record and per-rep detail is written to
``.bench_results/`` in the checkout. Exit code 0 means a result was
printed (a failed correctness or coverage check shows as ``"correct":
false`` and in ``failed``); 2 means the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

import bootstrap


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(thread_record: dict, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **thread_record,
        "git_commit": bootstrap.git_commit(),
        "seed": seed,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "step_p50_s": "s",
    "step_p90_s": "s",
    "clips_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_loss": "loss",
    "mean_ari": "ari",
}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    for suffix, unit in (("tokens_per_step", "count"), ("ratio", "ratio"), ("bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "s"


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        thread_record = bootstrap.prepare()
    except bootstrap.BenchSetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    # relative paths keep the init checkpoint paths, and so config_hash, the
    # same in every checkout
    os.chdir(bootstrap.ROOT)
    out_dir = ".bench_results"
    workdir = os.path.join(out_dir, f"work-{args.workload}")
    env = _environment(thread_record, args.seed)
    reference = harness.load_reference(args.seed, args.workload)
    summary = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir,
                              reference=reference)
    summary["environment"] = env
    summary["config"] = harness.effective_config(args.workload, args.seed, workdir)
    summary["reference"] = reference
    metrics = {name: {"value": value, "unit": _unit(name)} for name, value in summary["metrics"].items()}

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(summary['reps'])} reps, {summary['samples']} untraced samples, "
          f"{summary['attempted']} ops attempted, {summary['failed']} failed")
    for error in summary["errors"] + summary.get("coverage_errors", []):
        print(f"  check failed: {error.strip().splitlines()[-1]}")
    for name, entry in metrics.items():
        print(f"  {name:52s} {entry['value']:.6g} {entry['unit']}")
    print(f"  result file: {path}")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
