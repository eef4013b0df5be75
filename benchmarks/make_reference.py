"""Rewrite reference.json: each workload's final loss or mean ARI for a range of seeds.

    python3 benchmarks/make_reference.py --seeds 32

One untraced rep per workload and seed, at the benchmark's full size. The
benchmark compares every rep against these values (relative tolerance
``LOSS_RTOL`` for the loss, absolute ``ARI_ATOL`` for the ARI), so rerun
this only for a change that is meant to alter the arithmetic, and say so in
that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import bootstrap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=32, help="write seeds 0 .. N-1")
    args = parser.parse_args(argv)
    bootstrap.prepare()
    import harness

    workdir = os.path.join(bootstrap.ROOT, ".bench_results", f"reference-{os.getpid()}")
    seeds = {}
    for seed in range(args.seeds):
        values = {}
        for name, wl in harness.WORKLOADS.items():
            rep = harness.run_rep(wl, seed, harness.FULL, workdir, traced=False, tracer=None)
            if rep.errors:
                shutil.rmtree(workdir, ignore_errors=True)
                print(f"seed {seed} {name}: {rep.errors}", file=sys.stderr)
                return 1
            values[name] = rep.quality
        seeds[str(seed)] = values
        print(seed, values, flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(harness.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"what": "final_loss (training workloads) and mean_ari (eval_heldout) "
                           "of one rep per seed; written by make_reference.py",
                   "seeds": seeds}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
