"""Command-line surface: training stages, evaluation, viz.

Exit codes: 0 success, 2 configuration error, 3 runtime/training error.
All randomness flows from the single config seed; SFSL_THREADS (default 1)
caps BLAS parallelism so repeated runs are bit-identical. The package's
``__init__`` sets the cap, and Python runs it before this module's imports
load numpy.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checkpoint import CheckpointError, load_checkpoint
from .config import ConfigError, load_config, write_effective_config
from .connector import ConnectorError, stack_views
from .engine import EngineError, no_grad
from .metrics import DecouplingReport, MetricsError, compare_table, render_masks
from .synthetic import SceneError, SceneStream
from .training import (
    TrainingError,
    build_model,
    evaluate_checkpoint,
    forward_masks,
    load_model_tensors,
    run_baseline,
    run_stage1,
    run_stage2,
    run_stage3,
    view_names,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slotvid",
        description="Slot-based video token connectors: train, evaluate, visualize.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory" + (" (required)" if needs_out else ""))
        return p

    for name, help_text in (
        ("pretrain", "stage 1: feature-reconstruction pretraining of one branch"),
        ("tune", "stage 2: single-branch probe tuning from a stage-1 checkpoint"),
        ("joint", "stage 3: joint two-branch tuning from two stage-2 checkpoints"),
        ("train-baseline", "train a pooling or query-transformer comparator"),
    ):
        p = common(sub.add_parser(name, help=help_text))
        p.add_argument("--resume", help="continue from a mid-stage checkpoint")

    p = common(sub.add_parser("eval", help="decoupling report on held-out scenes"), needs_out=False)
    p.add_argument("--ckpt", required=True, help="checkpoint to evaluate")
    p.add_argument("--scenes", type=int, help="override the held-out scene count (data.n_heldout_scenes)")

    p = common(sub.add_parser("viz", help="render attention masks as PGM images"))
    p.add_argument("--ckpt", required=True, help="checkpoint to visualize")
    p.add_argument("--scene", type=int, default=0, help="held-out scene index")

    p = sub.add_parser("compare", help="side-by-side table from report files")
    p.add_argument("reports", nargs="+", help="one or more report files")
    return parser


def _require_out(args, rc) -> str:
    if not rc.out:
        raise ConfigError(f"{args.command} needs --out DIR or an out in its config")
    return rc.out


def _non_negative(args, name: str) -> int:
    value = getattr(args, name)
    if value < 0:
        raise ConfigError(f"--{name} must be >= 0, got {value}")
    return value


def _load(args):
    """The run config: the ``--config`` file or the defaults, with each flag given folded in."""
    overrides = {key: value for key, value in (("seed", args.seed), ("out", args.out)) if value is not None}
    if getattr(args, "scenes", None) is not None:
        overrides["data"] = {"n_heldout_scenes": args.scenes}
    return load_config(args.config, overrides)


def _cmd_train(args, runner) -> int:
    rc = _load(args)
    out_dir = _require_out(args, rc)
    result = runner(rc, out_dir=out_dir, resume=args.resume)
    # written once the run has succeeded, so a refused run leaves no directory
    write_effective_config(rc, out_dir)
    last = result["records"][-1] if result["records"] else None
    if last is not None:
        tail = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in last.items())
        print(f"finished: {tail}")
    print(f"checkpoint: {result['checkpoint']}")
    return 0


def _cmd_eval(args) -> int:
    rc = _load(args)
    report = evaluate_checkpoint(rc, args.ckpt)
    text = report.to_text()
    if rc.out:
        os.makedirs(rc.out, exist_ok=True)
        write_effective_config(rc, rc.out)
        path = os.path.join(rc.out, "report.txt")
        report.save(path)
        print(f"report: {path}")
    sys.stdout.write(text)
    return 0


def _cmd_viz(args) -> int:
    scene = _non_negative(args, "scene")
    rc = _load(args)
    if scene >= rc.data.n_heldout_scenes:
        raise ConfigError(f"--scene {scene} is past the {rc.data.n_heldout_scenes} held-out scenes "
                          "(data.n_heldout_scenes) that eval scores")
    out_dir = _require_out(args, rc)
    if rc.connector.type == "pooling":
        raise TrainingError("the pooling connector has no attention masks to render")
    model = build_model(rc)
    load_model_tensors(model, load_checkpoint(args.ckpt))
    _, video, _ = SceneStream(rc, "heldout").scene(scene)
    cfg = rc.connector
    with no_grad():
        views = stack_views([video], cfg, view_names(rc))
        _, slow_masks, fast_masks = forward_masks(model, views)
    # slow masks render as the H x W frame, fast masks as a T x 1 time strip
    entries = []
    if slow_masks is not None:
        entries += [("slow", i, mask, (cfg.grid_h, cfg.grid_w)) for i, mask in enumerate(slow_masks[0])]
    if fast_masks is not None:
        entries += [("fast", k, mask, (video.n_frames, 1)) for k, mask in enumerate(fast_masks[0])]
    os.makedirs(out_dir, exist_ok=True)
    write_effective_config(rc, out_dir)
    names = render_masks(entries, out_dir)
    print(f"wrote {len(names)} mask images and index.txt to {out_dir}")
    return 0


def _cmd_compare(args) -> int:
    reports = [DecouplingReport.load(path) for path in args.reports]
    sys.stdout.write(compare_table(reports))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "pretrain": lambda a: _cmd_train(a, run_stage1),
        "tune": lambda a: _cmd_train(a, run_stage2),
        "joint": lambda a: _cmd_train(a, run_stage3),
        "train-baseline": lambda a: _cmd_train(a, run_baseline),
        "eval": _cmd_eval,
        "viz": _cmd_viz,
        "compare": _cmd_compare,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, CheckpointError, ConnectorError, EngineError, MetricsError, SceneError, OSError,
            MemoryError) as exc:
        # a size the config allows but the machine cannot hold, such as a
        # huge connector.max_frames, fails at its first allocation
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
