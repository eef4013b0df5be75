"""Command-line surface: data generation, training stages, evaluation, viz.

Exit codes: 0 success, 2 configuration error, 3 runtime/training error.
All randomness flows from the single config seed; SFSL_THREADS (default 1)
caps BLAS parallelism so repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import os
import sys


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

    p = common(sub.add_parser("gen-data", help="export scenes as tensor containers"))
    p.add_argument("--count", type=int, default=8, help="number of scenes to export")
    p.add_argument("--split", default="train", choices=("train", "heldout"))

    for name, help_text in (
        ("pretrain", "stage 1: feature-reconstruction pretraining of one branch"),
        ("tune", "stage 2: single-branch probe tuning from a stage-1 checkpoint"),
        ("joint", "stage 3: joint two-branch tuning from two stage-2 checkpoints"),
        ("train-baseline", "train a pooling or query-transformer comparator"),
    ):
        p = common(sub.add_parser(name, help=help_text))
        p.add_argument("--resume", help="continue from a mid-stage checkpoint")

    p = common(sub.add_parser("eval", help="decoupling report on held-out scenes"))
    p.add_argument("--ckpt", required=True, help="checkpoint to evaluate")
    p.add_argument("--scenes", type=int, help="override held-out scene count")

    p = common(sub.add_parser("viz", help="render attention masks as PGM images"))
    p.add_argument("--ckpt", required=True, help="checkpoint to visualize")
    p.add_argument("--scene", type=int, default=0, help="held-out scene index")

    p = sub.add_parser("compare", help="side-by-side table from report files")
    p.add_argument("reports", nargs="+", help="two or more report files")
    return parser


def _require_out(args) -> str:
    if not args.out:
        from .config import ConfigError

        raise ConfigError(f"{args.command} needs --out DIR")
    return args.out


def _non_negative(args, name: str) -> int:
    value = getattr(args, name)
    if value < 0:
        from .config import ConfigError

        raise ConfigError(f"--{name} must be >= 0, got {value}")
    return value


def _load(args):
    from .config import load_config

    return load_config(args.config, seed=args.seed, out=getattr(args, "out", None))


def _cmd_gen_data(args) -> int:
    from .checkpoint import save_checkpoint
    from .config import write_effective_config
    from .training import _stream

    count = _non_negative(args, "count")
    rc = _load(args)
    out_dir = _require_out(args)
    os.makedirs(out_dir, exist_ok=True)
    write_effective_config(rc, out_dir)
    stream = _stream(rc, args.split)
    import numpy as np

    for i in range(count):
        spec, video, truth = stream.scene(i)
        tensors = {
            "features": video.grid,
            "object_labels": truth.object_labels.astype(np.float32),
            "segment_labels": truth.segment_labels.astype(np.float32),
            "object_ids": np.asarray(spec.object_ids, dtype=np.float32),
            "meta.k_objects": np.float32(spec.k_objects),
        }
        save_checkpoint(tensors, os.path.join(out_dir, f"scene_{i:05d}.sfsl"))
    print(f"wrote {count} scene containers to {out_dir}")
    return 0


def _cmd_train(args, runner_name: str) -> int:
    from .config import write_effective_config
    from . import training

    rc = _load(args)
    out_dir = _require_out(args)
    runner = getattr(training, runner_name)
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
    from .config import write_effective_config
    from .training import evaluate_checkpoint

    rc = _load(args)
    report = evaluate_checkpoint(rc, args.ckpt, n_scenes=args.scenes)
    text = report.to_text()
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_effective_config(rc, args.out)
        path = os.path.join(args.out, "report.txt")
        report.save(path)
        print(f"report: {path}")
    sys.stdout.write(text)
    return 0


def _cmd_viz(args) -> int:
    from .checkpoint import load_checkpoint
    from .config import write_effective_config
    from .engine import no_grad
    from .metrics import render_masks
    from .connector import stack_views
    from .training import TrainingError, _stream, build_model, forward_masks, load_model_tensors, view_names

    scene = _non_negative(args, "scene")
    rc = _load(args)
    out_dir = _require_out(args)
    if rc.connector_kind == "pooling":
        raise TrainingError("the pooling connector has no attention masks to render")
    model = build_model(rc)
    load_model_tensors(model, load_checkpoint(args.ckpt))
    _, video, _ = _stream(rc, "heldout").scene(scene)
    branch = rc.stage.branch
    cfg = rc.connector
    with no_grad():
        views = stack_views([video], cfg, view_names(model, branch))
        _, slow_masks, fast_masks = forward_masks(model, views, branch)
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
    from .metrics import DecouplingReport, compare_table

    reports = [DecouplingReport.load(path) for path in args.reports]
    sys.stdout.write(compare_table(reports))
    return 0


def main(argv=None) -> int:
    # the thread cap must be in place before numpy loads its BLAS backend
    import slotvid  # noqa: F401

    args = _build_parser().parse_args(argv)
    from .checkpoint import CheckpointError
    from .config import ConfigError
    from .connector import ConnectorError
    from .engine import EngineError
    from .metrics import MetricsError
    from .synthetic import SceneError
    from .training import TrainingError

    handler = {
        "gen-data": _cmd_gen_data,
        "pretrain": lambda a: _cmd_train(a, "run_stage1"),
        "tune": lambda a: _cmd_train(a, "run_stage2"),
        "joint": lambda a: _cmd_train(a, "run_stage3"),
        "train-baseline": lambda a: _cmd_train(a, "run_baseline"),
        "eval": _cmd_eval,
        "viz": _cmd_viz,
        "compare": _cmd_compare,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, CheckpointError, ConnectorError, EngineError, MetricsError, SceneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
