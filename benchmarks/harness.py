"""The four workloads, the measured closed loop and the output checks.

A run repeats one *rep* of its workload until the time budget is spent. A rep
is the whole public call a user makes: for training, config, model build,
checkpoint I/O, a fixed number of optimizer steps and the final checkpoint;
for evaluation, config, model build and a fixed list of held-out requests.
Every rep of a run does identical work, so its loss or ARI must repeat
bit-for-bit, and timing samples from all reps are pooled.

Model weights start from ``INIT_SEED`` in every workload that needs a
trained-from weight set, and the workload seed drives the data (scenes,
stage-1 frame picks, held-out clips). Measured at the parent commit, a
seed-dependent init moved ``final_loss`` of stage 1 by about 30% and
``mean_ari`` by about 20% across seeds, which no bound could absorb; with
a fixed init both stay within a few per cent.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from slotvid import config, training
from slotvid.checkpoint import load_checkpoint
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
INIT_SEED = 0
LOSS_RTOL = 1e-3
ARI_ATOL = 2e-3


@dataclass(frozen=True)
class Size:
    """How much work one rep does and how many reps and samples a run needs."""

    batch: int
    n_train_scenes: int
    timed_steps: int
    eval_requests: int
    min_reps: int  # per mode; a traced run needs fewer, it reports no percentile
    min_samples: int
    min_trace_reps: int
    connector: dict = field(default_factory=dict)

    @property
    def warmup_steps(self) -> int:
        # the scene cache holds every training scene after ceil(n / B) steps
        return -(-self.n_train_scenes // self.batch)


FULL = Size(batch=8, n_train_scenes=16, timed_steps=34, eval_requests=200,
            min_reps=3, min_samples=100, min_trace_reps=2)
TINY = Size(batch=2, n_train_scenes=4, timed_steps=3, eval_requests=3, min_reps=2, min_samples=1,
            min_trace_reps=1,
            connector={"frames": 8, "grid_h": 8, "grid_w": 8, "feat_dim": 8, "slow_frames": 2,
                       "slots_per_frame": 3, "slots_per_position": 3, "slot_dim": 8,
                       "out_dim": 8, "max_frames": 8, "iters_slow": 1, "iters_fast": 1,
                       "qt_layers": 1, "qt_heads": 2})

ENGINE = ("engine.backward", "engine.adam_update", "engine.clip_global_norm", "engine.zero_grads")
CONNECTOR = ("connector.connect_batch", "connector.slow_branch_batch", "connector.fast_branch_batch")
METRICS = ("metrics.ari", "metrics.slot_overlap", "metrics.mask_entropy", "metrics.hard_assign")
BASELINES = ("baselines.slowfast_wrap", "baselines.wrap_slow_batch", "baselines.wrap_fast_batch",
             "baselines.query_transformer_batch.slow", "baselines.query_transformer_batch.fast")
SLOW_SA = "slot_attention.forward_batch.slow"
FAST_SA = "slot_attention.forward_batch.fast"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" | "eval"
    branch: str  # branch of spans with no connector parent
    quality: str  # "final_loss" | "mean_ari"
    timed_spans: frozenset  # spans predicted to run in the timed phase; all others 0 calls
    setup_spans: frozenset  # of checkpoint.* and synthetic.gen_scene, those predicted in setup
    hit_ratio: float  # predicted scene-cache hit ratio of the timed phase


# BENCHMARK.json declares the three training workloads; eval_heldout runs by
# hand only, because its step_p50_s was too unsteady on the reference host to
# gate (see README.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pretrain_slow", "train", "slow", "final_loss",
                 frozenset(ENGINE + (SLOW_SA, "decoder.decode_batch", "decoder.recon_loss",
                                     "synthetic.scene")),
                 frozenset({"checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
                            "synthetic.gen_scene"}), 1.0),
        Workload("joint_tune", "train", "both", "final_loss",
                 frozenset(ENGINE + CONNECTOR + (SLOW_SA, FAST_SA, "synthetic.scene")),
                 frozenset({"checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
                            "synthetic.gen_scene"}), 1.0),
        Workload("qt_baseline", "train", "both", "final_loss",
                 frozenset(ENGINE + BASELINES + ("synthetic.scene",)),
                 frozenset({"synthetic.gen_scene"}), 1.0),
        Workload("eval_heldout", "eval", "both", "mean_ari",
                 frozenset(CONNECTOR + METRICS + (SLOW_SA, FAST_SA, "synthetic.scene",
                                                  "synthetic.gen_scene", "synthetic.make_scene_spec")),
                 frozenset(), 0.0),
    )
}


# -- configs ---------------------------------------------------------------------------


def workload_config(name: str, seed: int, size: Size, workdir: str) -> dict:
    """The user config a workload passes to ``config.from_dict``."""
    conn = dict(size.connector)
    stage = {"batch_size": size.batch, "log_every": 1_000_000}
    steps = size.warmup_steps + size.timed_steps
    if name == "pretrain_slow":
        stage.update(stage=1, branch="slow", steps=steps, frames_per_scene=2)
    elif name == "joint_tune":
        stage.update(stage=3, branch="both", steps=steps,
                     init_slow_checkpoint=os.path.join(workdir, "init-slow.sfsl"),
                     init_fast_checkpoint=os.path.join(workdir, "init-fast.sfsl"))
    elif name == "qt_baseline":
        conn["type"] = "query_transformer"
        stage.update(stage=3, branch="both", steps=steps)
    elif name == "eval_heldout":
        stage.update(branch="both")
    else:
        raise KeyError(name)
    return {"connector": conn, "data": {"n_train_scenes": size.n_train_scenes},
            "stage": stage, "seed": seed}


def effective_config(name: str, seed: int, workdir: str) -> dict:
    rc = config.from_dict(workload_config(name, seed, FULL, workdir))
    return {"config_hash": config.config_hash(rc), "effective": rc.effective}


# -- one rep ---------------------------------------------------------------------------


@dataclass
class Rep:
    traced: bool
    setup_s: float = math.nan
    steps: list = field(default_factory=list)  # seconds per completed timed operation
    clips: int = 0
    timed_s: float = 0.0
    quality: float = math.nan
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


class StepClock:
    """Timestamps every return of ``training.adam_update``; that instant ends a step.

    After the last warm-up step the tracer (if any) enters the timed phase,
    and after the last step it enters teardown.
    """

    def __init__(self, warmup: int, total: int, tracer: Tracer | None):
        self.warmup = warmup
        self.total = total
        self.tracer = tracer
        self.times = []

    def __enter__(self) -> "StepClock":
        self._original = training.adam_update
        original = self._original

        def timed_adam_update(*args, **kwargs):
            out = original(*args, **kwargs)
            self.times.append(time.perf_counter())
            if self.tracer is not None:
                if len(self.times) == self.warmup:
                    self.tracer.phase = "timed"
                elif len(self.times) == self.total:
                    self.tracer.phase = "teardown"
            return out

        training.adam_update = timed_adam_update
        return self

    def __exit__(self, *exc) -> None:
        training.adam_update = self._original


def _write_init_checkpoints(name: str, size: Size, workdir: str) -> str | None:
    """Fixed-seed starting weights; returns the stage-1 resume path, if any."""
    if name not in ("pretrain_slow", "joint_tune"):
        return None
    model = training.build_model(config.from_dict(workload_config(name, INIT_SEED, size, workdir)))
    if name == "pretrain_slow":
        path = os.path.join(workdir, "init.sfsl")
        training.save_model(path, model, None, 0, 1)
        return path
    training.save_model(os.path.join(workdir, "init-slow.sfsl"), model, None, 0, 2)
    training.save_model(os.path.join(workdir, "init-fast.sfsl"), model, None, 0, 2)
    return None


def _train_rep(wl: Workload, seed: int, size: Size, workdir: str, tracer: Tracer | None) -> tuple:
    rep = Rep(traced=tracer is not None)
    warmup, total = size.warmup_steps, size.warmup_steps + size.timed_steps
    out_dir = os.path.join(workdir, "out")
    result = rc = None
    start = time.perf_counter()
    with StepClock(warmup, total, tracer) as clock:
        try:
            resume = _write_init_checkpoints(wl.name, size, workdir)
            rc = config.from_dict(workload_config(wl.name, seed, size, workdir))
            if wl.name == "pretrain_slow":
                result = training.run_stage1(rc, out_dir, resume=resume)
            elif wl.name == "joint_tune":
                result = training.run_stage3(rc, out_dir)
            else:
                result = training.run_baseline(rc, out_dir)
        except Exception:  # a raising step is a failed operation; the run goes on
            rep.failed += 1
            rep.attempted += 1
            rep.errors.append(traceback.format_exc(limit=3))
    times = clock.times
    if len(times) >= warmup:
        rep.setup_s = times[warmup - 1] - start
        rep.steps = np.diff(times[warmup - 1 : total]).tolist()
        rep.attempted += len(rep.steps)
        rep.clips = len(rep.steps) * size.batch
        rep.timed_s = float(sum(rep.steps))
    return rep, rc, result


def _eval_rep(wl: Workload, seed: int, size: Size, workdir: str, tracer: Tracer | None) -> tuple:
    rep = Rep(traced=tracer is not None)
    start = time.perf_counter()
    rc = config.from_dict(workload_config(wl.name, seed, size, workdir))
    model = training.build_model(config.from_dict(workload_config(wl.name, INIT_SEED, size, workdir)))
    reports = []
    if tracer is not None:
        tracer.phase = "timed"
    first = time.perf_counter()
    rep.setup_s = first - start
    for i in range(size.eval_requests):
        began = time.perf_counter()
        try:
            report = training.evaluate_model(rc, model, n_scenes=1, tag=f"heldout-{i}")
        except Exception:  # a raising request is a failed operation
            rep.failed += 1
            rep.errors.append(traceback.format_exc(limit=3))
            report = None
        rep.steps.append(time.perf_counter() - began)
        reports.append(report)
    rep.timed_s = time.perf_counter() - first
    if tracer is not None:
        tracer.phase = "teardown"
    rep.attempted = size.eval_requests
    rep.steps = [s for s, r in zip(rep.steps, reports) if r is not None]
    rep.clips = len(rep.steps)
    return rep, rc, reports


# -- output checks ------------------------------------------------------------------------


def _check_train(rep: Rep, rc, result, workdir: str) -> None:
    if result is None:
        return
    rep.quality = float(result["records"][-1]["loss"])
    problems = []
    if not math.isfinite(rep.quality):
        problems.append(f"final_loss {rep.quality} is not finite")
    try:
        fresh = training.build_model(rc)
        training.load_model_tensors(fresh, load_checkpoint(result["checkpoint"]))
        trained = result["model"].named()
        moved = [n for n, v in fresh.named().items() if not np.array_equal(v.data, trained[n].data)]
        if moved:
            problems.append(f"checkpoint reloads with different tensors: {moved[:3]}")
    except Exception as exc:  # any load failure is a failed check
        problems.append(f"checkpoint does not load back: {exc!r}")
    if problems:
        rep.errors.extend(problems)
        rep.failed += len(rep.steps)


def _report_problems(report, n_tokens: int) -> list:
    problems = []
    if report.n_tokens != n_tokens:
        problems.append(f"n_tokens {report.n_tokens} != {n_tokens}")
    for name in ("spatial_ari", "temporal_ari"):
        value = getattr(report, name)
        if value is None or not -1.0 <= value <= 1.0:
            problems.append(f"{name} {value} outside [-1, 1]")
    fields = [report.spatial_ari, report.temporal_ari, report.slot_overlap_slow,
              report.slot_overlap_fast, report.mask_entropy_slow, report.mask_entropy_fast,
              report.probe_acc, *report.probe_acc_per_task.values()]
    if not all(v is not None and math.isfinite(v) for v in fields):
        problems.append("a report field is missing or not finite")
    return problems


def _check_eval(rep: Rep, rc, reports) -> None:
    good = [r for r in reports if r is not None]
    for report in good:
        problems = _report_problems(report, rc.connector.n_tokens)
        if problems:
            rep.errors.extend(problems)
            rep.failed += 1
    if good and not rep.errors:
        rep.quality = float(np.mean([(r.spatial_ari + r.temporal_ari) / 2.0 for r in good]))


def _check_quality(wl: Workload, reps: list, reference: float | None) -> None:
    """Every rep repeats the first bit-for-bit and matches the seed's reference."""
    first = reps[0].quality
    for rep in reps:
        problems = []
        if rep.quality != first:
            problems.append(f"{wl.quality} {rep.quality!r} differs from the first rep's {first!r}")
        if reference is not None:
            if wl.quality == "final_loss":
                ok = abs(rep.quality - reference) <= LOSS_RTOL * abs(reference)
            else:
                ok = abs(rep.quality - reference) <= ARI_ATOL
            if not ok:
                problems.append(f"{wl.quality} {rep.quality!r} is off the reference {reference!r}")
        if problems:
            rep.errors.extend(problems)
            rep.failed = rep.attempted


def run_rep(wl: Workload, seed: int, size: Size, workdir: str, traced: bool, tracer: Tracer | None):
    """One rep, then its output checks run with every wrapper removed."""
    if wl.kind == "train":
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
    if traced:
        with tracer:
            tracer.phase = "setup"
            rep, rc, out = (_train_rep if wl.kind == "train" else _eval_rep)(wl, seed, size, workdir, tracer)
    else:
        rep, rc, out = (_train_rep if wl.kind == "train" else _eval_rep)(wl, seed, size, workdir, None)
    if wl.kind == "train":
        _check_train(rep, rc, out, workdir)
    else:
        _check_eval(rep, rc, out)
    return rep


# -- the measured loop ---------------------------------------------------------------------


def load_reference(seed: int, workload: str) -> float | None:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        seeds = json.load(fh)["seeds"]
    return seeds.get(str(seed), {}).get(workload)


def _p(samples: list, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: str,
            size: Size = FULL, reference: float | None = None) -> dict:
    """Run reps until ``seconds`` are spent and the sample floor is met; return the result."""
    wl = WORKLOADS[name]
    tracer = Tracer(wl.branch) if trace else None
    modes = (False, True) if trace else (False,)
    min_reps = size.min_trace_reps if trace else size.min_reps
    min_samples = 1 if trace else size.min_samples
    reps = []
    start = time.perf_counter()
    try:
        while True:
            traced = modes[len(reps) % len(modes)]
            began = time.perf_counter()
            reps.append(run_rep(wl, seed, size, workdir, traced, tracer))
            rep_s = time.perf_counter() - began
            elapsed = time.perf_counter() - start
            done = all(
                sum(r.traced == m for r in reps) >= min_reps
                and sum(len(r.steps) for r in reps if r.traced == m) >= min_samples
                for m in modes
            )
            failing = any(r.errors for r in reps)  # floors a failing program never meets
            if (done or failing) and elapsed + rep_s > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    good = [r for r in reps if not r.errors]
    if good:
        _check_quality(wl, good, reference)
    return _summarize(wl, reps, tracer)


def _summarize(wl: Workload, reps: list, tracer: Tracer | None) -> dict:
    plain = [r for r in reps if not r.traced]
    samples = [s for r in plain for s in r.steps]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    errors = [e for r in reps for e in r.errors]
    summary = {
        "workload": wl.name,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "reps": [{"traced": r.traced, "setup_s": r.setup_s, "ops": len(r.steps),
                  "timed_s": r.timed_s, wl.quality: r.quality, "failed": r.failed,
                  "step_s": r.steps} for r in reps],
        "samples": len(samples),
    }
    if not samples:
        summary["metrics"] = {}
        summary["correct"] = False
        return summary
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in plain if math.isfinite(r.setup_s)),
        "step_p50_s": _p(samples, 50),
        "step_p90_s": _p(samples, 90),
        "clips_per_s": sum(r.clips for r in plain) / sum(r.timed_s for r in plain),
        "peak_rss_mb": peak_rss_mb(),
        wl.quality: plain[0].quality,
    }
    summary["end_to_end"] = metrics
    correct = failed == 0
    if tracer is not None:
        traced = [r for r in reps if r.traced]
        traced_samples = [s for r in traced for s in r.steps]
        layer = tracer.layer_metrics(len(traced_samples), sum(traced_samples), len(traced))
        layer["trace.overhead_ratio"] = _p(traced_samples, 50) / metrics["step_p50_s"] - 1.0
        coverage = tracer.coverage_errors(wl.timed_spans, wl.setup_spans, wl.hit_ratio, layer)
        summary["coverage_errors"] = coverage
        summary["trace_samples"] = len(traced_samples)
        correct = correct and not coverage
        metrics = layer
    summary["metrics"] = metrics
    summary["correct"] = correct
    return summary


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
