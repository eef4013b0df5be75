"""Three-stage training recipe plus baseline training and held-out evaluation.

Stage 1 pretrains one branch's slot attention by reconstructing its own
inputs with a transformer decoder. Stage 2 loads those weights and tunes the
branch, its projections and a linear probe on synthetic classification tasks.
Stage 3 loads both tuned branches and tunes them jointly. Baselines train
under the identical probe protocol. Every run is a pure function of its
config and seed, so checkpoints are bit-reproducible.

Every trainer runs the one step loop ``_train`` and supplies only its
per-step loss. The loop owns resume, the lr schedule, the divergence error,
the log and the final checkpoint. Each step updates the stage's trainable
group (``trainable_names``) with exactly one ``adam_update`` call, and any
other tensor that moves during the stage is a ``TrainingError``.

Every connector kind runs through one dispatch, ``forward_masks``. The slot
connector and the query-transformer wrapper share the two-branch frame of
``connector`` and differ only in their aggregator; both read the batch's
branch views, the pooling connector its pooling view (``view_names``), and
the two-branch connectors return their masks as plain arrays [B, groups,
tokens, slots], which the metrics read directly. A training step gathers its
views from the training stream's blocks (``_stream``); evaluation and mask
rendering derive them from fresh clips (``connector.stack_views``), through
the same ``connector.clip_views``.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import engine
from .baselines import PoolingParams, WrapParams, pooling_connector_batch, slowfast_wrap
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig, StageConfig, config_hash
from .connector import (
    ConnectorParams,
    branch_views,
    clip_views,
    connect_batch,
    pooled_series,
    stack_views,
    uniform_sample_frames,
    view_shape,
)
from .decoder import DecoderParams, decode_batch, recon_loss
from .engine import AdamState, Value, adam_update, backward, clip_global_norm, zero_grads
from .metrics import DecouplingReport, ari, hard_assign, mask_entropy, slot_overlap
from .slot_attention import forward_batch
from .synthetic import TASKS, SceneStream, probe_class_counts

# not called here: the benchmark tracer requires these traced names to be bound
# in this module too, so that its wrappers provably see every call
from .connector import fast_branch_batch, slow_branch_batch  # noqa: F401


class TrainingError(Exception):
    """Divergence, missing checkpoints or stage misuse."""


_KIND_CODES = {"slot": 0.0, "pooling": 1.0, "query_transformer": 2.0}


def cosine_lr(step: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Half-cosine decay from lr_max at step 0 to lr_min at step == total."""
    if total <= 0:
        raise TrainingError("schedule needs a positive total step count")
    if step < 0 or step > total:
        raise TrainingError(f"step {step} outside [0, {total}]")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * step / total))


def _lr_at(stage: StageConfig, step: int) -> float:
    if stage.schedule == "constant":
        return stage.lr_max
    return cosine_lr(step, stage.steps, stage.lr_max, stage.lr_min)


# -- probe head ---------------------------------------------------------------------


@dataclass
class ProbeParams:
    """One zero-initialized affine head per task over the mean-pooled tokens."""

    heads: dict

    @classmethod
    def create(cls, d_in: int, class_counts: dict) -> "ProbeParams":
        heads = {}
        for task in TASKS:
            heads[task] = (engine.zeros_param((d_in, class_counts[task])), engine.zeros_param(class_counts[task]))
        return cls(heads)

    def logits(self, pooled: Value, task: str) -> Value:
        w, b = self.heads[task]
        return engine.linear(pooled, w, b)

    def named(self) -> dict:
        out = {}
        for task, (w, b) in self.heads.items():
            out[f"probe.{task}.w"] = w
            out[f"probe.{task}.b"] = b
        return out


# -- model containers ----------------------------------------------------------------


@dataclass
class Model:
    kind: str  # "slot" | "pooling" | "query_transformer"
    rc: RunConfig
    conn: object  # ConnectorParams | PoolingParams | WrapParams
    dec_slow: DecoderParams | None
    dec_fast: DecoderParams | None
    probe: ProbeParams

    def named(self) -> dict:
        out = {}
        out.update(self.conn.named())
        if self.dec_slow is not None:
            out.update(self.dec_slow.named("dec_slow"))
        if self.dec_fast is not None:
            out.update(self.dec_fast.named("dec_fast"))
        out.update(self.probe.named())
        return out


def build_model(rc: RunConfig) -> Model:
    """Initialize all parameters from the run seed (creation order is fixed)."""
    cfg = rc.connector
    rng = engine.rng_for(rc.seed, "init")
    dec_slow = dec_fast = None
    if rc.connector_kind == "slot":
        conn = ConnectorParams.create(rng, cfg)
        dec_slow = DecoderParams.create(rng, cfg.grid_h * cfg.grid_w, cfg.slot_dim, cfg.feat_dim)
        dec_fast = DecoderParams.create(rng, cfg.frames, cfg.slot_dim, cfg.feat_dim)
    elif rc.connector_kind == "pooling":
        conn = PoolingParams.create(rng, cfg)
    elif rc.connector_kind == "query_transformer":
        conn = WrapParams.create(rng, cfg)
    else:
        raise TrainingError(f"unknown connector kind {rc.connector_kind!r}")
    probe = ProbeParams.create(cfg.out_dim, probe_class_counts(rc.data.ranges))
    return Model(rc.connector_kind, rc, conn, dec_slow, dec_fast, probe)


# each slot branch's group in stages 2 and 3: its slot attention, positional
# table and projection, which stage 3 takes from that branch's stage-2
# checkpoint; both stages also tune the shared projection and the probe
_BRANCH_GROUPS = {"slow": ("slow.", "slow_pos", "s_proj."), "fast": ("fast.", "fast_pos", "f_proj.")}
_SHARED_GROUP = ("proj.", "probe.")


def trainable_names(model: Model, stage: StageConfig) -> list[str]:
    """Stage-dependent trainable parameter group; everything else stays frozen."""
    names = list(model.named().keys())
    if model.kind != "slot":
        return names  # baselines: aggregator + projection + probe under one budget
    if stage.stage == 1 and stage.branch in _BRANCH_GROUPS:
        keep = (f"{stage.branch}.", f"dec_{stage.branch}.")
    elif stage.stage == 2 and stage.branch in _BRANCH_GROUPS:
        keep = _BRANCH_GROUPS[stage.branch] + _SHARED_GROUP
    elif stage.stage == 3:
        keep = _BRANCH_GROUPS["slow"] + _BRANCH_GROUPS["fast"] + _SHARED_GROUP
    else:
        raise TrainingError(f"unsupported stage/branch combination {stage.stage}/{stage.branch}")
    return [n for n in names if n.startswith(keep)]


# -- checkpoint plumbing ----------------------------------------------------------------


def model_state(model: Model, adam: AdamState | None = None, step: int = 0, stage: int = 0) -> dict:
    tensors = {name: v.data for name, v in model.named().items()}
    tensors["meta.step"] = np.float32(step)
    tensors["meta.stage"] = np.float32(stage)
    tensors["meta.connector"] = np.float32(_KIND_CODES[model.kind])
    if adam is not None:
        tensors["meta.adam_t"] = np.float32(adam.t)
        for name in sorted(adam.m):
            tensors[f"adam.m.{name}"] = adam.m[name]
            tensors[f"adam.v.{name}"] = adam.v[name]
    return tensors


def save_model(path: str, model: Model, adam: AdamState | None, step: int, stage: int) -> None:
    save_checkpoint(model_state(model, adam, step, stage), path)


def _meta_scalar(tensors: dict, key: str, default: float) -> float:
    if key not in tensors:
        return default
    arr = np.asarray(tensors[key])
    if arr.size != 1 or not np.isfinite(arr).all():
        raise CheckpointError(f"checkpoint metadata {key!r} must be one finite number, got shape {arr.shape}")
    return float(arr.reshape(-1)[0])


def _meta_count(tensors: dict, key: str) -> int:
    """A counter of the checkpoint's metadata, 0 when absent: a whole number >= 0."""
    value = _meta_scalar(tensors, key, 0.0)
    if value < 0.0 or not value.is_integer():
        raise CheckpointError(f"checkpoint metadata {key!r} must be a whole number >= 0, got {value:g}")
    return int(value)


def load_model_tensors(model: Model, tensors: dict, prefixes: tuple = ("",)) -> None:
    """Strict load of every model tensor whose name starts with one of ``prefixes``
    (all of them by default): each must be present with its shape."""
    kind_code = _meta_scalar(tensors, "meta.connector", -1.0)
    if kind_code >= 0.0 and kind_code != _KIND_CODES[model.kind]:
        raise CheckpointError("checkpoint was written by a different connector kind")
    # older checkpoints name their MLP nonlinearity; 0 is the one MLP form there is
    if _meta_scalar(tensors, "meta.nonlinearity", 0.0) != 0.0:
        raise CheckpointError("checkpoint was written with an MLP nonlinearity other than the ramp")
    for name, val in model.named().items():
        if not name.startswith(prefixes):
            continue
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(val.data.shape):
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape} vs model {val.data.shape}"
            )
        val.data = np.ascontiguousarray(arr, dtype=np.float32).copy()


def _load_adam(tensors: dict, state: AdamState, trainable: list) -> None:
    if "meta.adam_t" not in tensors:
        return
    state.t = _meta_count(tensors, "meta.adam_t")
    for name in trainable:
        mk, vk = f"adam.m.{name}", f"adam.v.{name}"
        if mk in tensors:
            if vk not in tensors:
                raise CheckpointError(f"checkpoint has {mk!r} but is missing {vk!r}")
            state.m[name] = np.ascontiguousarray(tensors[mk], dtype=np.float32).copy()
            state.v[name] = np.ascontiguousarray(tensors[vk], dtype=np.float32).copy()


# -- data plumbing ----------------------------------------------------------------


def _stream(rc: RunConfig, tag: str, views: tuple | None = None) -> SceneStream:
    """The scenes of ``tag``.

    Only the training loop revisits scenes: it cycles through the
    ``n_train_scenes`` indices. Its stream is given ``views``, the names of
    the views its steps read, and keeps those views of each scene in
    scene-major blocks, and its probe labels, but no grid or label map
    (``SceneStream``). Without ``views`` the stream renders each scene
    afresh, for evaluation, viz and gen-data, which read each scene once.
    """
    cfg = rc.connector
    cache, derive = 0, None
    if views is not None:
        # cap the view blocks at ~512 MB of float32
        bytes_per = sum(4 * math.prod(view_shape(cfg, name)) for name in views)
        cache = min(rc.data.n_train_scenes, (512 << 20) // bytes_per)
        derive = functools.partial(clip_views, cfg=cfg, names=views)
    return SceneStream(
        seed=rc.seed,
        t=cfg.frames,
        h=cfg.grid_h,
        w=cfg.grid_w,
        d=cfg.feat_dim,
        pool_stride=cfg.pool_stride,
        ranges=rc.data.ranges,
        tag=tag,
        cache_entries=cache,
        views=derive,
    )


def _labels(probes) -> dict:
    """Probe labels per task of a batch of scenes' ``SceneTruth.probe``."""
    return {task: np.asarray([probe[task] for probe in probes], dtype=np.intp) for task in TASKS}


class _Batch(NamedTuple):
    """One training step's scenes, as records of the training stream, and their probe labels."""

    stream: SceneStream
    scenes: list
    labels: dict

    def view(self, name: str, picks=None) -> np.ndarray:
        """The batch's view ``name`` [B, ...], or its rows ``picks`` [B, p, ...] (``SceneStream.gather``)."""
        return self.stream.gather(self.scenes, name, picks)


def _batch(stream: SceneStream, indices) -> _Batch:
    scenes = [stream.scene(i) for i in indices]
    return _Batch(stream, scenes, _labels([scene.probe for scene in scenes]))


def majority_accuracy(labels: dict) -> float:
    """Mean over tasks of the best constant-guess accuracy."""
    accs = []
    for task in TASKS:
        vals = np.asarray(labels[task])
        accs.append(np.bincount(vals).max() / len(vals))
    return float(np.mean(accs))


# -- forward paths ----------------------------------------------------------------


def view_names(model: Model, branch: str) -> tuple:
    """The names of the views the model's connector reads for ``branch``."""
    return ("pooling",) if model.kind == "pooling" else branch_views(branch)


def forward_masks(model: Model, views: dict, branch: str):
    """(tokens [B, N, D_out], slow_masks, fast_masks) of the model's connector
    over a batch's views, by name (``view_names``).

    The one forward of probe training, evaluation and mask rendering. The
    two-branch connectors read the views of ``branch``; the pooling
    connector reads its pooling view. Masks are plain arrays [B, groups, M,
    N]; they are None for a branch that did not run and for the pooling
    connector.
    """
    if model.kind == "pooling":
        return pooling_connector_batch(Value(views["pooling"]), model.conn), None, None
    forward = connect_batch if model.kind == "slot" else slowfast_wrap
    return forward(views, model.rc.connector, model.conn, branch)


# -- training ----------------------------------------------------------------


def _train(rc: RunConfig, model: Model, stage_no: int, out_dir: str | None, resume: str | None,
           views: tuple, step_loss: Callable[[int, _Batch], tuple[Value, dict]]) -> dict:
    """The one step loop of every trainer.

    ``step_loss(step, batch)`` builds the step's scalar loss from the
    ``_Batch``, which holds the views named in ``views``, and returns it with
    the extra fields of the step's log record. Each step zeroes,
    back-propagates and clips the gradients of the stage's trainable group,
    then makes exactly one
    ``adam_update`` call; every other tensor must end the stage bit-identical.
    """
    stage = rc.stage
    named = model.named()
    train_names = trainable_names(model, stage)
    train = {n: named[n] for n in train_names}
    adam = AdamState(lr=stage.lr_max)
    start = 0
    if resume is not None:
        tensors = load_checkpoint(resume)
        load_model_tensors(model, tensors)
        _load_adam(tensors, adam, train_names)
        start = _meta_count(tensors, "meta.step")
        if start > stage.steps:
            raise CheckpointError(f"checkpoint is at step {start}, past the stage's {stage.steps} steps")
    frozen = {n: v.data.copy() for n, v in named.items() if n not in train}
    # the probe head may learn at its own rate: it stands in for the frozen
    # LLM reader, which is not part of the connector's tuning recipe
    lr_overrides = (
        None if stage.head_lr is None
        else {n: stage.head_lr for n in train_names if n.startswith("probe.")}
    )

    stream = _stream(rc, "train", views)
    records = []
    for step in range(start, stage.steps):
        indices = [(step * stage.batch_size + j) % rc.data.n_train_scenes
                   for j in range(stage.batch_size)]
        lr = _lr_at(stage, step)
        try:
            loss, fields = step_loss(step, _batch(stream, indices))
            zero_grads(train)
            backward(loss)
            clip_global_norm(train, stage.grad_clip)
            adam_update(train, adam, lr=lr, lr_overrides=lr_overrides)
        except engine.NonFiniteError as exc:
            raise TrainingError(f"training diverged at step {step}: {exc}") from exc
        if step % stage.log_every == 0 or step == stage.steps - 1:
            records.append({"step": step, "lr": lr, "loss": float(loss.item()), **fields})
    for name, before in frozen.items():
        if not np.array_equal(before, named[name].data):
            raise TrainingError(f"frozen parameter {name!r} moved during stage {stage_no}")

    ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        # a resumed run's records start at the resume step: keep the earlier ones
        mode = "w" if resume is None else "a"
        with open(os.path.join(out_dir, "train-log.txt"), mode, encoding="ascii") as fh:
            for rec in records:
                fh.write(" ".join(f"{k}={v:.8g}" if isinstance(v, float) else f"{k}={v}"
                                  for k, v in rec.items()) + "\n")
        ckpt_path = os.path.join(out_dir, "checkpoint.sfsl")
        save_model(ckpt_path, model, adam, stage.steps, stage_no)
    return {"checkpoint": ckpt_path, "records": records, "model": model}


def _probe_step(model: Model, branch: str):
    """Step loss of the probe protocol: the mean over tasks of each head's
    cross-entropy on the mean-pooled tokens, logged with the mean accuracy."""
    names = view_names(model, branch)

    def step_loss(step, batch):
        tokens, _, _ = forward_masks(model, {name: batch.view(name) for name in names}, branch)
        pooled = tokens.mean(axis=1)
        losses, accs = [], []
        for task in TASKS:
            logits = model.probe.logits(pooled, task)
            losses.append(engine.cross_entropy(logits, batch.labels[task]))
            accs.append(float((np.argmax(logits.data, axis=1) == batch.labels[task]).mean()))
        total = losses[0]
        for extra in losses[1:]:
            total = engine.add(total, extra)
        return engine.scale(total, 1.0 / len(losses)), {"acc": float(np.mean(accs))}

    return step_loss


def _require_stage(rc: RunConfig, stage_no: int) -> None:
    """Each runner trains its own stage's group: ``trainable_names`` keys off ``stage.stage``."""
    if rc.connector_kind != "slot":
        raise TrainingError(f"stage {stage_no} applies to the slot connector")
    if rc.stage.stage != stage_no:
        raise TrainingError(f"stage.stage is {rc.stage.stage}, but this runner trains stage {stage_no}")


def run_stage1(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Feature-reconstruction pretraining of one branch's slot attention."""
    _require_stage(rc, 1)
    stage = rc.stage
    if stage.branch not in ("slow", "fast"):
        raise TrainingError("stage 1 trains one branch: set stage.branch to slow or fast")
    cfg = rc.connector
    model = build_model(rc)
    # each scene gives some of its sampled frames (slow) or pooled positions (fast)
    if stage.branch == "slow":
        groups, per_scene, sa, dec = cfg.slow_frames, stage.frames_per_scene, model.conn.slow, model.dec_slow
    else:
        groups, per_scene, sa, dec = cfg.n_positions, stage.positions_per_scene, model.conn.fast, model.dec_fast

    def step_loss(step, batch):
        pick = engine.rng_for(rc.seed, "stage1", stage.branch, step)
        picks = np.stack([np.sort(pick.choice(groups, size=per_scene, replace=False)) for _ in batch.scenes])
        view = batch.view(stage.branch, picks)  # [B, p, H*W, D] frames or [B, p, T, D] series
        if stage.branch == "slow":
            inputs_np = view.reshape(-1, cfg.grid_h * cfg.grid_w, cfg.feat_dim)
        else:
            with engine.no_grad():
                inputs_np = pooled_series(Value(view), cfg, model.conn.fast_pos).data  # [B*p, T, D]
        inputs = Value(inputs_np)
        slots, _ = forward_batch(inputs, sa)
        return recon_loss(decode_batch(slots, dec), inputs), {}

    return _train(rc, model, 1, out_dir, resume, (stage.branch,), step_loss)


def run_stage2(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Single-branch probe tuning, warm-started from a stage-1 checkpoint."""
    _require_stage(rc, 2)
    stage = rc.stage
    if stage.branch not in ("slow", "fast"):
        raise TrainingError("stage 2 tunes one branch: set stage.branch to slow or fast")
    model = build_model(rc)
    if resume is None:
        if stage.init_checkpoint is None:
            raise TrainingError("stage 2 needs stage.init_checkpoint (a stage-1 checkpoint)")
        load_model_tensors(model, load_checkpoint(stage.init_checkpoint))
    return _train(rc, model, 2, out_dir, resume, view_names(model, stage.branch), _probe_step(model, stage.branch))


def run_stage3(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Joint two-branch tuning from the two stage-2 checkpoints."""
    _require_stage(rc, 3)
    stage = rc.stage
    model = build_model(rc)
    if resume is None:
        if stage.init_slow_checkpoint is None or stage.init_fast_checkpoint is None:
            raise TrainingError("stage 3 needs init_slow_checkpoint and init_fast_checkpoint")
        # each branch comes from its own stage-2 run; the shared projection and
        # probe exist in both, and the slow-branch checkpoint is the designated donor
        load_model_tensors(model, load_checkpoint(stage.init_slow_checkpoint),
                           _BRANCH_GROUPS["slow"] + ("dec_slow.",) + _SHARED_GROUP)
        load_model_tensors(model, load_checkpoint(stage.init_fast_checkpoint),
                           _BRANCH_GROUPS["fast"] + ("dec_fast.",))
    return _train(rc, model, 3, out_dir, resume, view_names(model, "both"), _probe_step(model, "both"))


def run_baseline(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Train a comparator connector under the identical probe protocol."""
    if rc.connector_kind == "slot":
        raise TrainingError("run_baseline expects connector.type pooling or query_transformer")
    branch = rc.stage.branch if rc.connector_kind == "query_transformer" else "both"
    model = build_model(rc)
    if resume is None and rc.stage.init_checkpoint is not None:
        load_model_tensors(model, load_checkpoint(rc.stage.init_checkpoint))
    return _train(rc, model, rc.stage.stage, out_dir, resume, view_names(model, branch), _probe_step(model, branch))


# -- evaluation ----------------------------------------------------------------


def _connector_label(rc: RunConfig, branch: str) -> str:
    if branch == "both":
        return rc.connector_kind
    return f"{rc.connector_kind}-{branch}"


def evaluate_model(rc: RunConfig, model: Model, n_scenes: int | None = None,
                   tag: str = "heldout") -> DecouplingReport:
    """Decoupling metrics and probe accuracy over a held-out scene stream."""
    cfg = rc.connector
    branch = "both" if rc.connector_kind == "pooling" else rc.stage.branch
    stream = _stream(rc, tag)
    names = view_names(model, branch)
    n = rc.data.n_heldout_scenes if n_scenes is None else n_scenes
    if n < 1:
        raise TrainingError(f"evaluation needs at least one scene, got {n}")
    frame_idx = uniform_sample_frames(cfg.frames, cfg.slow_frames)

    # each branch's masks are scored against its own ground truth: the object
    # map of each sampled frame (slow) or the event segments of each pooled
    # position (fast)
    truth_of = {
        "slow": lambda truth, i: truth.object_labels[frame_idx[i]].reshape(-1),
        "fast": lambda truth, k: truth.segment_labels[k],
    }
    scores = {br: {"ari": [], "overlap": [], "entropy": []} for br in truth_of}
    task_hits = {task: 0 for task in TASKS}
    n_tokens = None

    chunk = 8
    for lo in range(0, n, chunk):
        scenes = [stream.scene(i) for i in range(lo, min(lo + chunk, n))]
        views = stack_views([video for _, video, _ in scenes], cfg, names)
        labels = _labels([truth.probe for _, _, truth in scenes])
        with engine.no_grad():
            tokens, slow_masks, fast_masks = forward_masks(model, views, branch)
            pooled = tokens.mean(axis=1)
            for task in TASKS:
                logits = model.probe.logits(pooled, task)
                task_hits[task] += int((np.argmax(logits.data, axis=1) == labels[task]).sum())
        n_tokens = tokens.data.shape[1]
        for br, masks in (("slow", slow_masks), ("fast", fast_masks)):
            if masks is None:
                continue
            score = scores[br]
            for (_, _, truth), set_masks in zip(scenes, masks):
                per_set_ari = []
                for i, mask in enumerate(set_masks):
                    per_set_ari.append(ari(hard_assign(mask), truth_of[br](truth, i)))
                    if mask.shape[1] >= 2:
                        score["overlap"].append(slot_overlap(mask))
                    score["entropy"].append(mask_entropy(mask))
                score["ari"].append(float(np.mean(per_set_ari)))

    def mean_opt(br, key):
        vals = scores[br][key]
        return float(np.mean(vals)) if vals else None

    per_task = {task: task_hits[task] / n for task in TASKS}
    return DecouplingReport(
        connector=_connector_label(rc, branch),
        seed=rc.seed,
        config_hash=config_hash(rc),
        n_tokens=int(n_tokens),
        scenes=n,
        spatial_ari=mean_opt("slow", "ari"),
        temporal_ari=mean_opt("fast", "ari"),
        slot_overlap_slow=mean_opt("slow", "overlap"),
        slot_overlap_fast=mean_opt("fast", "overlap"),
        mask_entropy_slow=mean_opt("slow", "entropy"),
        mask_entropy_fast=mean_opt("fast", "entropy"),
        probe_acc=float(np.mean(list(per_task.values()))),
        probe_acc_per_task=per_task,
    )


def evaluate_checkpoint(rc: RunConfig, ckpt_path: str, n_scenes: int | None = None) -> DecouplingReport:
    model = build_model(rc)
    load_model_tensors(model, load_checkpoint(ckpt_path))
    return evaluate_model(rc, model, n_scenes=n_scenes)
