"""Three-stage training recipe plus baseline training and held-out evaluation.

Stage 1 pretrains one branch's slot attention by reconstructing its raw
views with a transformer decoder; the fast branch also learns the frame
embedding its input adds. Stage 2 loads those weights and tunes the
branch, its projections and a linear probe on synthetic classification tasks.
Stage 3 loads both tuned branches and tunes them jointly. Baselines train
under the identical probe protocol. Every run is a pure function of its
config and seed, so checkpoints are bit-reproducible.

A run's stage, branch, views and connector kind are read from one place,
its config, the model's ``rc``. Each slot runner checks that the config
names its stage and a branch that stage trains (``_GROUPS``). Every trainer
runs the one step loop ``_train`` and supplies only its per-step loss. The
loop owns resume, which takes only a checkpoint of the run's stage, the lr
schedule, the divergence error, the log and the final checkpoint. Each step
updates the trainable group (``trainable_names``) with exactly one
``adam_update`` call, and any other tensor that moves during the stage is a
``TrainingError``.

Every connector kind runs through one dispatch, ``forward_masks``, over the
views of its run. ``view_names`` is the one place where the connector kind
and ``stage.branch`` become those views, and the views select the branches
that run. The slot connector and the query-transformer wrapper share the
two-branch frame of ``connector`` and differ only in their aggregator; both
read the batch's branch views, the pooling connector its pooling view, and
the two-branch connectors return their masks as plain arrays [B, groups,
tokens, slots], which the metrics score as stacks. Every run reads its
scenes from one ``SceneStream`` of its config. A training step stacks the
views the training stream keeps for its scenes (``_Batch``); evaluation and
mask rendering derive them from fresh clips (``connector.stack_views``),
through the same ``connector.clip_views``. Every probe loss and accuracy
reads the one readout, ``ProbeParams.logits``.
"""

from __future__ import annotations

import hashlib
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
    connect_batch,
    pooled_series,
    stack_views,
    uniform_sample_frames,
)
from .decoder import DecoderParams, decode_batch, recon_loss
from .engine import AdamState, Value, adam_update, backward, clip_global_norm, named_params, zero_grads
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
    """One zero-initialized affine head per task over the mean-pooled tokens: the probe readout."""

    heads: dict

    @classmethod
    def create(cls, d_in: int, class_counts: dict) -> "ProbeParams":
        heads = {}
        for task in TASKS:
            heads[task] = (engine.zeros_param((d_in, class_counts[task])), engine.zeros_param(class_counts[task]))
        return cls(heads)

    def logits(self, tokens: Value) -> dict:
        """Each task's logits [B, classes] from the tokens [B, N, D], by task."""
        pooled = engine.vmean(tokens, axis=1)
        return {task: engine.linear(pooled, w, b) for task, (w, b) in self.heads.items()}

    def named(self) -> dict:
        out = {}
        for task, (w, b) in self.heads.items():
            out[f"probe.{task}.w"] = w
            out[f"probe.{task}.b"] = b
        return out


# -- model containers ----------------------------------------------------------------


@dataclass
class Model:
    rc: RunConfig  # the run config: the connector kind is its connector.type
    conn: object  # ConnectorParams | PoolingParams | WrapParams
    dec_slow: DecoderParams | None
    dec_fast: DecoderParams | None
    probe: ProbeParams

    def named(self) -> dict:
        """Every tensor by checkpoint name (``engine.named_params``): connector, decoders, probe."""
        out = named_params(self.conn)
        for prefix in ("dec_slow", "dec_fast"):
            if getattr(self, prefix) is not None:
                out.update(named_params(getattr(self, prefix), prefix))
        out.update(self.probe.named())
        return out


def build_model(rc: RunConfig) -> Model:
    """Initialize all parameters from the run seed (creation order is fixed)."""
    cfg = rc.connector
    rng = engine.rng_for(rc.seed, "init")
    dec_slow = dec_fast = None
    if cfg.type == "slot":
        conn = ConnectorParams.create(rng, cfg)
        dec_slow = DecoderParams.create(rng, cfg.grid_h * cfg.grid_w, cfg.slot_dim, cfg.feat_dim)
        dec_fast = DecoderParams.create(rng, cfg.frames, cfg.slot_dim, cfg.feat_dim)
    elif cfg.type == "pooling":
        conn = PoolingParams.create(rng, cfg)
    else:
        conn = WrapParams.create(rng, cfg)
    probe = ProbeParams.create(cfg.out_dim, probe_class_counts(rc.data.ranges))
    return Model(rc, conn, dec_slow, dec_fast, probe)


# each slot branch's group in stages 2 and 3: its slot attention, positional
# table and projection, which stage 3 takes from that branch's stage-2
# checkpoint; both stages also tune the shared projection and the probe
_BRANCH_GROUPS = {"slow": ("slow.", "slow_pos", "s_proj."), "fast": ("fast.", "fast_pos", "f_proj.")}
_SHARED_GROUP = ("proj.", "probe.")
# the slot connector's trainable group of each (stage, branch) a run may name:
# stage 1 trains a branch's slot attention and decoder, and the fast branch's
# frame embedding, which its slot attention reads; stage 3 tunes both branches
_GROUPS = {
    (1, "slow"): ("slow.", "dec_slow."),
    (1, "fast"): ("fast.", "fast_pos", "dec_fast."),
    (2, "slow"): _BRANCH_GROUPS["slow"] + _SHARED_GROUP,
    (2, "fast"): _BRANCH_GROUPS["fast"] + _SHARED_GROUP,
    (3, "both"): _BRANCH_GROUPS["slow"] + _BRANCH_GROUPS["fast"] + _SHARED_GROUP,
}


def trainable_names(model: Model) -> list[str]:
    """The trainable group of the model's run (``_GROUPS``); everything else stays frozen."""
    names, stage = list(model.named()), model.rc.stage
    if model.rc.connector.type != "slot":
        return names  # baselines: aggregator + projection + probe under one budget
    return [n for n in names if n.startswith(_GROUPS[stage.stage, stage.branch])]


# -- checkpoint plumbing ----------------------------------------------------------------


def model_state(model: Model, adam: AdamState | None = None, step: int = 0, stage: int = 0) -> dict:
    tensors = {name: v.data for name, v in model.named().items()}
    tensors["meta.step"] = np.float32(step)
    tensors["meta.stage"] = np.float32(stage)
    tensors["meta.connector"] = np.float32(_KIND_CODES[model.rc.connector.type])
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
    if arr.size != 1:
        raise CheckpointError(f"checkpoint metadata {key!r} must be one number, got shape {arr.shape}")
    return float(arr.reshape(-1)[0])


def _meta_count(tensors: dict, key: str) -> int:
    """A counter of the checkpoint's metadata, 0 when absent: a whole number >= 0."""
    value = _meta_scalar(tensors, key, 0.0)
    if value < 0.0 or not value.is_integer():
        raise CheckpointError(f"checkpoint metadata {key!r} must be a whole number >= 0, got {value:g}")
    return int(value)


def load_model_tensors(model: Model, tensors: dict, prefixes: tuple = ("",)) -> None:
    """Strict load of every model tensor whose name starts with one of ``prefixes``
    (all of them by default): each must be present with its shape. Each is
    copied, so two models loaded from one checkpoint share no array."""
    kind_code = _meta_scalar(tensors, "meta.connector", -1.0)
    if kind_code >= 0.0 and kind_code != _KIND_CODES[model.rc.connector.type]:
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
        val.data = np.array(arr, dtype=np.float32, order="C")


def _load_adam(tensors: dict, state: AdamState, trainable: list) -> None:
    if "meta.adam_t" not in tensors:
        if any(name.startswith("adam.") for name in tensors):
            raise CheckpointError("checkpoint has Adam moments but is missing 'meta.adam_t'")
        return
    state.t = _meta_count(tensors, "meta.adam_t")
    for name in trainable:
        mk, vk = f"adam.m.{name}", f"adam.v.{name}"
        if (mk in tensors) != (vk in tensors):
            have, missing = (mk, vk) if mk in tensors else (vk, mk)
            raise CheckpointError(f"checkpoint has {have!r} but is missing {missing!r}")
        if mk in tensors:
            state.m[name] = np.array(tensors[mk], dtype=np.float32, order="C")
            state.v[name] = np.array(tensors[vk], dtype=np.float32, order="C")


# -- data plumbing ----------------------------------------------------------------


def _labels(probes) -> dict:
    """Probe labels per task of a batch of scenes' ``SceneTruth.probe``."""
    return {task: np.asarray([probe[task] for probe in probes], dtype=np.intp) for task in TASKS}


class _Batch(NamedTuple):
    """One training step's scenes, as ``SceneViews`` of the training stream, and their probe labels."""

    scenes: list
    labels: dict

    def view(self, name: str, picks=None) -> np.ndarray:
        """The scenes' views ``name`` stacked [B, ...], or each scene's rows ``picks[b]`` [B, p, ...]."""
        views = [scene.views[name] for scene in self.scenes]
        if picks is not None:
            views = [view[pick] for view, pick in zip(views, picks)]
        return np.stack(views)


def _batch(stream: SceneStream, indices) -> _Batch:
    scenes = [stream.scene(i) for i in indices]
    return _Batch(scenes, _labels([scene.probe for scene in scenes]))


def majority_accuracy(labels: dict) -> float:
    """Mean over tasks of the best constant-guess accuracy."""
    accs = []
    for task in TASKS:
        vals = np.asarray(labels[task])
        accs.append(np.bincount(vals).max() / len(vals))
    return float(np.mean(accs))


# -- forward paths ----------------------------------------------------------------


def view_names(rc: RunConfig) -> tuple:
    """The names of the views the run's connector reads, slow first: the
    pooling view, or the views of ``stage.branch``, which select the branches
    that run. The one place where a run's config becomes a branch selection."""
    if rc.connector.type == "pooling":
        return ("pooling",)
    return ("slow", "fast") if rc.stage.branch == "both" else (rc.stage.branch,)


def forward_masks(model: Model, views: dict):
    """(tokens [B, N, D_out], slow_masks, fast_masks) of the model's connector
    over a batch's views, by name (``view_names``).

    The one forward of probe training, evaluation and mask rendering. The
    two-branch connectors run the branches whose views ``views`` holds; the
    pooling connector reads its pooling view. Masks are plain arrays [B,
    groups, M, N]; they are None for a branch that did not run and for the
    pooling connector.
    """
    if model.rc.connector.type == "pooling":
        return pooling_connector_batch(Value(views["pooling"]), model.conn), None, None
    forward = connect_batch if model.rc.connector.type == "slot" else slowfast_wrap
    return forward(views, model.rc.connector, model.conn)


# -- training ----------------------------------------------------------------


def _fingerprint(arr: np.ndarray) -> tuple:
    """A tensor's shape and the blake2b digest of its bytes, which changes whenever a bit of it does."""
    return arr.shape, hashlib.blake2b(np.ascontiguousarray(arr)).digest()


def _train(model: Model, out_dir: str | None, resume: str | None,
           step_loss: Callable[[int, _Batch], tuple[Value, dict]]) -> dict:
    """The one step loop of every trainer, which reads its run from the config ``model.rc``.

    The stage, its trainable group (``trainable_names``) and the views of
    the training stream (``view_names``) all come from that config.
    ``step_loss(step, batch)`` builds the step's scalar loss from the
    ``_Batch`` and returns it with the extra fields of the step's log record.
    A ``resume`` checkpoint must carry the run's stage in ``meta.stage``, when
    it has one. Each step zeroes, back-propagates and clips the gradients of
    the trainable group, then makes exactly one ``adam_update`` call; every
    other tensor must end the stage bit-identical.
    """
    rc, stage = model.rc, model.rc.stage
    named = model.named()
    train_names = trainable_names(model)
    train = {n: named[n] for n in train_names}
    adam = AdamState()
    start = 0
    if resume is not None:
        tensors = load_checkpoint(resume)
        written = _meta_scalar(tensors, "meta.stage", stage.stage)
        if written != stage.stage:
            raise CheckpointError(f"checkpoint was written by stage {written:g}, "
                                  f"but this run trains stage {stage.stage}")
        load_model_tensors(model, tensors)
        _load_adam(tensors, adam, train_names)
        start = _meta_count(tensors, "meta.step")
        del tensors  # the model and Adam hold copies: the dict need not live through the stage
        if start > stage.steps:
            raise CheckpointError(f"checkpoint is at step {start}, past the stage's {stage.steps} steps")
    frozen = {n: _fingerprint(v.data) for n, v in named.items() if n not in train}
    # the probe head may learn at its own rate: it stands in for the frozen
    # LLM reader, which is not part of the connector's tuning recipe
    lr_overrides = (
        None if stage.head_lr is None
        else {n: stage.head_lr for n in train_names if n.startswith("probe.")}
    )

    stream = SceneStream(rc, "train", view_names(rc))
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
        if before != _fingerprint(named[name].data):
            raise TrainingError(f"frozen parameter {name!r} moved during stage {stage.stage}")

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
        save_model(ckpt_path, model, adam, stage.steps, stage.stage)
    return {"checkpoint": ckpt_path, "records": records, "model": model}


def _probe_step(model: Model):
    """Step loss of the probe protocol over the views of the model's run: the mean
    over tasks of each head's cross-entropy on the mean-pooled tokens, logged with the mean accuracy."""
    names = view_names(model.rc)

    def step_loss(step, batch):
        tokens, _, _ = forward_masks(model, {name: batch.view(name) for name in names})
        logits = model.probe.logits(tokens)
        losses = [engine.cross_entropy(logits[task], batch.labels[task]) for task in TASKS]
        accs = [float((np.argmax(logits[task].data, axis=1) == batch.labels[task]).mean()) for task in TASKS]
        total = losses[0]
        for extra in losses[1:]:
            total = engine.add(total, extra)
        return engine.scale(total, 1.0 / len(losses)), {"acc": float(np.mean(accs))}

    return step_loss


def _require_stage(rc: RunConfig, stage_no: int) -> None:
    """Each runner trains its own stage, and the branch must be one that stage trains (``_GROUPS``)."""
    stage = rc.stage
    if rc.connector.type != "slot":
        raise TrainingError(f"stage {stage_no} applies to the slot connector")
    if stage.stage != stage_no:
        raise TrainingError(f"stage.stage is {stage.stage}, but this runner trains stage {stage_no}")
    if (stage_no, stage.branch) not in _GROUPS:
        branches = " or ".join(branch for no, branch in _GROUPS if no == stage_no)
        raise TrainingError(f"stage {stage_no} trains stage.branch {branches}, not {stage.branch}")


def run_stage1(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Feature-reconstruction pretraining of one branch's slot attention."""
    _require_stage(rc, 1)
    stage, cfg = rc.stage, rc.connector
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
        target = Value(view.reshape((-1,) + view.shape[2:]))  # the raw frames or series [B*p, M, D]
        # the fast input adds the frame embedding with its gradient; the target stays raw
        inputs = target if stage.branch == "slow" else pooled_series(Value(view), cfg, model.conn.fast_pos)
        slots, _ = forward_batch(inputs, sa)
        return recon_loss(decode_batch(slots, dec), target), {}

    return _train(model, out_dir, resume, step_loss)


def run_stage2(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Single-branch probe tuning, warm-started from a stage-1 checkpoint."""
    _require_stage(rc, 2)
    stage = rc.stage
    model = build_model(rc)
    if resume is None:
        if stage.init_checkpoint is None:
            raise TrainingError("stage 2 needs stage.init_checkpoint (a stage-1 checkpoint)")
        load_model_tensors(model, load_checkpoint(stage.init_checkpoint))
    return _train(model, out_dir, resume, _probe_step(model))


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
    return _train(model, out_dir, resume, _probe_step(model))


def run_baseline(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Train a comparator connector under the identical probe protocol."""
    if rc.connector.type == "slot":
        raise TrainingError("run_baseline expects connector.type pooling or query_transformer")
    model = build_model(rc)
    if resume is None and rc.stage.init_checkpoint is not None:
        load_model_tensors(model, load_checkpoint(rc.stage.init_checkpoint))
    return _train(model, out_dir, resume, _probe_step(model))


# -- evaluation ----------------------------------------------------------------


def _connector_label(rc: RunConfig) -> str:
    """The connector kind, suffixed with ``stage.branch`` when a two-branch
    connector runs one branch; the pooling connector reads both."""
    kind, branch = rc.connector.type, rc.stage.branch
    return kind if kind == "pooling" or branch == "both" else f"{kind}-{branch}"


def evaluate_model(rc: RunConfig, model: Model, n_scenes: int | None = None,
                   tag: str = "heldout") -> DecouplingReport:
    """Decoupling metrics and probe accuracy over a held-out scene stream; each
    metric scores one [sets, tokens, slots] stack per chunk of 8 scenes and branch."""
    cfg = rc.connector
    stream = SceneStream(rc, tag)
    names = view_names(rc)
    n = rc.data.n_heldout_scenes if n_scenes is None else n_scenes
    if n < 1:
        raise TrainingError(f"evaluation needs at least one scene, got {n}")
    frame_idx = uniform_sample_frames(cfg.frames, cfg.slow_frames)

    # each set's mask is scored against its own truth: the object map of its
    # sampled frame (slow) or the event segments of its pooled position (fast)
    truth_of = {
        "slow": lambda truth: truth.object_labels[frame_idx].reshape(len(frame_idx), -1),
        "fast": lambda truth: truth.segment_labels,
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
            tokens, slow_masks, fast_masks = forward_masks(model, views)
            for task, logits in model.probe.logits(tokens).items():
                task_hits[task] += int((np.argmax(logits.data, axis=1) == labels[task]).sum())
        n_tokens = tokens.data.shape[1]
        for br, masks in (("slow", slow_masks), ("fast", fast_masks)):
            if masks is None:
                continue
            stack = masks.reshape(-1, *masks.shape[2:])  # [scenes·groups, tokens, slots]
            truth = np.concatenate([truth_of[br](scene_truth) for _, _, scene_truth in scenes])
            score = scores[br]
            score["ari"].append(ari(hard_assign(stack), truth).reshape(len(scenes), -1).mean(axis=1))
            if stack.shape[2] >= 2:
                score["overlap"].append(slot_overlap(stack))
            score["entropy"].append(mask_entropy(stack))

    def mean_opt(br, key):
        vals = scores[br][key]
        return float(np.mean(np.concatenate(vals))) if vals else None

    per_task = {task: task_hits[task] / n for task in TASKS}
    return DecouplingReport(
        connector=_connector_label(rc),
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


def evaluate_checkpoint(rc: RunConfig, ckpt_path: str) -> DecouplingReport:
    model = build_model(rc)
    load_model_tensors(model, load_checkpoint(ckpt_path))
    return evaluate_model(rc, model)
