"""Three-stage training recipe plus baseline training and held-out evaluation.

Stage 1 pretrains one branch's slot attention by reconstructing its own
inputs with a transformer decoder. Stage 2 loads those weights and tunes the
branch, its projections and a linear probe on synthetic classification tasks.
Stage 3 loads both tuned branches and tunes them jointly. Baselines train
under the identical probe protocol. Parameter groups outside the stage's
trainable set never move; every run is a pure function of its config and
seed, so checkpoints are bit-reproducible.

Every connector kind runs through one dispatch, ``_connect``. The slot
connector and the query-transformer wrapper share the two-branch frame of
``connector`` and differ only in their aggregator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import engine
from .baselines import (
    PoolingParams,
    WrapParams,
    pooling_connector_batch,
    slowfast_wrap,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig, StageConfig, config_hash
from .connector import ConnectorParams, connect_batch, pooled_series, uniform_sample_frames
from .decoder import DecoderParams, decode_batch, recon_loss
from .engine import AdamState, Value, adam_update, backward, clip_global_norm, zero_grads
from .metrics import DecouplingReport, ari, hard_assign, mask_entropy, slot_overlap
from .slot_attention import forward_batch
from .synthetic import TASKS, SceneStream, probe_class_counts, probe_labels

# not called here: the benchmark tracer requires these traced names to be bound
# in this module too, so that its wrappers provably see every call
from .connector import fast_branch_batch, slow_branch_batch  # noqa: F401


class TrainingError(Exception):
    """Divergence, missing checkpoints or stage misuse."""


_NONLIN_CODES = {"gelu-like": 0.0, "relu": 1.0, "tanh": 2.0}
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
            w = Value(np.zeros((d_in, class_counts[task]), dtype=np.float32), requires_grad=True)
            b = Value(np.zeros(class_counts[task], dtype=np.float32), requires_grad=True)
            heads[task] = (w, b)
        return cls(heads)

    def logits(self, pooled: Value, task: str) -> Value:
        w, b = self.heads[task]
        return engine.add(engine.matmul(pooled, w), b)

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
        dec_slow = DecoderParams.create(
            rng, cfg.grid_h * cfg.grid_w, cfg.slot_dim, cfg.feat_dim, nonlinearity=cfg.nonlinearity
        )
        dec_fast = DecoderParams.create(
            rng, cfg.frames, cfg.slot_dim, cfg.feat_dim, nonlinearity=cfg.nonlinearity
        )
    elif rc.connector_kind == "pooling":
        conn = PoolingParams.create(rng, cfg)
    elif rc.connector_kind == "query_transformer":
        conn = WrapParams.create(rng, cfg, n_layers=rc.qt_layers, n_heads=rc.qt_heads)
    else:
        raise TrainingError(f"unknown connector kind {rc.connector_kind!r}")
    probe = ProbeParams.create(cfg.out_dim, probe_class_counts(rc.data.ranges))
    return Model(rc.connector_kind, rc, conn, dec_slow, dec_fast, probe)


def trainable_names(model: Model, stage: StageConfig) -> list[str]:
    """Stage-dependent trainable parameter group; everything else stays frozen."""
    names = list(model.named().keys())
    if model.kind != "slot":
        return names  # baselines: aggregator + projection + probe under one budget
    if stage.stage == 1:
        if stage.branch == "slow":
            keep = lambda n: n.startswith("slow.") or n.startswith("dec_slow.")
        elif stage.branch == "fast":
            keep = lambda n: n.startswith("fast.") or n.startswith("dec_fast.")
        else:
            raise TrainingError("stage 1 trains one branch at a time")
        return [n for n in names if keep(n)]
    shared = {"proj.w", "proj.b"}
    slow_group = {"slow_pos", "s_proj.w", "s_proj.b"}
    fast_group = {"fast_pos", "f_proj.w", "f_proj.b"}
    if stage.stage == 2 and stage.branch == "slow":
        allowed = slow_group | shared
        keep = lambda n: n.startswith("slow.") or n.startswith("probe.") or n in allowed
    elif stage.stage == 2 and stage.branch == "fast":
        allowed = fast_group | shared
        keep = lambda n: n.startswith("fast.") or n.startswith("probe.") or n in allowed
    elif stage.stage == 3:
        allowed = slow_group | fast_group | shared
        keep = lambda n: (
            n.startswith("slow.") or n.startswith("fast.") or n.startswith("probe.") or n in allowed
        )
    else:
        raise TrainingError(f"unsupported stage/branch combination {stage.stage}/{stage.branch}")
    return [n for n in names if keep(n)]


# -- checkpoint plumbing ----------------------------------------------------------------


def model_state(model: Model, adam: AdamState | None = None, step: int = 0, stage: int = 0) -> dict:
    tensors = {name: v.data for name, v in model.named().items()}
    tensors["meta.step"] = np.float32(step)
    tensors["meta.stage"] = np.float32(stage)
    tensors["meta.connector"] = np.float32(_KIND_CODES[model.kind])
    tensors["meta.nonlinearity"] = np.float32(_NONLIN_CODES[model.rc.connector.nonlinearity])
    tensors["meta.decoder_kind"] = np.float32(0.0)  # parallel position-query decoder
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
    return float(np.asarray(tensors[key]).reshape(-1)[0])


def load_model_tensors(model: Model, tensors: dict) -> None:
    """Strict full-state load: every model tensor must be present with its shape."""
    kind_code = _meta_scalar(tensors, "meta.connector", -1.0)
    if kind_code >= 0.0 and kind_code != _KIND_CODES[model.kind]:
        raise CheckpointError("checkpoint was written by a different connector kind")
    for name, val in model.named().items():
        if name not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {name!r}")
        arr = tensors[name]
        if tuple(arr.shape) != tuple(val.data.shape):
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {arr.shape} vs model {val.data.shape}"
            )
        val.data = np.ascontiguousarray(arr, dtype=np.float32).copy()


def load_group(model: Model, tensors: dict, prefixes: tuple, exact: tuple = ()) -> None:
    for name, val in model.named().items():
        if name.startswith(prefixes) or name in exact:
            if name not in tensors:
                raise CheckpointError(f"checkpoint missing tensor {name!r}")
            arr = tensors[name]
            if tuple(arr.shape) != tuple(val.data.shape):
                raise CheckpointError(f"shape mismatch for {name!r}")
            val.data = np.ascontiguousarray(arr, dtype=np.float32).copy()


def _load_adam(tensors: dict, state: AdamState, trainable: list) -> None:
    if "meta.adam_t" not in tensors:
        return
    state.t = int(_meta_scalar(tensors, "meta.adam_t", 0.0))
    for name in trainable:
        mk, vk = f"adam.m.{name}", f"adam.v.{name}"
        if mk in tensors:
            if vk not in tensors:
                raise CheckpointError(f"checkpoint has {mk!r} but is missing {vk!r}")
            state.m[name] = np.ascontiguousarray(tensors[mk], dtype=np.float32).copy()
            state.v[name] = np.ascontiguousarray(tensors[vk], dtype=np.float32).copy()


# -- data plumbing ----------------------------------------------------------------


def _stream(rc: RunConfig, tag: str) -> SceneStream:
    cfg = rc.connector
    # cap the scene cache at ~512 MB worth of default-size grids
    bytes_per = cfg.frames * cfg.grid_h * cfg.grid_w * cfg.feat_dim * 4
    cache = min(rc.data.n_train_scenes, max(1, (512 << 20) // max(bytes_per, 1)))
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
    )


def _batch(stream: SceneStream, indices) -> tuple[np.ndarray, dict, list]:
    feats = []
    labels = {task: [] for task in TASKS}
    truths = []
    for i in indices:
        spec, video, truth = stream.scene(i)
        feats.append(video.grid)
        for task, label in probe_labels(spec, truth).items():
            labels[task].append(label)
        truths.append((spec, truth))
    return (
        np.stack(feats),
        {task: np.asarray(vals, dtype=np.intp) for task, vals in labels.items()},
        truths,
    )


def majority_accuracy(labels: dict) -> float:
    """Mean over tasks of the best constant-guess accuracy."""
    accs = []
    for task in TASKS:
        vals = np.asarray(labels[task])
        accs.append(np.bincount(vals).max() / len(vals))
    return float(np.mean(accs))


# -- forward paths ----------------------------------------------------------------


def _connect(model: Model, feats: Value, branch: str):
    """(tokens [B, N, D_out], slow_masks, fast_masks) of the model's connector.

    Masks are graph values in their aggregator's layout, None for a branch
    that did not run and for the pooling connector.
    """
    cfg = model.rc.connector
    if model.kind == "slot":
        return connect_batch(feats, cfg, model.conn, branch)
    if model.kind == "pooling":
        return pooling_connector_batch(feats, model.conn), None, None
    return slowfast_wrap(feats, cfg, model.conn, branch)


def _mask_data(mask):
    # query-transformer masks carry a head axis, [B, groups, heads, M, N]: average it out
    if mask is None:
        return None
    return mask.data.mean(axis=2) if mask.ndim == 5 else mask.data


def probe_tokens(model: Model, feats: Value, branch: str) -> Value:
    """Connector tokens [B, N, D_out] for the probe, honoring the branch mode."""
    return _connect(model, feats, branch)[0]


def forward_masks(model: Model, feats: Value, branch: str):
    """(tokens, slow_masks, fast_masks) with masks as plain arrays, head-merged."""
    tokens, slow, fast = _connect(model, feats, branch)
    return tokens, _mask_data(slow), _mask_data(fast)


def _probe_loss(model: Model, tokens: Value, labels: dict):
    pooled = tokens.mean(axis=1)
    losses = []
    accs = {}
    for task in TASKS:
        logits = model.probe.logits(pooled, task)
        losses.append(engine.cross_entropy(logits, labels[task]))
        accs[task] = float((np.argmax(logits.data, axis=1) == labels[task]).mean())
    total = losses[0]
    for extra in losses[1:]:
        total = engine.add(total, extra)
    return engine.scale(total, 1.0 / len(losses)), accs


# -- training loops ----------------------------------------------------------------


def _write_records(out_dir: str | None, records: list, append: bool) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "train-log.txt"), "a" if append else "w", encoding="ascii") as fh:
        for rec in records:
            fields = " ".join(f"{k}={rec[k]:.8g}" if isinstance(rec[k], float) else f"{k}={rec[k]}"
                              for k in rec)
            fh.write(fields + "\n")


def _finish(model, adam, step, stage, out_dir, records, resumed):
    # a resumed run's records start at the resume step: keep the earlier ones
    _write_records(out_dir, records, append=resumed)
    ckpt_path = None
    if out_dir is not None:
        ckpt_path = os.path.join(out_dir, "checkpoint.sfsl")
        save_model(ckpt_path, model, adam, step, stage)
    return {"checkpoint": ckpt_path, "records": records, "model": model}


def _resume_if_requested(model, adam, trainable, resume):
    if resume is None:
        return 0
    tensors = load_checkpoint(resume)
    load_model_tensors(model, tensors)
    _load_adam(tensors, adam, trainable)
    return int(_meta_scalar(tensors, "meta.step", 0.0))


def run_stage1(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Feature-reconstruction pretraining of one branch's slot attention."""
    if rc.connector_kind != "slot":
        raise TrainingError("stage 1 applies to the slot connector")
    stage = rc.stage
    if stage.branch not in ("slow", "fast"):
        raise TrainingError("stage 1 trains one branch: set stage.branch to slow or fast")
    cfg = rc.connector
    model = build_model(rc)
    named = model.named()
    train_names = trainable_names(model, stage)
    train = {n: named[n] for n in train_names}
    adam = AdamState(lr=stage.lr_max)
    start = _resume_if_requested(model, adam, train_names, resume)

    stream = _stream(rc, "train")
    frame_idx = uniform_sample_frames(cfg.frames, cfg.slow_frames)
    records = []
    m_s = cfg.grid_h * cfg.grid_w
    for step in range(start, stage.steps):
        indices = [(step * stage.batch_size + j) % rc.data.n_train_scenes
                   for j in range(stage.batch_size)]
        feats_np, _, _ = _batch(stream, indices)
        pick = engine.rng_for(rc.seed, "stage1", stage.branch, step)
        if stage.branch == "slow":
            chunks = []
            for b in range(stage.batch_size):
                sel = pick.choice(cfg.slow_frames, size=stage.frames_per_scene, replace=False)
                chunks.append(feats_np[b][frame_idx[np.sort(sel)]].reshape(-1, m_s, cfg.feat_dim))
            inputs_np = np.concatenate(chunks, axis=0)
            sa, dec = model.conn.slow, model.dec_slow
        else:
            with engine.no_grad():
                series = pooled_series(Value(feats_np), cfg, model.conn.fast_pos).data  # [B*M_d, T, D]
            rows = []
            for b in range(stage.batch_size):
                sel = np.sort(pick.choice(cfg.n_positions, size=stage.positions_per_scene, replace=False))
                rows.append(b * cfg.n_positions + sel)
            inputs_np = series[np.concatenate(rows)]  # [B*p, T, D]
            sa, dec = model.conn.fast, model.dec_fast

        lr = _lr_at(stage, step)
        try:
            inputs = Value(inputs_np)
            slots, _ = forward_batch(inputs, sa)
            loss = recon_loss(decode_batch(slots, dec), inputs)
            zero_grads(train)
            backward(loss)
            clip_global_norm(train, stage.grad_clip)
            adam_update(train, adam, lr=lr)
        except engine.NonFiniteError as exc:
            raise TrainingError(f"training diverged at step {step}: {exc}") from exc
        if step % stage.log_every == 0 or step == stage.steps - 1:
            records.append({"step": step, "lr": lr, "loss": float(loss.item())})
    return _finish(model, adam, stage.steps, 1, out_dir, records, resume is not None)


def _run_probe_stage(rc: RunConfig, model: Model, branch: str, out_dir, resume, stage_no) -> dict:
    stage = rc.stage
    named = model.named()
    train_names = trainable_names(model, stage)
    train = {n: named[n] for n in train_names}
    adam = AdamState(lr=stage.lr_max)
    start = _resume_if_requested(model, adam, train_names, resume)
    frozen = {n: named[n].data.copy() for n in named if n not in set(train_names)}
    # the probe head may learn at its own rate: it stands in for the frozen
    # LLM reader, which is not part of the connector's tuning recipe
    head_lr = stage.head_lr
    lr_overrides = (
        None if head_lr is None
        else {n: head_lr for n in train_names if n.startswith("probe.")}
    )

    stream = _stream(rc, "train")
    records = []
    for step in range(start, stage.steps):
        indices = [(step * stage.batch_size + j) % rc.data.n_train_scenes
                   for j in range(stage.batch_size)]
        feats_np, labels, _ = _batch(stream, indices)
        lr = _lr_at(stage, step)
        try:
            tokens = probe_tokens(model, Value(feats_np), branch)
            loss, accs = _probe_loss(model, tokens, labels)
            zero_grads(train)
            backward(loss)
            clip_global_norm(train, stage.grad_clip)
            adam_update(train, adam, lr=lr, lr_overrides=lr_overrides)
        except engine.NonFiniteError as exc:
            raise TrainingError(f"training diverged at step {step}: {exc}") from exc
        if step % stage.log_every == 0 or step == stage.steps - 1:
            records.append({
                "step": step,
                "lr": lr,
                "loss": float(loss.item()),
                "acc": float(np.mean(list(accs.values()))),
            })
    for name, before in frozen.items():
        if not np.array_equal(before, named[name].data):
            raise TrainingError(f"frozen parameter {name!r} moved during stage {stage_no}")
    return _finish(model, adam, stage.steps, stage_no, out_dir, records, resume is not None)


def run_stage2(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Single-branch probe tuning, warm-started from a stage-1 checkpoint."""
    if rc.connector_kind != "slot":
        raise TrainingError("stage 2 applies to the slot connector")
    stage = rc.stage
    if stage.branch not in ("slow", "fast"):
        raise TrainingError("stage 2 tunes one branch: set stage.branch to slow or fast")
    model = build_model(rc)
    if resume is None:
        if stage.init_checkpoint is None:
            raise TrainingError("stage 2 needs stage.init_checkpoint (a stage-1 checkpoint)")
        load_model_tensors(model, load_checkpoint(stage.init_checkpoint))
    return _run_probe_stage(rc, model, stage.branch, out_dir, resume, 2)


def run_stage3(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Joint two-branch tuning from the two stage-2 checkpoints."""
    if rc.connector_kind != "slot":
        raise TrainingError("stage 3 applies to the slot connector")
    stage = rc.stage
    model = build_model(rc)
    if resume is None:
        if stage.init_slow_checkpoint is None or stage.init_fast_checkpoint is None:
            raise TrainingError("stage 3 needs init_slow_checkpoint and init_fast_checkpoint")
        slow_state = load_checkpoint(stage.init_slow_checkpoint)
        fast_state = load_checkpoint(stage.init_fast_checkpoint)
        load_group(model, slow_state, ("slow.", "dec_slow."), ("slow_pos", "s_proj.w", "s_proj.b"))
        load_group(model, fast_state, ("fast.", "dec_fast."), ("fast_pos", "f_proj.w", "f_proj.b"))
        # the shared projection and probe exist in both inputs; the slow-branch
        # checkpoint is the designated donor
        load_group(model, slow_state, ("probe.",), ("proj.w", "proj.b"))
    return _run_probe_stage(rc, model, "both", out_dir, resume, 3)


def run_baseline(rc: RunConfig, out_dir: str | None = None, resume: str | None = None) -> dict:
    """Train a comparator connector under the identical probe protocol."""
    if rc.connector_kind == "slot":
        raise TrainingError("run_baseline expects connector.type pooling or query_transformer")
    branch = rc.stage.branch if rc.connector_kind == "query_transformer" else "both"
    model = build_model(rc)
    if resume is None and rc.stage.init_checkpoint is not None:
        load_model_tensors(model, load_checkpoint(rc.stage.init_checkpoint))
    return _run_probe_stage(rc, model, branch, out_dir, resume, rc.stage.stage)


# -- evaluation ----------------------------------------------------------------


def _connector_label(rc: RunConfig, branch: str) -> str:
    if branch == "both":
        return rc.connector_kind
    return f"{rc.connector_kind}-{branch}"


def _heldout_indices(stream: SceneStream, n: int, k_objects: int | None) -> list:
    """First n stream indices, optionally keeping only K-object scenes."""
    if k_objects is None:
        return list(range(n))
    out = []
    index = 0
    while len(out) < n:
        if stream.spec(index).k_objects == k_objects:
            out.append(index)
        index += 1
        if index > 100 * max(n, 1):
            raise TrainingError(f"could not find {n} scenes with {k_objects} objects")
    return out


def evaluate_model(rc: RunConfig, model: Model, n_scenes: int | None = None,
                   tag: str = "heldout", k_objects: int | None = None) -> DecouplingReport:
    """Decoupling metrics and probe accuracy over a held-out scene stream."""
    cfg = rc.connector
    branch = "both" if rc.connector_kind == "pooling" else rc.stage.branch
    stream = _stream(rc, tag)
    n = rc.data.n_heldout_scenes if n_scenes is None else n_scenes
    frame_idx = uniform_sample_frames(cfg.frames, cfg.slow_frames)
    heldout = _heldout_indices(stream, n, k_objects)

    spatial_aris = []
    temporal_aris = []
    overlap_slow = []
    overlap_fast = []
    entropy_slow = []
    entropy_fast = []
    task_hits = {task: 0 for task in TASKS}
    n_tokens = None

    chunk = 8
    for lo in range(0, n, chunk):
        indices = heldout[lo : lo + chunk]
        feats_np, labels, truths = _batch(stream, indices)
        with engine.no_grad():
            tokens, slow_masks, fast_masks = forward_masks(model, Value(feats_np), branch)
            pooled = tokens.mean(axis=1)
            for task in TASKS:
                logits = model.probe.logits(pooled, task)
                task_hits[task] += int((np.argmax(logits.data, axis=1) == labels[task]).sum())
        n_tokens = tokens.data.shape[1]
        for b, (spec, truth) in enumerate(truths):
            if slow_masks is not None:
                per_frame_ari = []
                for i in range(cfg.slow_frames):
                    mask = slow_masks[b, i]
                    labels_frame = truth.object_labels[frame_idx[i]].reshape(-1)
                    per_frame_ari.append(ari(hard_assign(mask), labels_frame))
                    if mask.shape[1] >= 2:
                        overlap_slow.append(slot_overlap(mask))
                    entropy_slow.append(mask_entropy(mask))
                spatial_aris.append(float(np.mean(per_frame_ari)))
            if fast_masks is not None:
                per_pos_ari = []
                for k in range(cfg.n_positions):
                    mask = fast_masks[b, k]
                    per_pos_ari.append(ari(hard_assign(mask), truth.segment_labels[k]))
                    if mask.shape[1] >= 2:
                        overlap_fast.append(slot_overlap(mask))
                    entropy_fast.append(mask_entropy(mask))
                temporal_aris.append(float(np.mean(per_pos_ari)))

    def mean_opt(vals):
        return float(np.mean(vals)) if vals else None

    per_task = {task: task_hits[task] / n for task in TASKS}
    return DecouplingReport(
        connector=_connector_label(rc, branch),
        seed=rc.seed,
        config_hash=config_hash(rc),
        n_tokens=int(n_tokens),
        scenes=n,
        spatial_ari=mean_opt(spatial_aris),
        temporal_ari=mean_opt(temporal_aris),
        slot_overlap_slow=mean_opt(overlap_slow),
        slot_overlap_fast=mean_opt(overlap_fast),
        mask_entropy_slow=mean_opt(entropy_slow),
        mask_entropy_fast=mean_opt(entropy_fast),
        probe_acc=float(np.mean(list(per_task.values()))),
        probe_acc_per_task=per_task,
    )


def evaluate_checkpoint(rc: RunConfig, ckpt_path: str, n_scenes: int | None = None,
                        k_objects: int | None = None) -> DecouplingReport:
    model = build_model(rc)
    load_model_tensors(model, load_checkpoint(ckpt_path))
    return evaluate_model(rc, model, n_scenes=n_scenes, k_objects=k_objects)
