"""Two-branch video token connector.

A dense T x H x W x D feature grid is compressed into a fixed token set:

* slow branch: a few uniformly sampled frames at full spatial resolution,
  slot attention per frame, yielding object-centric tokens; a learned
  per-frame embedding is added to the resulting slots.
* fast branch: every frame at pooled spatial resolution, slot attention over
  each position's time series, yielding event-centric tokens; a learned
  per-frame embedding is added to the tokens *before* attention.

Branch outputs pass through their own affine projections, are concatenated
slow-first (frame-major) then fast (position-major), and a final affine map
produces the downstream token width. The output token count is
``slow_frames * slots_per_frame + pooled_positions * slots_per_position``
regardless of T.

The connector's input is the branch views of a batch of clips, not their
grids: the sampled slow frames [B, slow_frames, H*W, D] and the pooled fast
series in position-major layout [B, positions, T, D], before the learned
frame embedding is added, as plain float32 arrays keyed by view name. The
grid is a frozen encoder's output, so every view is a fixed array that takes
no gradient. ``clip_views`` is the one derivation of a clip's views, the
pooling comparator's pre-projection tokens among them. A training stream
(``synthetic.SceneStream``) calls it once per scene and keeps the views it
returns, and a step stacks its scenes' views; ``stack_views`` stacks the
views of fresh clips. A default batch of 8 clips reads 2.5 MB of views
against the 8 MB of its grids, with no sampling or pooling in the step.

This module is the one home of that frame (sampling, pooling, embeddings,
projections). The aggregator is a function passed in: slot attention here,
the query transformer in ``baselines``, so both comparators differ only in
how each group of inputs is aggregated. Every aggregator returns its mask as
a plain float32 array [sets, tokens, slots]; the branches regroup it to
[B, sampled frames, H*W, N_s] (slow) and [B, pooled positions, T, N_f] (fast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .config import ConnectorConfig
from .engine import ShapeError, Value, add, linear, reshape, take
from .slot_attention import SlotAttentionParams, forward_batch


class ConnectorError(Exception):
    """A clip outside the connector's capacity: fewer frames than it samples, or more than it embeds."""


# the views each branch selection reads
_BRANCH_VIEWS = {"slow": ("slow",), "fast": ("fast",), "both": ("slow", "fast")}


def branch_views(branch: str) -> tuple:
    """The names of the views ``branch`` reads, slow first."""
    if branch not in _BRANCH_VIEWS:
        raise ValueError(f"unknown branch {branch!r}")
    return _BRANCH_VIEWS[branch]


@dataclass
class VideoFeatures:
    """A T x H x W x D feature grid extracted at a fixed frame rate.

    A clip is read through its views (``clip_views``); nothing derived is
    kept with it.
    """

    grid: np.ndarray

    def __post_init__(self):
        self.grid = np.ascontiguousarray(self.grid, dtype=np.float32)
        if self.grid.ndim != 4 or self.grid.shape[0] < 1:
            raise ShapeError("features must be [T, H, W, D] with T >= 1")
        if not np.all(np.isfinite(self.grid)):
            raise engine.NonFiniteError("non-finite video features")

    @property
    def n_frames(self) -> int:
        return self.grid.shape[0]


@dataclass
class ConnectorParams:
    """Learnable state of the two-branch frame around one aggregator per branch.

    The slot connector aggregates with slot attention. A subclass swaps in
    other aggregator params by overriding ``create_aggregators`` and names
    them under its own ``prefix``; every other tensor is shared. Checkpoint
    names follow ``engine.named_params``: ``slow.in_norm.g``, ``slow_pos``,
    ``proj.w``.
    """

    slow: object  # aggregator params of the slow branch
    fast: object  # aggregator params of the fast branch
    slow_pos: Value  # [slow_frames, slot_dim], added to slots after attention
    fast_pos: Value  # [max_frames, feat_dim], added to tokens before attention
    s_proj_w: Value
    s_proj_b: Value
    f_proj_w: Value
    f_proj_b: Value
    proj_w: Value
    proj_b: Value

    prefix = ""  # checkpoint-name prefix of the aggregator params

    @staticmethod
    def create_aggregators(rng: np.random.Generator, cfg: ConnectorConfig) -> tuple:
        """(slow, fast) slot-attention params, created in that order."""
        return tuple(
            SlotAttentionParams.create(rng, n_slots, cfg.feat_dim, cfg.slot_dim, iterations=iters)
            for n_slots, iters in ((cfg.slots_per_frame, cfg.iters_slow), (cfg.slots_per_position, cfg.iters_fast))
        )

    @classmethod
    def create(cls, rng: np.random.Generator, cfg: ConnectorConfig) -> "ConnectorParams":
        slow, fast = cls.create_aggregators(rng, cfg)
        return cls(
            slow=slow,
            fast=fast,
            slow_pos=engine.normal_param(rng, (cfg.slow_frames, cfg.slot_dim), 0.02),
            fast_pos=engine.normal_param(rng, (cfg.max_frames, cfg.feat_dim), 0.02),
            s_proj_w=engine.linear_param(rng, cfg.slot_dim, cfg.slot_dim),
            s_proj_b=engine.zeros_param(cfg.slot_dim),
            f_proj_w=engine.linear_param(rng, cfg.slot_dim, cfg.slot_dim),
            f_proj_b=engine.zeros_param(cfg.slot_dim),
            proj_w=engine.linear_param(rng, cfg.slot_dim, cfg.out_dim),
            proj_b=engine.zeros_param(cfg.out_dim),
        )


def uniform_sample_frames(total: int, count: int) -> np.ndarray:
    """Centered uniform sampling: floor((i + 0.5) * total / count)."""
    if not (1 <= count <= total):
        raise ConnectorError(f"cannot sample {count} frames from {total}")
    return np.array([((2 * i + 1) * total) // (2 * count) for i in range(count)], dtype=np.intp)


def clip_views(video: VideoFeatures, cfg: ConnectorConfig, names) -> dict:
    """The views ``names`` of one clip, each a float32 array, by name:

    * "slow": its uniformly sampled frames [slow_frames, H*W, D];
    * "fast": its stride-pooled grid as position-major series [positions, T, D],
      one GEMM per frame with a constant block-mean matrix;
    * "pooling": the pooling comparator's pre-projection tokens [T + H*W, D],
      the T frame means then the H*W cell means.

    The one derivation of every view a connector reads.
    """
    grid = video.grid
    t, h, w, d = grid.shape
    out = {}
    for name in names:
        if name == "slow":
            view = grid[uniform_sample_frames(t, cfg.slow_frames)].reshape(cfg.slow_frames, h * w, d)
        elif name == "fast":
            stride = cfg.pool_stride
            if h % stride or w % stride:
                raise ShapeError(f"stride {stride} does not divide grid {h}x{w}")
            # row c of the pooling matrix weighs the cells of block c by 1/stride^2
            block = ((np.arange(h) // stride)[:, None] * (w // stride) + np.arange(w) // stride).reshape(-1)
            pool = np.zeros(((h // stride) * (w // stride), h * w), dtype=np.float32)
            pool[block, np.arange(h * w)] = np.float32(1.0 / (stride * stride))
            view = np.matmul(pool, grid.reshape(t, h * w, d)).transpose(1, 0, 2)
        elif name == "pooling":
            view = np.concatenate([grid.mean(axis=(1, 2), dtype=np.float32),
                                   grid.mean(axis=0, dtype=np.float32).reshape(h * w, d)])
        else:
            raise ValueError(f"unknown view {name!r}")
        out[name] = view
    return out


def stack_views(videos, cfg: ConnectorConfig, names=("slow", "fast")) -> dict:
    """The views ``names`` of a batch of fresh ``VideoFeatures``, each stacked into one [B, ...] array."""
    per_clip = [clip_views(video, cfg, names) for video in videos]
    return {name: np.stack([views[name] for views in per_clip]) for name in names}


# -- the two-branch frame -----------------------------------------------------------
# The helpers below take the aggregator as a function of ([B', M, D] inputs,
# aggregator params) -> (tokens [B', N, slot_dim], mask [B', M, N]), the mask a
# plain float32 array. The traced entry points pass it by name at call time,
# so a wrapper installed on the module global sees every call.


def slow_tokens(frames: Value, cfg: ConnectorConfig, params: ConnectorParams, aggregate) -> tuple[Value, np.ndarray]:
    """Aggregate each sampled frame [B, slow_frames, H*W, D], add the frame embedding and project.

    Returns (tokens [B, slow_frames * N_s, slot_dim], masks [B, slow_frames, H*W, N_s]).
    """
    b, t_d, m, d = frames.shape
    slots, masks = aggregate(reshape(frames, (b * t_d, m, d)), params.slow)
    slots = reshape(slots, (b, cfg.slow_frames, cfg.slots_per_frame, cfg.slot_dim))
    slots = add(slots, reshape(params.slow_pos, (1, cfg.slow_frames, 1, cfg.slot_dim)))
    tokens = reshape(slots, (b, cfg.n_slow_tokens, cfg.slot_dim))
    tokens = linear(tokens, params.s_proj_w, params.s_proj_b)
    return tokens, masks.reshape((b, cfg.slow_frames) + masks.shape[1:])


def pooled_series(series: Value, cfg: ConnectorConfig, fast_pos: Value) -> Value:
    """The pooled series [B, positions, T, D] plus the frame embedding, as [B * positions, T, D]."""
    b, m_d, t, d = series.shape
    if t > cfg.max_frames:
        raise ConnectorError(
            f"clip has {t} frames but the temporal embedding table holds {cfg.max_frames}"
        )
    series = add(series, take(fast_pos, np.arange(t, dtype=np.intp)))  # plus the [T, D] embedding
    return reshape(series, (b * m_d, t, d))


def fast_tokens(series: Value, cfg: ConnectorConfig, params: ConnectorParams, aggregate) -> tuple[Value, np.ndarray]:
    """Aggregate each pooled position's time series [B, positions, T, D] and project.

    Returns (tokens [B, positions * N_f, slot_dim], masks [B, positions, T, N_f]).
    """
    b = series.shape[0]
    slots, masks = aggregate(pooled_series(series, cfg, params.fast_pos), params.fast)
    tokens = reshape(slots, (b, cfg.n_fast_tokens, cfg.slot_dim))
    tokens = linear(tokens, params.f_proj_w, params.f_proj_b)
    return tokens, masks.reshape((b, cfg.n_positions) + masks.shape[1:])


def join_branches(views, cfg: ConnectorConfig, params: ConnectorParams, branch: str, slow_fn, fast_fn):
    """Run the selected branches on their views, concatenate slow-first and apply the final map.

    ``views`` maps view names to batch arrays [B, groups, tokens, D] (or to
    ``Value`` leaves, to take their adjoints); a view the branch selection
    does not read may be absent. Returns (tokens [B, N, out_dim], slow_masks,
    fast_masks) with the masks as arrays [B, groups, M, N]; the masks of a
    branch that did not run are None.
    """
    names = branch_views(branch)
    for name in names:
        if np.ndim(views.get(name)) != 4:
            raise ShapeError(f"the {name} branch needs its view as a [B, groups, tokens, D] array")
    parts = []
    slow_masks = fast_masks = None
    if "slow" in names:
        tokens, slow_masks = slow_fn(views["slow"], cfg, params)
        parts.append(tokens)
    if "fast" in names:
        tokens, fast_masks = fast_fn(views["fast"], cfg, params)
        parts.append(tokens)
    joined = parts[0] if len(parts) == 1 else engine.concat(parts, axis=1)
    return linear(joined, params.proj_w, params.proj_b), slow_masks, fast_masks


def slow_branch_batch(frames: Value, cfg: ConnectorConfig, params: ConnectorParams) -> tuple[Value, np.ndarray]:
    """Slow frames [B, t, H*W, D] -> (tokens [B, slow_frames * N_s, slot_dim], masks [B, t, M_s, N_s])."""
    return slow_tokens(frames, cfg, params, forward_batch)


def fast_branch_batch(series: Value, cfg: ConnectorConfig, params: ConnectorParams) -> tuple[Value, np.ndarray]:
    """Pooled series [B, M_d, T, D] -> (tokens [B, positions * N_f, slot_dim], masks [B, M_d, T, N_f])."""
    return fast_tokens(series, cfg, params, forward_batch)


def connect_batch(views, cfg: ConnectorConfig, params: ConnectorParams, branch: str):
    """Differentiable forward over a batch's views; returns (tokens, slow_masks, fast_masks).

    ``views`` maps view names to batch arrays; ``branch`` selects slow, fast
    or both branches, and an unused branch's masks are None.
    """
    return join_branches(views, cfg, params, branch, slow_branch_batch, fast_branch_batch)
