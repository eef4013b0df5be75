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

This module is the one home of that frame (sampling, pooling, embeddings,
projections). The aggregator is a function passed in: slot attention here,
the query transformer in ``baselines``, so both comparators differ only in
how each group of inputs is aggregated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .engine import ShapeError, Value, add, avg_pool_hw, broadcast_to, matmul, reshape, take, transpose
from .slot_attention import SlotAttentionParams, forward_batch


class ConnectorError(Exception):
    """Configuration or capacity violation in the connector."""


@dataclass(frozen=True)
class ConnectorConfig:
    """Shape and capacity parameters of the connector."""

    frames: int = 32  # nominal clip length at 1 fps
    grid_h: int = 16
    grid_w: int = 16
    feat_dim: int = 32
    slow_frames: int = 8
    pool_stride: int = 4
    slots_per_frame: int = 8
    slots_per_position: int = 8
    slot_dim: int = 64
    out_dim: int = 64
    max_frames: int = 256
    iters_slow: int = 3
    iters_fast: int = 3
    mlp_hidden: Optional[int] = None
    nonlinearity: str = "gelu-like"

    def validate(self) -> None:
        if self.pool_stride <= 0 or self.grid_h % self.pool_stride or self.grid_w % self.pool_stride:
            raise ConnectorError(
                f"pool stride {self.pool_stride} does not divide {self.grid_h}x{self.grid_w}"
            )
        if not (1 <= self.slow_frames <= self.frames <= self.max_frames):
            raise ConnectorError(
                f"need slow_frames <= frames <= max_frames, got "
                f"{self.slow_frames}/{self.frames}/{self.max_frames}"
            )
        if min(self.slots_per_frame, self.slots_per_position, self.slot_dim, self.out_dim, self.feat_dim) < 1:
            raise ConnectorError("dimensions must be positive")
        if self.iters_slow < 1 or self.iters_fast < 1:
            raise ConnectorError("iteration counts must be >= 1")

    @property
    def pooled_h(self) -> int:
        return self.grid_h // self.pool_stride

    @property
    def pooled_w(self) -> int:
        return self.grid_w // self.pool_stride

    @property
    def n_positions(self) -> int:
        return self.pooled_h * self.pooled_w

    @property
    def n_slow_tokens(self) -> int:
        return self.slow_frames * self.slots_per_frame

    @property
    def n_fast_tokens(self) -> int:
        return self.n_positions * self.slots_per_position

    @property
    def n_tokens(self) -> int:
        return self.n_slow_tokens + self.n_fast_tokens


@dataclass
class VideoFeatures:
    """A T x H x W x D feature grid extracted at a fixed frame rate."""

    grid: np.ndarray
    fps: float = 1.0

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
    them under its own ``prefix``; every other tensor and its checkpoint name
    is shared.
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
            SlotAttentionParams.create(
                rng, n_slots, cfg.feat_dim, cfg.slot_dim,
                mlp_hidden=cfg.mlp_hidden, iterations=iters, nonlinearity=cfg.nonlinearity,
            )
            for n_slots, iters in ((cfg.slots_per_frame, cfg.iters_slow), (cfg.slots_per_position, cfg.iters_fast))
        )

    @classmethod
    def create(cls, rng: np.random.Generator, cfg: ConnectorConfig, **aggregator_kw) -> "ConnectorParams":
        cfg.validate()

        def lin(fi, fo):
            return Value(engine.linear_init(rng, fi, fo), requires_grad=True)

        def zeros(d):
            return Value(np.zeros(d, dtype=np.float32), requires_grad=True)

        slow, fast = cls.create_aggregators(rng, cfg, **aggregator_kw)
        return cls(
            slow=slow,
            fast=fast,
            slow_pos=Value(engine.normal(rng, (cfg.slow_frames, cfg.slot_dim), std=0.02), requires_grad=True),
            fast_pos=Value(engine.normal(rng, (cfg.max_frames, cfg.feat_dim), std=0.02), requires_grad=True),
            s_proj_w=lin(cfg.slot_dim, cfg.slot_dim),
            s_proj_b=zeros(cfg.slot_dim),
            f_proj_w=lin(cfg.slot_dim, cfg.slot_dim),
            f_proj_b=zeros(cfg.slot_dim),
            proj_w=lin(cfg.slot_dim, cfg.out_dim),
            proj_b=zeros(cfg.out_dim),
        )

    def named(self) -> dict:
        out = {}
        out.update(self.slow.named(self.prefix + "slow"))
        out.update(self.fast.named(self.prefix + "fast"))
        out["slow_pos"] = self.slow_pos
        out["fast_pos"] = self.fast_pos
        out["s_proj.w"] = self.s_proj_w
        out["s_proj.b"] = self.s_proj_b
        out["f_proj.w"] = self.f_proj_w
        out["f_proj.b"] = self.f_proj_b
        out["proj.w"] = self.proj_w
        out["proj.b"] = self.proj_b
        return out


def uniform_sample_frames(total: int, count: int) -> np.ndarray:
    """Centered uniform sampling: floor((i + 0.5) * total / count)."""
    if not (1 <= count <= total):
        raise ConnectorError(f"cannot sample {count} frames from {total}")
    return np.array([((2 * i + 1) * total) // (2 * count) for i in range(count)], dtype=np.intp)


def _as_batch_value(features) -> Value:
    if isinstance(features, Value):
        val = features
    elif isinstance(features, VideoFeatures):
        val = Value(features.grid)
    else:
        val = Value(features)
    if val.ndim == 4:
        t, h, w, d = val.shape
        val = reshape(val, (1, t, h, w, d))
    if val.ndim != 5:
        raise ShapeError("expected [T, H, W, D] or [B, T, H, W, D] features")
    return val


# -- the two-branch frame -----------------------------------------------------------
# The helpers below take the aggregator as a function of ([B', M, D] inputs,
# aggregator params) -> (tokens [B', N, slot_dim], masks [B', ...]). The traced
# entry points pass it by name at call time, so a wrapper installed on the
# module global sees every call.


def slow_tokens(feats: Value, cfg: ConnectorConfig, params: ConnectorParams, aggregate) -> tuple[Value, Value]:
    """Sample frames, aggregate each, add the frame embedding and project.

    Returns (tokens [B, slow_frames * N_s, slot_dim], masks [B, slow_frames, ...])
    where the trailing mask axes are the aggregator's own per-frame layout.
    """
    b, t, h, w, d = feats.shape
    idx = uniform_sample_frames(t, cfg.slow_frames)
    frames = take(feats, idx, axis=1)  # [B, t_d, H, W, D]
    flat = reshape(frames, (b * cfg.slow_frames, h * w, d))
    slots, masks = aggregate(flat, params.slow)
    slots = reshape(slots, (b, cfg.slow_frames, cfg.slots_per_frame, cfg.slot_dim))
    pos = reshape(params.slow_pos, (1, cfg.slow_frames, 1, cfg.slot_dim))
    slots = add(slots, broadcast_to(pos, slots.shape))
    tokens = reshape(slots, (b, cfg.n_slow_tokens, cfg.slot_dim))
    tokens = add(matmul(tokens, params.s_proj_w), params.s_proj_b)
    return tokens, reshape(masks, (b, cfg.slow_frames) + masks.shape[1:])


def pooled_series(feats: Value, cfg: ConnectorConfig, fast_pos: Value) -> Value:
    """Pooled features plus the frame embedding as [B * positions, T, D] time series."""
    b, t, h, w, d = feats.shape
    if t > cfg.max_frames:
        raise ConnectorError(
            f"clip has {t} frames but the temporal embedding table holds {cfg.max_frames}"
        )
    pooled = avg_pool_hw(feats, cfg.pool_stride)  # [B, T, h_d, w_d, D]
    m_d = cfg.n_positions
    pooled = reshape(pooled, (b, t, m_d, d))
    emb = take(fast_pos, np.arange(t, dtype=np.intp))  # [T, D]
    pooled = add(pooled, broadcast_to(reshape(emb, (1, t, 1, d)), pooled.shape))
    return reshape(transpose(pooled, (0, 2, 1, 3)), (b * m_d, t, d))


def fast_tokens(feats: Value, cfg: ConnectorConfig, params: ConnectorParams, aggregate) -> tuple[Value, Value]:
    """Aggregate each pooled position's time series and project.

    Returns (tokens [B, positions * N_f, slot_dim], masks [B, positions, ...]).
    """
    b = feats.shape[0]
    slots, masks = aggregate(pooled_series(feats, cfg, params.fast_pos), params.fast)
    tokens = reshape(slots, (b, cfg.n_fast_tokens, cfg.slot_dim))
    tokens = add(matmul(tokens, params.f_proj_w), params.f_proj_b)
    return tokens, reshape(masks, (b, cfg.n_positions) + masks.shape[1:])


def join_branches(features, cfg: ConnectorConfig, params: ConnectorParams, branch: str, slow_fn, fast_fn):
    """Run the selected branches, concatenate slow-first and apply the final map.

    Returns (tokens [B, N, out_dim], slow_masks, fast_masks); the masks of a
    branch that did not run are None.
    """
    if branch not in ("slow", "fast", "both"):
        raise ValueError(f"unknown branch {branch!r}")
    cfg.validate()
    feats = _as_batch_value(features)
    parts = []
    slow_masks = fast_masks = None
    if branch != "fast":
        tokens, slow_masks = slow_fn(feats, cfg, params)
        parts.append(tokens)
    if branch != "slow":
        tokens, fast_masks = fast_fn(feats, cfg, params)
        parts.append(tokens)
    joined = parts[0] if len(parts) == 1 else engine.concat(parts, axis=1)
    return add(matmul(joined, params.proj_w), params.proj_b), slow_masks, fast_masks


def slow_branch_batch(feats: Value, cfg: ConnectorConfig, params: ConnectorParams) -> tuple[Value, Value]:
    """Returns (tokens [B, slow_frames * N_s, slot_dim], attn [B, t, M_s, N_s])."""
    return slow_tokens(feats, cfg, params, forward_batch)


def fast_branch_batch(feats: Value, cfg: ConnectorConfig, params: ConnectorParams) -> tuple[Value, Value]:
    """Returns (tokens [B, positions * N_f, slot_dim], attn [B, M_d, T, N_f])."""
    return fast_tokens(feats, cfg, params, forward_batch)


def connect_batch(feats, cfg: ConnectorConfig, params: ConnectorParams, branch: str = "both"):
    """Differentiable forward over a batch; returns (tokens, slow_attn, fast_attn).

    ``branch`` selects slow, fast or both branches; an unused branch's
    attention is None.
    """
    return join_branches(feats, cfg, params, branch, slow_branch_batch, fast_branch_batch)
