"""Comparator connectors: mean pooling and a learnable-query transformer.

The pooling path averages over space per frame and over time per cell, then
projects. The query transformer reads the inputs through multi-head
cross-attention whose softmax runs over the *input* axis (one distribution
per query), the opposite normalization direction from slot attention. Its
mask is the last cross-attention averaged over heads, returned like slot
attention's as a plain float32 array [sets, inputs, queries]; columns, not
rows, sum to one.

Inside ``query_transformer_batch`` the query state of the whole batch is kept
as [B*N_q, D_q] rows, and each layer is three engine nodes over them:
``engine.cross_attention_block``, ``engine.self_attention_block`` and
``engine.residual_mlp``. Every weight product is one 2-D GEMM over all
queries; the attention nodes split their heads and merge them as array views
inside the node, and only the attention logits and reads see the
[B, N_q, ...] set structure. The cross-attention node folds each head's key
weights into its query weights and its value weights into the output
weights, so no per-token keys or values [B, M, D_q] are built; it states the
fold algebra, when the fold pays, and which side of each set it applies the
folds to (the query rows at the default shapes).

``slowfast_wrap`` runs the query transformer inside the slot connector's own
two-branch frame (``connector.slow_tokens``, ``fast_tokens`` and
``join_branches``): it reads the same branch views (sampled frames and pooled
series, ``connector.BranchViews``) and adds the same temporal embeddings and
projections, so token counts match branch for branch and comparisons isolate
the aggregation mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .connector import BranchViews, ConnectorConfig, ConnectorParams, fast_tokens, join_branches, slow_tokens
from .engine import (
    ShapeError,
    Value,
    broadcast_to,
    cross_attention_block,
    linear,
    linear_param,
    normal_param,
    ones_param,
    reshape,
    residual_mlp,
    self_attention_block,
    zeros_param,
)


# -- pooling connector -----------------------------------------------------------


@dataclass
class PoolingParams:
    proj_w: Value
    proj_b: Value

    @classmethod
    def create(cls, rng: np.random.Generator, cfg: ConnectorConfig) -> "PoolingParams":
        return cls(
            proj_w=linear_param(rng, cfg.feat_dim, cfg.out_dim),
            proj_b=zeros_param(cfg.out_dim),
        )

    def named(self) -> dict:
        return {"proj.w": self.proj_w, "proj.b": self.proj_b}


def pooling_tokens_batch(feats: Value) -> Value:
    """Pre-projection pooled tokens: T frame means then H*W cell means."""
    if feats.ndim != 5:
        raise ShapeError("expected [B, T, H, W, D] features")
    b, t, h, w, d = feats.shape
    spatial = feats.mean(axis=(2, 3))  # [B, T, D]
    temporal = reshape(feats.mean(axis=1), (b, h * w, d))  # [B, H*W, D]
    return engine.concat([spatial, temporal], axis=1)


def pooling_connector_batch(feats: Value, params: PoolingParams) -> Value:
    tokens = pooling_tokens_batch(feats)
    return linear(tokens, params.proj_w, params.proj_b)


# -- learnable-query transformer ----------------------------------------------------


@dataclass
class QTLayerParams:
    ln_q_g: Value
    ln_q_b: Value
    wq: Value
    wk: Value
    wv: Value
    wo: Value
    bo: Value
    ln_s_g: Value
    ln_s_b: Value
    s_wq: Value
    s_wk: Value
    s_wv: Value
    s_wo: Value
    s_bo: Value
    ln_f_g: Value
    ln_f_b: Value
    ff_w1: Value
    ff_b1: Value
    ff_w2: Value
    ff_b2: Value

    def named(self, prefix: str) -> dict:
        names = (
            "ln_q_g", "ln_q_b", "wq", "wk", "wv", "wo", "bo",
            "ln_s_g", "ln_s_b", "s_wq", "s_wk", "s_wv", "s_wo", "s_bo",
            "ln_f_g", "ln_f_b", "ff_w1", "ff_b1", "ff_w2", "ff_b2",
        )
        return {f"{prefix}.{n}": getattr(self, n) for n in names}


@dataclass
class QueryTransformerParams:
    """Learnable queries plus cross/self-attention blocks over them."""

    queries: Value  # [N_q, D_q]
    layers: list
    n_heads: int

    @classmethod
    def create(
        cls, rng: np.random.Generator, n_queries: int, d_in: int, d_q: int, n_layers: int, n_heads: int
    ) -> "QueryTransformerParams":
        if n_queries < 1:
            raise ValueError("need at least one query")
        if d_q % n_heads:
            raise ValueError(f"query width {d_q} not divisible by {n_heads} heads")
        d = d_q
        layers = [
            QTLayerParams(
                ln_q_g=ones_param(d), ln_q_b=zeros_param(d),
                wq=linear_param(rng, d, d), wk=linear_param(rng, d_in, d), wv=linear_param(rng, d_in, d),
                wo=linear_param(rng, d, d), bo=zeros_param(d),
                ln_s_g=ones_param(d), ln_s_b=zeros_param(d),
                s_wq=linear_param(rng, d, d), s_wk=linear_param(rng, d, d), s_wv=linear_param(rng, d, d),
                s_wo=linear_param(rng, d, d), s_bo=zeros_param(d),
                ln_f_g=ones_param(d), ln_f_b=zeros_param(d),
                ff_w1=linear_param(rng, d, 2 * d), ff_b1=zeros_param(2 * d),
                ff_w2=linear_param(rng, 2 * d, d), ff_b2=zeros_param(d),
            )
            for _ in range(n_layers)
        ]
        return cls(
            queries=normal_param(rng, (n_queries, d), 0.5),
            layers=layers,
            n_heads=n_heads,
        )

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.queries": self.queries}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"{prefix}.layer{i}"))
        return out


def query_transformer_batch(inputs: Value, params: QueryTransformerParams) -> tuple[Value, np.ndarray]:
    """Run the query stack over [B, M, D_in] inputs.

    Returns (tokens [B, N_q, D_q], mask [B, M, N_q]). The mask is the final
    layer's cross attention averaged over heads and transposed to
    input-by-query, as a plain float32 array: each column is one query's
    softmax distribution over the inputs and sums to one; rows do not.

    The query state runs as [B*N_q, D_q] rows; the cross-attention is the
    one node ``engine.cross_attention_block``, whose docstring states its
    weight folds and the side it applies them to.
    """
    if inputs.ndim != 3:
        raise ShapeError("query_transformer_batch expects [B, M, D_in]")
    b, m, _ = inputs.shape
    nq, dq = params.queries.data.shape
    heads = params.n_heads

    x = reshape(broadcast_to(reshape(params.queries, (1, nq, dq)), (b, nq, dq)), (b * nq, dq))
    cross = None
    for layer in params.layers:
        x, cross = cross_attention_block(x, inputs, heads, layer.ln_q_g, layer.ln_q_b, layer.wq, layer.wk, layer.wv,
                                         layer.wo, layer.bo)
        x = self_attention_block(x, b, heads, layer.ln_s_g, layer.ln_s_b, layer.s_wq, layer.s_wk, layer.s_wv,
                                 layer.s_wo, layer.s_bo)
        x = residual_mlp(x, layer.ln_f_g, layer.ln_f_b, layer.ff_w1, layer.ff_b1, layer.ff_w2, layer.ff_b2)

    mask = cross.reshape(b, nq, heads, m).mean(axis=2).transpose(0, 2, 1)  # head mean, [B, M, N_q]
    return reshape(x, (b, nq, dq)), mask


# -- slot-parity wrapper --------------------------------------------------------------


class WrapParams(ConnectorParams):
    """The two-branch connector's state with a query transformer per branch.

    Only the aggregators differ from ``ConnectorParams``: two query stacks of
    ``cfg.qt_layers`` layers with ``cfg.qt_heads`` heads, named ``qt_slow.*``
    and ``qt_fast.*``, created before the shared tensors.
    """

    prefix = "qt_"

    @staticmethod
    def create_aggregators(rng: np.random.Generator, cfg: ConnectorConfig) -> tuple:
        return tuple(
            QueryTransformerParams.create(rng, n, cfg.feat_dim, cfg.slot_dim, cfg.qt_layers, cfg.qt_heads)
            for n in (cfg.slots_per_frame, cfg.slots_per_position)
        )


def wrap_slow_batch(frames: Value, cfg: ConnectorConfig, params: WrapParams) -> tuple[Value, np.ndarray]:
    """Per-frame query aggregation of slow frames [B, t, H*W, D]; masks [B, t, M_s, N_s]."""
    return slow_tokens(frames, cfg, params, query_transformer_batch)


def wrap_fast_batch(series: Value, cfg: ConnectorConfig, params: WrapParams) -> tuple[Value, np.ndarray]:
    """Per-position temporal query aggregation of pooled series [B, M_d, T, D]; masks [B, M_d, T, N_f]."""
    return fast_tokens(series, cfg, params, query_transformer_batch)


def slowfast_wrap(views: BranchViews, cfg: ConnectorConfig, params: WrapParams, mode: str = "both"):
    """Token-count-parity baseline forward over a batch's views; mode selects slow, fast or both branches."""
    return join_branches(views, cfg, params, mode, wrap_slow_batch, wrap_fast_batch)
