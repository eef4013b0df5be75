"""Comparator connectors: mean pooling and a learnable-query transformer.

The pooling path averages over space per frame and over time per cell, then
projects. The query transformer reads the inputs through multi-head
cross-attention whose softmax runs over the *input* axis (one distribution
per query), the opposite normalization direction from slot attention. Its
mask is the last cross-attention averaged over heads, returned like slot
attention's as a plain float32 array [sets, inputs, queries]; columns, not
rows, sum to one.

``slowfast_wrap`` runs the query transformer inside the slot connector's own
two-branch frame (``connector.slow_tokens``, ``fast_tokens`` and
``join_branches``): the same frame sampling, pooling, temporal embeddings and
projections, so token counts match branch for branch and comparisons isolate
the aggregation mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .connector import ConnectorConfig, ConnectorParams, fast_tokens, join_branches, slow_tokens
from .engine import (
    ShapeError,
    Value,
    add,
    broadcast_to,
    layer_norm,
    matmul,
    reshape,
    scale,
    softmax_axis,
    transpose,
)


# -- pooling connector -----------------------------------------------------------


@dataclass
class PoolingParams:
    proj_w: Value
    proj_b: Value

    @classmethod
    def create(cls, rng: np.random.Generator, cfg: ConnectorConfig) -> "PoolingParams":
        return cls(
            proj_w=Value(engine.linear_init(rng, cfg.feat_dim, cfg.out_dim), requires_grad=True),
            proj_b=Value(np.zeros(cfg.out_dim, dtype=np.float32), requires_grad=True),
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
    return add(matmul(tokens, params.proj_w), params.proj_b)


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
    n_heads: int = 4
    nonlinearity: str = "gelu-like"

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_queries: int,
        d_in: int,
        d_q: int,
        n_layers: int = 2,
        n_heads: int = 4,
        nonlinearity: str = "gelu-like",
    ) -> "QueryTransformerParams":
        if n_queries < 1:
            raise ValueError("need at least one query")
        if d_q % n_heads:
            raise ValueError(f"query width {d_q} not divisible by {n_heads} heads")

        def ones(d):
            return Value(np.ones(d, dtype=np.float32), requires_grad=True)

        def zeros(d):
            return Value(np.zeros(d, dtype=np.float32), requires_grad=True)

        def lin(fi, fo):
            return Value(engine.linear_init(rng, fi, fo), requires_grad=True)

        layers = []
        for _ in range(n_layers):
            layers.append(
                QTLayerParams(
                    ln_q_g=ones(d_q), ln_q_b=zeros(d_q),
                    wq=lin(d_q, d_q), wk=lin(d_in, d_q), wv=lin(d_in, d_q),
                    wo=lin(d_q, d_q), bo=zeros(d_q),
                    ln_s_g=ones(d_q), ln_s_b=zeros(d_q),
                    s_wq=lin(d_q, d_q), s_wk=lin(d_q, d_q), s_wv=lin(d_q, d_q),
                    s_wo=lin(d_q, d_q), s_bo=zeros(d_q),
                    ln_f_g=ones(d_q), ln_f_b=zeros(d_q),
                    ff_w1=lin(d_q, 2 * d_q), ff_b1=zeros(2 * d_q),
                    ff_w2=lin(2 * d_q, d_q), ff_b2=zeros(d_q),
                )
            )
        return cls(
            queries=Value(engine.normal(rng, (n_queries, d_q), std=0.5), requires_grad=True),
            layers=layers,
            n_heads=n_heads,
            nonlinearity=nonlinearity,
        )

    @property
    def n_queries(self) -> int:
        return self.queries.data.shape[0]

    @property
    def d_q(self) -> int:
        return self.queries.data.shape[1]

    def named(self, prefix: str) -> dict:
        out = {f"{prefix}.queries": self.queries}
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"{prefix}.layer{i}"))
        return out


def _split_heads(x: Value, n_heads: int) -> Value:
    b, n, d = x.shape
    return transpose(reshape(x, (b, n, n_heads, d // n_heads)), (0, 2, 1, 3))


def _merge_heads(x: Value) -> Value:
    b, h, n, dh = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, n, h * dh))


def query_transformer_batch(inputs: Value, params: QueryTransformerParams) -> tuple[Value, np.ndarray]:
    """Run the query stack over [B, M, D_in] inputs.

    Returns (tokens [B, N_q, D_q], mask [B, M, N_q]). The mask is the final
    layer's cross attention averaged over heads and transposed to
    input-by-query, as a plain float32 array: each column is one query's
    softmax distribution over the inputs and sums to one; rows do not.
    """
    if inputs.ndim != 3:
        raise ShapeError("query_transformer_batch expects [B, M, D_in]")
    b, m, _ = inputs.shape
    nq, dq = params.queries.data.shape
    heads = params.n_heads
    dh = dq // heads
    temp = np.float32(1.0 / np.sqrt(dh))
    nonlin = engine.NONLINEARITIES[params.nonlinearity]

    x = broadcast_to(reshape(params.queries, (1, nq, dq)), (b, nq, dq))
    cross = None
    for layer in params.layers:
        q = _split_heads(matmul(layer_norm(x, layer.ln_q_g, layer.ln_q_b), layer.wq), heads)
        k = _split_heads(matmul(inputs, layer.wk), heads)
        v = _split_heads(matmul(inputs, layer.wv), heads)
        logits = scale(matmul(q, transpose(k, (0, 1, 3, 2))), temp)  # [B, h, Nq, M]
        cross = softmax_axis(logits, axis=3)  # one distribution over inputs per query
        ctx = _merge_heads(matmul(cross, v))
        x = add(x, add(matmul(ctx, layer.wo), layer.bo))

        xs = layer_norm(x, layer.ln_s_g, layer.ln_s_b)
        sq = _split_heads(matmul(xs, layer.s_wq), heads)
        sk = _split_heads(matmul(xs, layer.s_wk), heads)
        sv = _split_heads(matmul(xs, layer.s_wv), heads)
        s_logits = scale(matmul(sq, transpose(sk, (0, 1, 3, 2))), temp)
        s_attn = softmax_axis(s_logits, axis=3)
        x = add(x, add(matmul(_merge_heads(matmul(s_attn, sv)), layer.s_wo), layer.s_bo))

        hidden = nonlin(add(matmul(layer_norm(x, layer.ln_f_g, layer.ln_f_b), layer.ff_w1), layer.ff_b1))
        x = add(x, add(matmul(hidden, layer.ff_w2), layer.ff_b2))

    return x, cross.data.mean(axis=1).transpose(0, 2, 1)  # head mean, [B, M, Nq]


# -- slot-parity wrapper --------------------------------------------------------------


class WrapParams(ConnectorParams):
    """The two-branch connector's state with a query transformer per branch.

    Only the aggregators differ from ``ConnectorParams``: two query stacks,
    named ``qt_slow.*`` and ``qt_fast.*``, created before the shared tensors.
    """

    prefix = "qt_"

    @staticmethod
    def create_aggregators(
        rng: np.random.Generator, cfg: ConnectorConfig, n_layers: int = 2, n_heads: int = 4
    ) -> tuple:
        return tuple(
            QueryTransformerParams.create(
                rng, n_queries, cfg.feat_dim, cfg.slot_dim,
                n_layers=n_layers, n_heads=n_heads, nonlinearity=cfg.nonlinearity,
            )
            for n_queries in (cfg.slots_per_frame, cfg.slots_per_position)
        )


def wrap_slow_batch(feats: Value, cfg: ConnectorConfig, params: WrapParams) -> tuple[Value, np.ndarray]:
    """Per-frame query aggregation; masks [B, t, M_s, N_s]."""
    return slow_tokens(feats, cfg, params, query_transformer_batch)


def wrap_fast_batch(feats: Value, cfg: ConnectorConfig, params: WrapParams) -> tuple[Value, np.ndarray]:
    """Per-position temporal query aggregation; masks [B, M_d, T, N_f]."""
    return fast_tokens(feats, cfg, params, query_transformer_batch)


def slowfast_wrap(features, cfg: ConnectorConfig, params: WrapParams, mode: str = "both"):
    """Token-count-parity baseline forward; mode selects slow, fast or both branches."""
    return join_branches(features, cfg, params, mode, wrap_slow_batch, wrap_fast_batch)
