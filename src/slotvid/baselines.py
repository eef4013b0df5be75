"""Comparator connectors: mean pooling and a learnable-query transformer.

The pooling path projects the clip's "pooling" view
(``connector.clip_views``): its means over space per frame and over time per
cell. The query transformer reads the inputs through multi-head
cross-attention whose softmax runs over the *input* axis (one distribution
per query), the opposite normalization direction from slot attention. Its
mask is the last cross-attention averaged over heads, returned like slot
attention's as a plain float32 array [sets, inputs, queries]; columns, not
rows, sum to one.

The query transformer is a learned-query stack (``decoder.query_stack``)
whose layers have self-attention and ``n_heads`` heads; the ``decoder``
module states the stack's row layout and its engine nodes per layer.

``slowfast_wrap`` runs the query transformer inside the slot connector's own
two-branch frame (``connector.slow_tokens``, ``fast_tokens`` and
``join_branches``): it reads the same branch views (sampled frames and pooled
series) and adds the same temporal embeddings and projections, so token
counts match branch for branch and comparisons isolate the aggregation
mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConnectorConfig
from .connector import ConnectorParams, fast_tokens, join_branches, slow_tokens
from .decoder import QueryLayerParams, query_stack
from .engine import ShapeError, Value, linear, linear_param, normal_param, reshape, zeros_param


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


def pooling_connector_batch(tokens: Value, params: PoolingParams) -> Value:
    """Project the pooling view [B, T + H*W, D] to [B, T + H*W, out_dim]."""
    if tokens.ndim != 3:
        raise ShapeError("expected [B, T + H*W, D] pooled tokens")
    return linear(tokens, params.proj_w, params.proj_b)


# -- learnable-query transformer ----------------------------------------------------


@dataclass
class QueryTransformerParams:
    """Learnable queries plus cross/self-attention blocks over them."""

    queries: Value  # [N_q, D_q]
    layers: list
    n_heads: int

    sep = "_"  # its layers' checkpoint names keep their field names: layer0.ln_q_g

    @classmethod
    def create(
        cls, rng: np.random.Generator, n_queries: int, d_in: int, d_q: int, n_layers: int, n_heads: int
    ) -> "QueryTransformerParams":
        if n_queries < 1:
            raise ValueError("need at least one query")
        if d_q % n_heads:
            raise ValueError(f"query width {d_q} not divisible by {n_heads} heads")
        layers = [QueryLayerParams.create(rng, d_in, d_q, self_attention=True) for _ in range(n_layers)]
        return cls(
            queries=normal_param(rng, (n_queries, d_q), 0.5),
            layers=layers,
            n_heads=n_heads,
        )


def query_transformer_batch(inputs: Value, params: QueryTransformerParams) -> tuple[Value, np.ndarray]:
    """Run the query stack over [B, M, D_in] inputs.

    Returns (tokens [B, N_q, D_q], mask [B, M, N_q]). The mask is the final
    layer's cross attention averaged over heads and transposed to
    input-by-query, as a plain float32 array: each column is one query's
    softmax distribution over the inputs and sums to one; rows do not.

    The stack and its row layout are ``decoder.query_stack``'s.
    """
    if inputs.ndim != 3:
        raise ShapeError("query_transformer_batch expects [B, M, D_in]")
    b, m, _ = inputs.shape
    nq, dq = params.queries.shape
    x, cross = query_stack(params.queries, inputs, params.layers, params.n_heads)
    mask = cross.reshape(b, nq, params.n_heads, m).mean(axis=2).transpose(0, 2, 1)  # head mean, [B, M, N_q]
    return reshape(x, (b, nq, dq)), mask


# -- slot-parity wrapper --------------------------------------------------------------


class WrapParams(ConnectorParams):
    """The two-branch connector's state with a query transformer per branch.

    Only the aggregators differ from ``ConnectorParams``: two query stacks of
    ``cfg.qt_layers`` layers with ``cfg.qt_heads`` heads, created before the
    shared tensors and named under ``prefix`` by ``engine.named_params``.
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


def slowfast_wrap(views, cfg: ConnectorConfig, params: WrapParams, branch: str):
    """Token-count-parity baseline forward over a batch's views; ``branch`` selects slow, fast or both branches."""
    return join_branches(views, cfg, params, branch, wrap_slow_batch, wrap_fast_batch)
