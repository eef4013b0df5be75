"""Learned-query stacks, and the decoder that reconstructs token features from a slot set.

A learned-query stack runs learned queries [N_q, D] over each set of a batch
of inputs [B, M, D_in]. ``query_stack`` keeps the queries of the whole batch
as [B*N_q, D] rows, so every weight product and layer norm is one 2-D GEMM or
row op over all queries, and only the attention logits and reads see the
[B, N_q, ...] set structure; the first layer reads the N_q queries once,
shared by every set. Each ``QueryLayerParams`` layer is two or three
engine nodes over the rows: ``engine.cross_attention_block``, then
``engine.self_attention_block`` when the layer has self-attention weights,
then ``engine.residual_mlp``. The attention nodes split their heads and merge
them as array views inside the node. The cross-attention node folds the
layer's weights, so no per-token keys or values [B, M, D] are built; it
states the fold algebra, when the fold pays, and the side of each set it
applies the folds to (the slots for the decoder, the query rows for the
query transformer in ``baselines`` at the default shapes).

The decoder is such a stack of ``DECODER_LAYERS`` layers with one head and
no self-attention: one learned query per output position cross-attends to
the normalized slots, then an output norm and an affine head map the rows
back to the feature width, and one reshape gives [B, M, D_out]. It is
non-autoregressive, and invariant to slot order because the slots enter only
as an unordered set. The decoder width is the slot width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import (
    ShapeError,
    Value,
    cross_attention_block,
    layer_norm,
    linear,
    linear_param,
    normal_param,
    ones_param,
    reshape,
    residual_mlp,
    self_attention_block,
    zeros_param,
)


@dataclass
class QueryLayerParams:
    """One layer of a learned-query stack: the cross-attention weights, the
    self-attention weights (None in a layer without), then the MLP weights,
    named by ``engine.named_params`` (``layer0.ln_q.g``; ``layer0.ln_q_g`` in
    the query transformer)."""

    ln_q_g: Value
    ln_q_b: Value
    wq: Value  # [D, D]
    wk: Value  # [D_in, D]
    wv: Value  # [D_in, D]
    wo: Value
    bo: Value
    ln_s_g: Value | None
    ln_s_b: Value | None
    s_wq: Value | None
    s_wk: Value | None
    s_wv: Value | None
    s_wo: Value | None
    s_bo: Value | None
    ln_f_g: Value
    ln_f_b: Value
    ff_w1: Value  # [D, 2D]
    ff_b1: Value
    ff_w2: Value
    ff_b2: Value

    @classmethod
    def create(cls, rng: np.random.Generator, d_in: int, d: int, self_attention: bool) -> "QueryLayerParams":
        def attention(d_kv):
            return (ones_param(d), zeros_param(d), linear_param(rng, d, d), linear_param(rng, d_kv, d),
                    linear_param(rng, d_kv, d), linear_param(rng, d, d), zeros_param(d))

        cross = attention(d_in)
        attend = attention(d) if self_attention else (None,) * 7
        return cls(*cross, *attend, ones_param(d), zeros_param(d), linear_param(rng, d, 2 * d), zeros_param(2 * d),
                   linear_param(rng, 2 * d, d), zeros_param(d))


def query_stack(queries: Value, inputs: Value, layers: list, heads: int) -> tuple[Value, np.ndarray]:
    """Run ``layers`` from the learned ``queries`` [N_q, D] over each set of ``inputs`` [B, M, D_in].

    The queries enter the first layer's cross-attention node once, as
    [1, N_q, D] rows shared by every set: it normalizes the N_q rows once and
    returns [B*N_q, D] rows, so no B-fold copy of the queries is made, and
    the queries' adjoint is the per-set adjoints summed inside the node.
    Returns (the query rows [B*N_q, D], the last layer's cross attention
    [B, N_q*heads, M] as a plain array).
    """
    b = inputs.shape[0]
    x = reshape(queries, (1,) + queries.shape)
    for layer in layers:
        x, cross = cross_attention_block(x, inputs, heads, layer.ln_q_g, layer.ln_q_b, layer.wq, layer.wk, layer.wv,
                                         layer.wo, layer.bo)
        if layer.s_wq is not None:
            x = self_attention_block(x, b, heads, layer.ln_s_g, layer.ln_s_b, layer.s_wq, layer.s_wk, layer.s_wv,
                                     layer.s_wo, layer.s_bo)
        x = residual_mlp(x, layer.ln_f_g, layer.ln_f_b, layer.ff_w1, layer.ff_b1, layer.ff_w2, layer.ff_b2)
    return x, cross


DECODER_LAYERS = 2


@dataclass
class DecoderParams:
    """Learned position queries, attention blocks and the output head."""

    pos_queries: Value  # [M, D_dec]
    in_norm_g: Value  # applied to incoming slots
    in_norm_b: Value
    out_norm_g: Value
    out_norm_b: Value
    head_w: Value  # [D_dec, D_out]
    head_b: Value
    layers: list

    @classmethod
    def create(cls, rng: np.random.Generator, n_positions: int, d_slot: int, d_out: int) -> "DecoderParams":
        d = d_slot
        layers = [QueryLayerParams.create(rng, d, d, self_attention=False) for _ in range(DECODER_LAYERS)]
        return cls(
            pos_queries=normal_param(rng, (n_positions, d), 0.5),
            in_norm_g=ones_param(d),
            in_norm_b=zeros_param(d),
            layers=layers,
            out_norm_g=ones_param(d),
            out_norm_b=zeros_param(d),
            head_w=linear_param(rng, d, d_out),
            head_b=zeros_param(d_out),
        )


def decode_batch(slots: Value, params: DecoderParams) -> Value:
    """Decode [B, N, D_slot] slot sets into [B, M, D_out] feature grids."""
    if slots.ndim != 3:
        raise ShapeError("decode_batch expects [B, N, D_slot] slots")
    b = slots.shape[0]
    m = params.pos_queries.shape[0]
    x, _ = query_stack(params.pos_queries, layer_norm(slots, params.in_norm_g, params.in_norm_b), params.layers, 1)
    out = linear(layer_norm(x, params.out_norm_g, params.out_norm_b), params.head_w, params.head_b)
    return reshape(out, (b, m, out.shape[1]))


def recon_loss(predicted: Value, target: Value) -> Value:
    """Mean squared error over every entry; differentiable."""
    predicted = predicted if isinstance(predicted, Value) else Value(predicted)
    target = target if isinstance(target, Value) else Value(target)
    if predicted.data.shape != target.data.shape:
        raise ShapeError(
            f"recon_loss shapes differ: {predicted.data.shape} vs {target.data.shape}"
        )
    diff = engine.sub(predicted, target)
    return engine.vmean(engine.mul(diff, diff))
