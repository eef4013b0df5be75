"""Transformer decoder that reconstructs token features from a slot set.

Non-autoregressive: one learned query per output position cross-attends to
the normalized slots through a stack of pre-norm attention + feed-forward
blocks, then an affine head maps back to the feature width. Decoding is
invariant to slot order because the slots enter only as an unordered set.

Each block is two engine nodes: ``engine.cross_attention_block`` with one
head, the attention block the query transformer in ``baselines`` shares,
and ``engine.residual_mlp``. The position queries of the whole batch are
[B*M, D_dec] rows, so every weight product, layer norm and the head is one
2-D GEMM or row op, and one reshape after the head gives [B, M, D_out]. The
decoder width is the slot width. The attention node folds the layer's
weights and applies the folds to the N slots of each set rather than to the
M position rows, by the rule and at the cost it states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import (
    ShapeError,
    Value,
    broadcast_to,
    cross_attention_block,
    layer_norm,
    linear,
    linear_param,
    normal_param,
    ones_param,
    reshape,
    residual_mlp,
    zeros_param,
)


@dataclass
class DecoderLayerParams:
    ln_q_g: Value
    ln_q_b: Value
    wq: Value
    wk: Value
    wv: Value
    wo: Value
    bo: Value
    ln_f_g: Value
    ln_f_b: Value
    ff_w1: Value
    ff_b1: Value
    ff_w2: Value
    ff_b2: Value

    def named(self, prefix: str) -> dict:
        return {
            f"{prefix}.ln_q.g": self.ln_q_g,
            f"{prefix}.ln_q.b": self.ln_q_b,
            f"{prefix}.wq": self.wq,
            f"{prefix}.wk": self.wk,
            f"{prefix}.wv": self.wv,
            f"{prefix}.wo": self.wo,
            f"{prefix}.bo": self.bo,
            f"{prefix}.ln_f.g": self.ln_f_g,
            f"{prefix}.ln_f.b": self.ln_f_b,
            f"{prefix}.ff.w1": self.ff_w1,
            f"{prefix}.ff.b1": self.ff_b1,
            f"{prefix}.ff.w2": self.ff_w2,
            f"{prefix}.ff.b2": self.ff_b2,
        }


@dataclass
class DecoderParams:
    """Learned position queries, attention blocks and the output head."""

    pos_queries: Value  # [M, D_dec]
    in_norm_g: Value  # applied to incoming slots
    in_norm_b: Value
    layers: list
    out_norm_g: Value
    out_norm_b: Value
    head_w: Value  # [D_dec, D_out]
    head_b: Value

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_positions: int,
        d_slot: int,
        d_out: int,
        n_layers: int = 2,
    ) -> "DecoderParams":
        d = d_slot
        layers = [
            DecoderLayerParams(
                ln_q_g=ones_param(d), ln_q_b=zeros_param(d),
                wq=linear_param(rng, d, d), wk=linear_param(rng, d, d), wv=linear_param(rng, d, d),
                wo=linear_param(rng, d, d), bo=zeros_param(d),
                ln_f_g=ones_param(d), ln_f_b=zeros_param(d),
                ff_w1=linear_param(rng, d, 2 * d), ff_b1=zeros_param(2 * d),
                ff_w2=linear_param(rng, 2 * d, d), ff_b2=zeros_param(d),
            )
            for _ in range(n_layers)
        ]
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

    def named(self, prefix: str) -> dict:
        out = {
            f"{prefix}.pos_queries": self.pos_queries,
            f"{prefix}.in_norm.g": self.in_norm_g,
            f"{prefix}.in_norm.b": self.in_norm_b,
            f"{prefix}.out_norm.g": self.out_norm_g,
            f"{prefix}.out_norm.b": self.out_norm_b,
            f"{prefix}.head.w": self.head_w,
            f"{prefix}.head.b": self.head_b,
        }
        for i, layer in enumerate(self.layers):
            out.update(layer.named(f"{prefix}.layer{i}"))
        return out


def decode_batch(slots: Value, params: DecoderParams) -> Value:
    """Decode [B, N, D_slot] slot sets into [B, M, D_out] feature grids."""
    if slots.ndim != 3:
        raise ShapeError("decode_batch expects [B, N, D_slot] slots")
    b = slots.shape[0]
    m, d_dec = params.pos_queries.data.shape

    sn = layer_norm(slots, params.in_norm_g, params.in_norm_b)
    x = reshape(broadcast_to(reshape(params.pos_queries, (1, m, d_dec)), (b, m, d_dec)), (b * m, d_dec))
    for layer in params.layers:
        x, _ = cross_attention_block(x, sn, 1, layer.ln_q_g, layer.ln_q_b, layer.wq, layer.wk, layer.wv, layer.wo,
                                     layer.bo)
        x = residual_mlp(x, layer.ln_f_g, layer.ln_f_b, layer.ff_w1, layer.ff_b1, layer.ff_w2, layer.ff_b2)
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
