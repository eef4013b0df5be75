"""Transformer decoder that reconstructs token features from a slot set.

Non-autoregressive: one learned query per output position cross-attends to
the slots through a stack of pre-norm attention + feed-forward blocks, then an
affine head maps back to the feature width. Decoding is invariant to slot
order because the slots enter only as an unordered key/value set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import engine
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
    nonlinearity: str = "gelu-like"

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_positions: int,
        d_slot: int,
        d_out: int,
        d_dec: int | None = None,
        n_layers: int = 2,
        nonlinearity: str = "gelu-like",
    ) -> "DecoderParams":
        d_dec = d_slot if d_dec is None else d_dec

        def ones(d):
            return Value(np.ones(d, dtype=np.float32), requires_grad=True)

        def zeros(d):
            return Value(np.zeros(d, dtype=np.float32), requires_grad=True)

        def lin(fi, fo):
            return Value(engine.linear_init(rng, fi, fo), requires_grad=True)

        layers = []
        for _ in range(n_layers):
            layers.append(
                DecoderLayerParams(
                    ln_q_g=ones(d_dec),
                    ln_q_b=zeros(d_dec),
                    wq=lin(d_dec, d_dec),
                    wk=lin(d_slot, d_dec),
                    wv=lin(d_slot, d_dec),
                    wo=lin(d_dec, d_dec),
                    bo=zeros(d_dec),
                    ln_f_g=ones(d_dec),
                    ln_f_b=zeros(d_dec),
                    ff_w1=lin(d_dec, 2 * d_dec),
                    ff_b1=zeros(2 * d_dec),
                    ff_w2=lin(2 * d_dec, d_dec),
                    ff_b2=zeros(d_dec),
                )
            )
        return cls(
            pos_queries=Value(engine.normal(rng, (n_positions, d_dec), std=0.5), requires_grad=True),
            in_norm_g=ones(d_slot),
            in_norm_b=zeros(d_slot),
            layers=layers,
            out_norm_g=ones(d_dec),
            out_norm_b=zeros(d_dec),
            head_w=lin(d_dec, d_out),
            head_b=zeros(d_out),
            nonlinearity=nonlinearity,
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


def decode_batch(slots: Value, params: DecoderParams, return_attn: bool = False):
    """Decode [B, N, D_slot] slot sets into [B, M, D_out] feature grids."""
    if slots.ndim != 3:
        raise ShapeError("decode_batch expects [B, N, D_slot] slots")
    b = slots.shape[0]
    m, d_dec = params.pos_queries.data.shape
    nonlin = engine.NONLINEARITIES[params.nonlinearity]
    temp = np.float32(1.0 / np.sqrt(d_dec))

    kv = layer_norm(slots, params.in_norm_g, params.in_norm_b)
    x = broadcast_to(reshape(params.pos_queries, (1, m, d_dec)), (b, m, d_dec))
    attn = None
    for layer in params.layers:
        q = matmul(layer_norm(x, layer.ln_q_g, layer.ln_q_b), layer.wq)
        k = matmul(kv, layer.wk)
        v = matmul(kv, layer.wv)
        logits = scale(matmul(q, transpose(k, (0, 2, 1))), temp)  # [B, M, N]
        attn = softmax_axis(logits, axis=2)  # over the slot set
        ctx = matmul(attn, v)
        x = add(x, add(matmul(ctx, layer.wo), layer.bo))
        hidden = nonlin(add(matmul(layer_norm(x, layer.ln_f_g, layer.ln_f_b), layer.ff_w1), layer.ff_b1))
        x = add(x, add(matmul(hidden, layer.ff_w2), layer.ff_b2))
    out = add(matmul(layer_norm(x, params.out_norm_g, params.out_norm_b), params.head_w), params.head_b)
    if return_attn:
        return out, attn
    return out


def recon_loss(predicted: Value, target: Value) -> Value:
    """Mean squared error over every entry; differentiable."""
    predicted = predicted if isinstance(predicted, Value) else Value(predicted)
    target = target if isinstance(target, Value) else Value(target)
    if predicted.data.shape != target.data.shape:
        raise ShapeError(
            f"recon_loss shapes differ: {predicted.data.shape} vs {target.data.shape}"
        )
    diff = engine.sub(predicted, target)
    return engine.mul(diff, diff).mean()
