"""Iterative slot attention: a fixed set of slots competes for input tokens.

Attention logits are normalized over the *slot* axis, so slots compete for
each token; per-slot weights are then renormalized across tokens before the
weighted update. The returned mask is the final-iteration competition matrix
as a plain float32 array [sets, tokens, slots], the one mask format every
aggregator returns; each row sums to one.

``forward_batch`` is one engine node, ``engine.slot_attention``, for the
input norm and every iteration: the slot state of the whole batch is kept as
[B*N, D_slot] rows, so the query, the gated update and the MLP run as 2-D
GEMMs and row ops over all slots, and only the read sees the set structure.

The read works in input space and slot-major: with normalized inputs
``xhat`` [B, M, D_in] and a ones column, ``X = [xhat | 1]``, the logits are
``q X^T`` [B, N, M] against a transpose of ``X`` built once per call, and the
read is ``w X`` [B, N, D_in+1], so no per-token keys or values [B, M, D_slot]
are ever built. The input norm's affine, the key weights, the slot norm's
gain and the temperature fold into one [D_slot, D_in+1] query map, and the
value weights into the gated update's input weights, ``wv [wz|wr|wh]``,
once per call; the input norm's bias becomes the ones column's share. The
inputs get a per-token adjoint only when they need one (the fast branch
through its position embedding; never the raw frames of the slow branch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import GruParams, Value, linear_param, normal_param, ones_param, slot_attention, zeros_param

ATTN_EPS = 1e-8


@dataclass
class SlotAttentionParams:
    """Learnable state of one slot-attention module.

    One distinct initialization vector per slot; shared projections for keys,
    values and queries; a gated recurrent update and a residual MLP applied
    after every iteration. The slot norm has a gain but no bias: a shift of
    the normalized slots moves every slot's logit for a token by the same
    amount, which the softmax over slots cancels, so its gradient is zero.
    """

    slots: Value  # [N, D_slot]
    in_norm_g: Value
    in_norm_b: Value
    slot_norm_g: Value
    mlp_norm_g: Value
    mlp_norm_b: Value
    wq: Value  # [D_slot, D_slot]
    wk: Value  # [D_in, D_slot]
    wv: Value  # [D_in, D_slot]
    mlp_w1: Value
    mlp_b1: Value
    mlp_w2: Value
    mlp_b2: Value
    gru: GruParams
    iterations: int = 3
    eps: float = ATTN_EPS

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_slots: int,
        d_in: int,
        d_slot: int,
        iterations: int = 3,
    ) -> "SlotAttentionParams":
        if n_slots < 1 or iterations < 1:
            raise ValueError("need at least one slot and one iteration")
        hidden = 2 * d_slot
        return cls(
            slots=normal_param(rng, (n_slots, d_slot), 0.02),
            in_norm_g=ones_param(d_in),
            in_norm_b=zeros_param(d_in),
            slot_norm_g=ones_param(d_slot),
            mlp_norm_g=ones_param(d_slot),
            mlp_norm_b=zeros_param(d_slot),
            wq=linear_param(rng, d_slot, d_slot),
            wk=linear_param(rng, d_in, d_slot),
            wv=linear_param(rng, d_in, d_slot),
            gru=GruParams.create(rng, d_slot),
            mlp_w1=linear_param(rng, d_slot, hidden),
            mlp_b1=zeros_param(hidden),
            mlp_w2=linear_param(rng, hidden, d_slot),
            mlp_b2=zeros_param(d_slot),
            iterations=iterations,
        )


def forward_batch(inputs: Value, params: SlotAttentionParams) -> tuple[Value, np.ndarray]:
    """Run the iterative competition on a batch of token sets.

    ``inputs`` is [B, M, D_in]; returns (slots [B, N, D_slot],
    mask [B, M, N]) where the mask is the final-iteration competition, rows
    over slots, as a plain float32 array (no gradient flows through it).
    """
    temp = np.float32(1.0 / np.sqrt(params.slots.data.shape[1]))
    return slot_attention(inputs, params.slots, params, params.iterations, temp)
