"""Iterative slot attention: a fixed set of slots competes for input tokens.

Attention logits are normalized over the *slot* axis, so slots compete for
each token; per-slot weights are then renormalized across tokens before the
weighted update. The returned mask is the final-iteration competition matrix
as a plain float32 array [sets, tokens, slots], the one mask format every
aggregator returns; each row sums to one.

Inside ``forward_batch`` the slot state of the whole batch is kept as
[B*N, D_slot] rows, so the query projection, the gated update, the MLP and
their layer norms each run as one 2-D GEMM or row op over all slots; only the
fused read ``engine.slot_attention_step`` sees the [B, N, ...] set structure.

The read works in input space: with normalized inputs ``xn`` [B, M, D_in],
the logits ``(xn wk) q^T`` are evaluated as ``xn (q wk^T)^T`` and the update
``weights^T (xn wv)`` as ``(weights^T xn) wv``, so no per-token keys or values
[B, M, D_slot] are ever built, and the inputs receive one adjoint per
iteration instead of a key and a value adjoint. The key weights fold into the
query weights once per call (``wq wk^T``, [D_slot, D_in]); the value weights
apply to N read rows per set and iteration instead of M token rows once, which
is cheaper while iterations x slots stays below the token count (3 x 8 = 24
against 256 slow and 32 fast tokens by default). The logits and the read run
over D_in (32) instead of D_slot (64). The mask, the parameters and
their checkpoint names are those of the keys-and-values form; values agree
with it to float32 rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import (
    GruParams,
    ShapeError,
    Value,
    broadcast_to,
    gru_step,
    layer_norm,
    linear_param,
    matmul,
    normal_param,
    ones_param,
    reshape,
    residual_mlp,
    slot_attention_step,
    transpose,
    zeros_param,
)

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
    gru: GruParams
    mlp_w1: Value
    mlp_b1: Value
    mlp_w2: Value
    mlp_b2: Value
    iterations: int = 3
    eps: float = ATTN_EPS
    nonlinearity: str = "gelu-like"

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        n_slots: int,
        d_in: int,
        d_slot: int,
        mlp_hidden: int | None = None,
        iterations: int = 3,
        nonlinearity: str = "gelu-like",
    ) -> "SlotAttentionParams":
        if n_slots < 1 or iterations < 1:
            raise ValueError("need at least one slot and one iteration")
        hidden = 2 * d_slot if mlp_hidden is None else mlp_hidden
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
            nonlinearity=nonlinearity,
        )

    def named(self, prefix: str) -> dict:
        out = {
            f"{prefix}.slots": self.slots,
            f"{prefix}.in_norm.g": self.in_norm_g,
            f"{prefix}.in_norm.b": self.in_norm_b,
            f"{prefix}.slot_norm.g": self.slot_norm_g,
            f"{prefix}.mlp_norm.g": self.mlp_norm_g,
            f"{prefix}.mlp_norm.b": self.mlp_norm_b,
            f"{prefix}.wq": self.wq,
            f"{prefix}.wk": self.wk,
            f"{prefix}.wv": self.wv,
            f"{prefix}.mlp.w1": self.mlp_w1,
            f"{prefix}.mlp.b1": self.mlp_b1,
            f"{prefix}.mlp.w2": self.mlp_w2,
            f"{prefix}.mlp.b2": self.mlp_b2,
        }
        out.update(self.gru.named(f"{prefix}.gru"))
        return out


def forward_batch(inputs: Value, params: SlotAttentionParams) -> tuple[Value, np.ndarray]:
    """Run the iterative competition on a batch of token sets.

    ``inputs`` is [B, M, D_in]; returns (slots [B, N, D_slot],
    mask [B, M, N]) where the mask is the final-iteration competition, rows
    over slots, as a plain float32 array (no gradient flows through it).
    """
    if inputs.ndim != 3:
        raise ShapeError("forward_batch expects [B, M, D_in] inputs")
    b, m, _ = inputs.shape
    n, d_slot = params.slots.data.shape
    temp = np.float32(1.0 / np.sqrt(d_slot))

    xn = layer_norm(inputs, params.in_norm_g, params.in_norm_b)  # [B, M, D_in]
    d_in = xn.shape[-1]
    # keys in the queries: (xn wk) q^T = xn (q wk^T)^T, so no [B, M, D_slot] keys exist
    wqk = matmul(params.wq, transpose(params.wk, (1, 0)))  # [D_slot, D_in]

    # slot state as [B*N, D_slot] rows: every slot-side op is one 2-D GEMM or row op
    slots = reshape(broadcast_to(reshape(params.slots, (1, n, d_slot)), (b, n, d_slot)), (b * n, d_slot))
    no_shift = np.zeros(d_slot, dtype=np.float32)
    mask = None
    for _ in range(params.iterations):
        q = matmul(layer_norm(slots, params.slot_norm_g, no_shift), wqk)
        read, mask = slot_attention_step(xn, reshape(q, (b, n, d_in)), temp, params.eps)
        # values after the read: weights^T (xn wv) = (weights^T xn) wv
        updates = matmul(reshape(read, (b * n, d_in)), params.wv)
        slots = gru_step(slots, updates, params.gru)
        slots = residual_mlp(slots, params.mlp_norm_g, params.mlp_norm_b, params.mlp_w1, params.mlp_b1,
                             params.mlp_w2, params.mlp_b2, params.nonlinearity)
    return reshape(slots, (b, n, d_slot)), mask

