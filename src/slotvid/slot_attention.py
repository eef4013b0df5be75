"""Iterative slot attention: a fixed set of slots competes for input tokens.

Attention logits are normalized over the *slot* axis, so slots compete for
each token; per-slot weights are then renormalized across tokens before the
weighted update. The returned mask is the final-iteration competition matrix,
one row per input token, rows summing to one.

Inside ``forward_batch`` the slot state of the whole batch is kept as
[B*N, D_slot] rows, so the query projection, the gated update, the MLP and
their layer norms each run as one 2-D GEMM or row op over all slots; only the
fused read ``engine.slot_attention_step`` sees the [B, N, ...] set structure.

The read works in input space: with normalized inputs ``xn`` [B, M, D_in],
the logits ``(xn wk) q^T`` are evaluated as ``xn (q wk^T)^T`` and the update
``weights^T (xn wv)`` as ``(weights^T xn) wv``, so no per-token keys or values
[B, M, D_att] are ever built, and the inputs receive one adjoint per
iteration instead of a key and a value adjoint. The key weights fold into the
query weights once per call (``wq wk^T``, [D_slot, D_in]); the value weights
apply to N read rows per set and iteration instead of M token rows once, which
is cheaper while iterations x slots stays below the token count (3 x 8 = 24
against 256 slow and 32 fast tokens by default). The logits and the read run
over D_in (32) instead of D_att and D_slot (64). The mask, the parameters and
their checkpoint names are those of the keys-and-values form; values agree
with it to float32 rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import engine
from .engine import (
    GruParams,
    ShapeError,
    Value,
    add,
    broadcast_to,
    gru_step,
    layer_norm,
    matmul,
    reshape,
    slot_attention_step,
    transpose,
)

ATTN_EPS = 1e-8


@dataclass
class MaskLayout:
    """Maps mask row indices back to their source: a spatial grid or a time axis."""

    kind: str  # "spatial" | "temporal"
    dims: tuple

    def __post_init__(self):
        if self.kind not in ("spatial", "temporal"):
            raise ValueError(f"unknown layout kind {self.kind!r}")


@dataclass
class AttentionMask:
    """Token-by-slot weight matrix [M, N] with an optional row layout."""

    weights: np.ndarray
    layout: Optional[MaskLayout] = None

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float32)
        if self.weights.ndim != 2:
            raise ShapeError("attention mask must be [tokens, slots]")

    @property
    def n_tokens(self) -> int:
        return self.weights.shape[0]

    @property
    def n_slots(self) -> int:
        return self.weights.shape[1]


@dataclass
class SlotAttentionParams:
    """Learnable state of one slot-attention module.

    One distinct initialization vector per slot; shared projections for keys,
    values and queries; a gated recurrent update and a residual MLP applied
    after every iteration.
    """

    slots: Value  # [N, D_slot]
    in_norm_g: Value
    in_norm_b: Value
    slot_norm_g: Value
    slot_norm_b: Value
    mlp_norm_g: Value
    mlp_norm_b: Value
    wq: Value  # [D_slot, D_att]
    wk: Value  # [D_in, D_att]
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
        d_att: int | None = None,
        mlp_hidden: int | None = None,
        iterations: int = 3,
        nonlinearity: str = "gelu-like",
    ) -> "SlotAttentionParams":
        if n_slots < 1 or iterations < 1:
            raise ValueError("need at least one slot and one iteration")
        d_att = d_slot if d_att is None else d_att
        hidden = 2 * d_slot if mlp_hidden is None else mlp_hidden

        def ones(d):
            return Value(np.ones(d, dtype=np.float32), requires_grad=True)

        def zeros(d):
            return Value(np.zeros(d, dtype=np.float32), requires_grad=True)

        def lin(fi, fo):
            return Value(engine.linear_init(rng, fi, fo), requires_grad=True)

        return cls(
            slots=Value(engine.normal(rng, (n_slots, d_slot), std=0.02), requires_grad=True),
            in_norm_g=ones(d_in),
            in_norm_b=zeros(d_in),
            slot_norm_g=ones(d_slot),
            slot_norm_b=zeros(d_slot),
            mlp_norm_g=ones(d_slot),
            mlp_norm_b=zeros(d_slot),
            wq=lin(d_slot, d_att),
            wk=lin(d_in, d_att),
            wv=lin(d_in, d_slot),
            gru=GruParams.create(rng, d_slot),
            mlp_w1=lin(d_slot, hidden),
            mlp_b1=zeros(hidden),
            mlp_w2=lin(hidden, d_slot),
            mlp_b2=zeros(d_slot),
            iterations=iterations,
            nonlinearity=nonlinearity,
        )

    @property
    def n_slots(self) -> int:
        return self.slots.data.shape[0]

    @property
    def d_slot(self) -> int:
        return self.slots.data.shape[1]

    @property
    def d_att(self) -> int:
        return self.wq.data.shape[1]

    def named(self, prefix: str) -> dict:
        out = {
            f"{prefix}.slots": self.slots,
            f"{prefix}.in_norm.g": self.in_norm_g,
            f"{prefix}.in_norm.b": self.in_norm_b,
            f"{prefix}.slot_norm.g": self.slot_norm_g,
            f"{prefix}.slot_norm.b": self.slot_norm_b,
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


def forward_batch(inputs: Value, params: SlotAttentionParams) -> tuple[Value, Value]:
    """Run the iterative competition on a batch of token sets.

    ``inputs`` is [B, M, D_in]; returns (slots [B, N, D_slot],
    attn [B, M, N]) where attn is the final-iteration mask, rows over slots,
    as a constant (no gradient flows through it).
    """
    if inputs.ndim != 3:
        raise ShapeError("forward_batch expects [B, M, D_in] inputs")
    b, m, _ = inputs.shape
    n, d_slot = params.slots.data.shape
    nonlin = engine.NONLINEARITIES[params.nonlinearity]
    temp = np.float32(1.0 / np.sqrt(params.d_att))

    xn = layer_norm(inputs, params.in_norm_g, params.in_norm_b)  # [B, M, D_in]
    d_in = xn.shape[-1]
    # keys in the queries: (xn wk) q^T = xn (q wk^T)^T, so no [B, M, D_att] keys exist
    wqk = matmul(params.wq, transpose(params.wk, (1, 0)))  # [D_slot, D_in]

    # slot state as [B*N, D_slot] rows: every slot-side op is one 2-D GEMM or row op
    slots = reshape(broadcast_to(reshape(params.slots, (1, n, d_slot)), (b, n, d_slot)), (b * n, d_slot))
    mask = None
    for _ in range(params.iterations):
        q = matmul(layer_norm(slots, params.slot_norm_g, params.slot_norm_b), wqk)
        read, mask = slot_attention_step(xn, reshape(q, (b, n, d_in)), temp, params.eps)
        # values after the read: weights^T (xn wv) = (weights^T xn) wv
        updates = matmul(reshape(read, (b * n, d_in)), params.wv)
        slots = gru_step(slots, updates, params.gru)
        hidden = nonlin(add(matmul(layer_norm(slots, params.mlp_norm_g, params.mlp_norm_b), params.mlp_w1), params.mlp_b1))
        slots = add(slots, add(matmul(hidden, params.mlp_w2), params.mlp_b2))
    return reshape(slots, (b, n, d_slot)), Value(mask)


def slot_attention_forward(
    inputs, params: SlotAttentionParams, layout: MaskLayout | None = None
) -> tuple[Value, AttentionMask]:
    """Map one token set [M, D_in] to (slots [N, D_slot], AttentionMask)."""
    val = inputs if isinstance(inputs, Value) else Value(inputs)
    if val.ndim != 2:
        raise ShapeError("slot_attention_forward expects [M, D_in] inputs")
    m, d_in = val.shape
    if m < 1:
        raise ShapeError("need at least one input token")
    slots, attn = forward_batch(reshape(val, (1, m, d_in)), params)
    n = params.n_slots
    mask = AttentionMask(attn.data.reshape(m, n).copy(), layout)
    return reshape(slots, (n, params.d_slot)), mask


def permute_slots_check(inputs, params: SlotAttentionParams, perm, tol: float = 1e-5) -> bool:
    """True iff permuting the slot initializers permutes outputs identically."""
    perm = np.asarray(perm, dtype=np.intp)
    n = params.n_slots
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError("perm must be a permutation of 0..N-1")
    with engine.no_grad():
        base_slots, base_mask = slot_attention_forward(inputs, params)
        permuted = SlotAttentionParams(
            slots=Value(params.slots.data[perm].copy()),
            in_norm_g=params.in_norm_g,
            in_norm_b=params.in_norm_b,
            slot_norm_g=params.slot_norm_g,
            slot_norm_b=params.slot_norm_b,
            mlp_norm_g=params.mlp_norm_g,
            mlp_norm_b=params.mlp_norm_b,
            wq=params.wq,
            wk=params.wk,
            wv=params.wv,
            gru=params.gru,
            mlp_w1=params.mlp_w1,
            mlp_b1=params.mlp_b1,
            mlp_w2=params.mlp_w2,
            mlp_b2=params.mlp_b2,
            iterations=params.iterations,
            eps=params.eps,
            nonlinearity=params.nonlinearity,
        )
        out_slots, out_mask = slot_attention_forward(inputs, permuted)
    slots_ok = np.allclose(out_slots.data, base_slots.data[perm], atol=tol)
    mask_ok = np.allclose(out_mask.weights, base_mask.weights[:, perm], atol=tol)
    return bool(slots_ok and mask_ok)
