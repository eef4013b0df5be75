"""Fused GRU and slot-attention step checked against their composite references.

The references below build the same computations from primitive engine ops,
one graph node per primitive. The fused forwards evaluate the same products
and sums in the same order (the attention read takes its column sums as a
GEMM against a ones vector, and so does its reference), so they must match
bit for bit; their analytic backwards sum in a different order, so gradients
agree within a float32 tolerance fixed before measuring.
"""

import numpy as np
import pytest

from slotvid import engine
from slotvid.engine import (
    GruParams,
    ShapeError,
    Value,
    add,
    broadcast_to,
    gru_step,
    matmul,
    mul,
    scale,
    sigmoid,
    slot_attention_step,
    softmax_axis,
    sub,
    tanh,
    transpose,
)

from gradcheck import fd_check, recip

RTOL = 1e-5
ATOL = 1e-6


def reference_gru(h, x, p):
    """Composite gated update: h' = (1-z) * h + z * tanh-candidate."""
    z = sigmoid(add(add(matmul(x, p.wz), matmul(h, p.uz)), p.bz))
    r = sigmoid(add(add(matmul(x, p.wr), matmul(h, p.ur)), p.br))
    cand = tanh(add(add(matmul(x, p.wh), matmul(mul(r, h), p.uh)), p.bh))
    return add(mul(sub(1.0, z), h), mul(z, cand))


def reference_attention_step(x, q, temp, eps):
    """Composite slot-attention read with keys = values = ``x``: softmax over slots,
    column renormalization, weighted mean."""
    logits = scale(matmul(x, transpose(q, (0, 2, 1))), temp)
    attn = softmax_axis(logits, axis=2)
    col_sums = matmul(np.ones((1, x.shape[1]), dtype=np.float32), attn)
    weights = mul(attn, broadcast_to(recip(add(col_sums, np.float32(eps))), attn.shape))
    return matmul(transpose(weights, (0, 2, 1)), x), attn


def _leaf(rng, shape, std=1.0):
    return Value(engine.normal(rng, shape, std=std), requires_grad=True)


def _grads(build, leaves):
    engine.zero_grads(leaves)
    engine.backward(build())
    return [p.grad.copy() for p in leaves]


def _gru_case(seed, shape):
    rng = engine.rng_for(seed, "fused-gru")
    p = GruParams.create(rng, shape[-1])
    for name in ("bz", "br", "bh"):
        getattr(p, name).data = engine.normal(rng, (shape[-1],), std=0.5)
    h, x = _leaf(rng, shape), _leaf(rng, shape)
    probe = engine.normal(rng, shape)
    leaves = [h, x] + list(p.named("gru").values())
    return p, h, x, probe, leaves


def _attention_case(seed, b, m, n, d):
    rng = engine.rng_for(seed, "fused-attn")
    x, q = _leaf(rng, (b, m, d)), _leaf(rng, (b, n, d))
    probe = engine.normal(rng, (b, n, d))
    return x, q, probe


GRU_SHAPES = [(1, 3), (5, 4), (3, 4, 6), (16, 8)]
ATTENTION_SHAPES = [(1, 1, 1, 3), (2, 5, 3, 4), (4, 17, 8, 6), (3, 32, 2, 7)]


class TestFusedGru:
    @pytest.mark.parametrize("shape", GRU_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_bit_equal_to_composite(self, seed, shape):
        p, h, x, _, _ = _gru_case(seed, shape)
        fused = gru_step(h, x, p)
        ref = reference_gru(h, x, p)
        assert fused.data.shape == shape
        np.testing.assert_array_equal(fused.data, ref.data)

    @pytest.mark.parametrize("shape", GRU_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_composite(self, seed, shape):
        p, h, x, probe, leaves = _gru_case(seed, shape)
        fused = _grads(lambda: mul(gru_step(h, x, p), probe).sum(), leaves)
        ref = _grads(lambda: mul(reference_gru(h, x, p), probe).sum(), leaves)
        for got, want in zip(fused, ref):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_input_without_grad_gets_none(self):
        p, h, _, probe, _ = _gru_case(4, (3, 4))
        x = Value(engine.normal(engine.rng_for(4, "x"), (3, 4)))
        engine.backward(mul(gru_step(h, x, p), probe).sum())
        assert x._grad is None
        assert np.any(h.grad != 0.0)

    def test_finite_differences(self):
        p, h, x, probe, leaves = _gru_case(7, (2, 3, 4))

        def build():
            return mul(gru_step(h, x, p), probe).sum()

        ok, total = fd_check(build, leaves, engine.rng_for(7, "pick"), coords_per_param=4)
        assert ok / total >= 0.95

    def test_weight_shape_mismatch(self):
        p, h, x, _, _ = _gru_case(0, (2, 4))
        p.uh = Value(np.zeros((4, 3), dtype=np.float32))
        with pytest.raises(ShapeError):
            gru_step(h, x, p)


class TestFusedAttentionStep:
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    @pytest.mark.parametrize("dims", ATTENTION_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_bit_equal_to_composite(self, seed, dims, eps):
        x, q, _ = _attention_case(seed, *dims)
        temp = np.float32(1.0 / np.sqrt(dims[3]))
        updates, mask = slot_attention_step(x, q, temp, eps)
        ref_updates, ref_attn = reference_attention_step(x, q, temp, eps)
        np.testing.assert_array_equal(updates.data, ref_updates.data)
        np.testing.assert_array_equal(mask, ref_attn.data)
        assert isinstance(mask, np.ndarray)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    @pytest.mark.parametrize("dims", ATTENTION_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_composite(self, seed, dims, eps):
        x, q, probe = _attention_case(seed, *dims)
        temp = np.float32(1.0 / np.sqrt(dims[3]))
        leaves = [x, q]
        fused = _grads(lambda: mul(slot_attention_step(x, q, temp, eps)[0], probe).sum(), leaves)
        ref = _grads(lambda: mul(reference_attention_step(x, q, temp, eps)[0], probe).sum(), leaves)
        for got, want in zip(fused, ref):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_finite_differences(self, eps):
        x, q, probe = _attention_case(9, 2, 6, 3, 4)

        def build():
            return mul(slot_attention_step(x, q, 0.5, eps)[0], probe).sum()

        ok, total = fd_check(build, [x, q], engine.rng_for(9, "pick"), coords_per_param=6)
        assert ok / total >= 0.95

    @pytest.mark.parametrize("constant", ["x", "q"])
    def test_operand_without_grad_gets_none(self, constant):
        x, q, probe = _attention_case(2, 2, 5, 3, 4)
        if constant == "x":
            x = Value(x.data)
        else:
            q = Value(q.data)
        const, live = (x, q) if constant == "x" else (q, x)
        engine.backward(mul(slot_attention_step(x, q, 0.5, 1e-8)[0], probe).sum())
        assert const._grad is None
        assert np.any(live.grad != 0.0)

    def test_mask_rows_sum_to_one(self):
        x, q, _ = _attention_case(3, 3, 10, 4, 4)
        _, mask = slot_attention_step(x, q, 0.5, 1e-8)
        np.testing.assert_allclose(mask.sum(axis=2), 1.0, atol=1e-6)

    def test_shape_checks(self):
        x, q, _ = _attention_case(0, 2, 5, 3, 4)
        with pytest.raises(ShapeError):
            slot_attention_step(x, q.reshape((6, 4)), 0.5, 0.0)
        with pytest.raises(ShapeError):
            slot_attention_step(x, Value(np.zeros((2, 3, 5), dtype=np.float32)), 0.5, 0.0)
        with pytest.raises(ShapeError):
            slot_attention_step(x, Value(np.zeros((3, 3, 4), dtype=np.float32)), 0.5, 0.0)
