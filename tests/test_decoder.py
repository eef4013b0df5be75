import math

import numpy as np
import pytest

from slotvid import engine
from slotvid.decoder import DecoderParams, decode_batch, recon_loss
from slotvid.engine import (
    Value,
    add,
    cross_attention_block,
    layer_norm,
    mul,
    reshape,
    scale,
)
from slotvid.slot_attention import SlotAttentionParams, forward_batch

from gradcheck import broadcast_to, fd_check, matmul, smooth_ramp, softmax_axis, transpose, vsum


def make_params(seed, n_positions, d_slot, d_out, n_layers=1):
    rng = engine.rng_for(seed, "dec-params")
    return DecoderParams.create(rng, n_positions, d_slot, d_out, n_layers=n_layers)


def _ln64(x, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _trace_decode(slots, p):
    """Independent float64 evaluation of the decode path."""

    def f64(v):
        return np.asarray(v.data, dtype=np.float64)

    def ramp(x):
        return x / (1.0 + np.exp(-1.702 * x))

    kv = _ln64(slots) * f64(p.in_norm_g) + f64(p.in_norm_b)
    x = f64(p.pos_queries)
    d_dec = x.shape[1]
    for layer in p.layers:
        q = (_ln64(x) * f64(layer.ln_q_g) + f64(layer.ln_q_b)) @ f64(layer.wq)
        k = kv @ f64(layer.wk)
        v = kv @ f64(layer.wv)
        logits = (q @ k.T) / math.sqrt(d_dec)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        x = x + (attn @ v) @ f64(layer.wo) + f64(layer.bo)
        hidden = ramp((_ln64(x) * f64(layer.ln_f_g) + f64(layer.ln_f_b)) @ f64(layer.ff_w1) + f64(layer.ff_b1))
        x = x + hidden @ f64(layer.ff_w2) + f64(layer.ff_b2)
    return (_ln64(x) * f64(p.out_norm_g) + f64(p.out_norm_b)) @ f64(p.head_w) + f64(p.head_b)


class TestDecode:
    def test_zero_head_outputs_bias_everywhere(self):
        p = make_params(1, n_positions=5, d_slot=4, d_out=3)
        p.head_w.data[:] = 0.0
        p.head_b.data[:] = [0.5, -1.0, 2.0]
        rng = engine.rng_for(1, "slots")
        out = decode_batch(Value(engine.normal(rng, (3, 2, 4))), p)
        np.testing.assert_allclose(out.data, np.tile([0.5, -1.0, 2.0], (3, 5, 1)), atol=1e-6)

    def test_single_slot_gets_full_attention(self):
        # the shared cross-attention node as the decoder runs it: one head,
        # 2 sets of 4 position rows over a set of one slot each
        p = make_params(2, n_positions=4, d_slot=4, d_out=3)
        layer = p.layers[0]
        rng = engine.rng_for(2, "slots")
        rows = Value(engine.normal(rng, (2 * 4, 4)))
        slots = Value(engine.normal(rng, (2, 1, 4)))
        _, attn = cross_attention_block(rows, slots, 1, layer.ln_q_g, layer.ln_q_b, layer.wq, layer.wk, layer.wv,
                                        layer.wo, layer.bo)
        assert attn.shape == (2, 4, 1)
        np.testing.assert_allclose(attn, 1.0, atol=1e-7)

    def test_miniature_matches_scalar_trace(self):
        p = make_params(3, n_positions=2, d_slot=3, d_out=2, n_layers=1)
        rng = engine.rng_for(3, "slots")
        slots = engine.normal(rng, (2, 3))
        out = decode_batch(Value(slots[None]), p)
        np.testing.assert_allclose(out.data[0], _trace_decode(slots, p), atol=1e-5)

    def test_two_layer_trace(self):
        p = make_params(4, n_positions=3, d_slot=4, d_out=4, n_layers=2)
        rng = engine.rng_for(4, "slots")
        slots = engine.normal(rng, (2, 3, 4))
        out = decode_batch(Value(slots), p)
        for i in range(2):
            np.testing.assert_allclose(out.data[i], _trace_decode(slots[i], p), atol=1e-5)

    def test_slot_order_invariance(self):
        p = make_params(5, n_positions=6, d_slot=4, d_out=3)
        rng = engine.rng_for(5, "slots")
        slots = engine.normal(rng, (4, 4))
        perm = engine.rng_for(5, "perm").permutation(4)
        out = decode_batch(Value(np.stack([slots, slots[perm]])), p)
        np.testing.assert_allclose(out.data[0], out.data[1], atol=1e-5)

    def test_shape_mismatch(self):
        p = make_params(6, n_positions=4, d_slot=4, d_out=3)
        with pytest.raises(engine.ShapeError):
            decode_batch(Value(np.zeros((2, 4), dtype=np.float32)), p)


class TestReconLoss:
    def test_equal_inputs_zero(self):
        rng = engine.rng_for(7, "loss")
        x = engine.normal(rng, (4, 3))
        assert recon_loss(Value(x), Value(x.copy())).item() == 0.0

    def test_constant_offset_is_one(self):
        rng = engine.rng_for(8, "loss")
        t = engine.normal(rng, (5, 2))
        loss = recon_loss(Value(t + 1.0), Value(t))
        assert abs(loss.item() - 1.0) < 1e-5

    def test_matches_scalar_loop_oracle(self):
        rng = engine.rng_for(9, "loss")
        pred = engine.normal(rng, (3, 4))
        tgt = engine.normal(rng, (3, 4))
        want = sum(
            (float(pred[i, j]) - float(tgt[i, j])) ** 2 for i in range(3) for j in range(4)
        ) / 12.0
        assert abs(recon_loss(Value(pred), Value(tgt)).item() - want) < 1e-6

    def test_nonnegative_and_zero_iff_equal(self):
        rng = engine.rng_for(10, "loss")
        for i in range(8):
            a = engine.normal(engine.rng_for(10, "a", i), (2, 3))
            b = engine.normal(engine.rng_for(10, "b", i), (2, 3))
            val = recon_loss(Value(a), Value(b)).item()
            assert val >= 0.0
            assert (val == 0.0) == bool(np.array_equal(a, b))

    def test_shape_mismatch(self):
        with pytest.raises(engine.ShapeError):
            recon_loss(Value(np.zeros((2, 3))), Value(np.zeros((3, 2))))


class TestGradientFlow:
    def test_loss_reaches_slot_initializers(self):
        sa = SlotAttentionParams.create(engine.rng_for(11, "sa"), 3, 4, 6, iterations=2)
        dec = make_params(12, n_positions=5, d_slot=6, d_out=4)
        rng = engine.rng_for(11, "x")
        x = Value(engine.normal(rng, (1, 5, 4)))
        slots, _ = forward_batch(x, sa)
        loss = recon_loss(decode_batch(slots, dec), x)
        engine.backward(loss)
        assert float(np.abs(sa.slots.grad).max()) > 0.0

    def test_decode_finite_differences(self):
        p = make_params(13, n_positions=3, d_slot=4, d_out=3, n_layers=1)
        rng = engine.rng_for(13, "slots")
        slots = Value(engine.normal(rng, (1, 2, 4)), requires_grad=True)
        probe = engine.normal(engine.rng_for(13, "probe"), (1, 3, 3))
        params = [slots, p.pos_queries, p.head_w] + [p.layers[0].wk, p.layers[0].wv, p.layers[0].ff_w1]

        def build():
            return engine.vmean(engine.mul(decode_batch(slots, p), probe))

        ok, total = fd_check(build, params, engine.rng_for(13, "pick"), coords_per_param=5)
        assert ok / total >= 0.95


def _keys_values_decode(slots, p):
    """``decode_batch`` with explicit per-slot keys ``LN(slots) wk`` and values
    ``LN(slots) wv``, and the position queries as [B, M, D_dec] sets."""
    b = slots.shape[0]
    m, d_dec = p.pos_queries.data.shape
    temp = np.float32(1.0 / np.sqrt(d_dec))
    kv = layer_norm(slots, p.in_norm_g, p.in_norm_b)
    x = broadcast_to(reshape(p.pos_queries, (1, m, d_dec)), (b, m, d_dec))
    for layer in p.layers:
        q = matmul(layer_norm(x, layer.ln_q_g, layer.ln_q_b), layer.wq)
        k = matmul(kv, layer.wk)
        v = matmul(kv, layer.wv)
        attn = softmax_axis(scale(matmul(q, transpose(k, (0, 2, 1))), temp), axis=2)
        x = add(x, add(matmul(matmul(attn, v), layer.wo), layer.bo))
        hidden = smooth_ramp(add(matmul(layer_norm(x, layer.ln_f_g, layer.ln_f_b), layer.ff_w1), layer.ff_b1))
        x = add(x, add(matmul(hidden, layer.ff_w2), layer.ff_b2))
    return add(matmul(layer_norm(x, p.out_norm_g, p.out_norm_b), p.head_w), p.head_b)


class TestInputSpaceRead:
    """The one-head folded read of the normalized slots against explicit keys
    and values: the stage-1 slow and fast shapes, and the tiny config."""

    # (sets, slots, D_slot, positions, D_out)
    SHAPES = {"slow": (16, 8, 64, 256, 32), "fast": (32, 8, 64, 32, 32), "tiny": (4, 2, 8, 16, 8)}

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_matches_keys_values_formulation(self, name):
        b, n, d, m, d_out = self.SHAPES[name]
        rng = engine.rng_for(17, "dec-input-space", name)
        p = DecoderParams.create(rng, m, d, d_out)
        slots = Value(engine.normal(rng, (b, n, d)), requires_grad=True)
        probe = engine.normal(rng, (b, m, d_out))
        leaves = dict(engine.named_params(p, "dec"), slots=slots)
        runs = []
        for fwd in (decode_batch, _keys_values_decode):
            engine.zero_grads(leaves)
            out = fwd(slots, p)
            engine.backward(vsum(mul(out, probe)))
            runs.append((out.data, {k: v.grad.copy() for k, v in leaves.items()}))
        (out, grads), (want_out, want_grads) = runs
        assert out.shape == want_out.shape == (b, m, d_out)
        np.testing.assert_allclose(out, want_out, rtol=1e-5, atol=1e-5 * np.abs(want_out).max())
        for key, want in want_grads.items():
            np.testing.assert_allclose(grads[key], want, rtol=1e-5, atol=1e-5 * np.abs(want).max(), err_msg=key)
