import math

import numpy as np
import pytest

from slotvid import engine
from slotvid.decoder import DecoderParams, decode_batch, recon_loss
from slotvid.engine import Value
from slotvid.slot_attention import SlotAttentionParams, forward_batch

from gradcheck import fd_check


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
        p = make_params(2, n_positions=4, d_slot=4, d_out=3)
        rng = engine.rng_for(2, "slots")
        _, attn = decode_batch(Value(engine.normal(rng, (2, 1, 4))), p, return_attn=True)
        np.testing.assert_allclose(attn.data, 1.0, atol=1e-7)

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
            return engine.mul(decode_batch(slots, p), probe).mean()

        ok, total = fd_check(build, params, engine.rng_for(13, "pick"), coords_per_param=5)
        assert ok / total >= 0.95
