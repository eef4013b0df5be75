import dataclasses
import math

import numpy as np
import pytest

from slotvid import engine
from slotvid.engine import (
    Value,
    add,
    layer_norm,
    mul,
    reshape,
    scale,
)
from slotvid.metrics import MetricsError, hard_assign
from slotvid.slot_attention import ATTN_EPS, SlotAttentionParams, forward_batch

from gradcheck import broadcast_to, fd_check, matmul, recip, reference_gru, smooth_ramp, softmax_axis, transpose, vsum


def make_params(seed, n_slots, d_in, d_slot, iterations=3, **kw):
    rng = engine.rng_for(seed, "sa-params")
    return SlotAttentionParams.create(rng, n_slots, d_in, d_slot, iterations=iterations, **kw)


def _ln64(x, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def _trace_forward(inputs, p):
    """Independent float64 re-evaluation of one full forward pass."""

    def f64(v):
        return np.asarray(v.data, dtype=np.float64)

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def ramp(x):
        return x * sig(1.702 * x)

    xn = _ln64(inputs) * f64(p.in_norm_g) + f64(p.in_norm_b)
    k = xn @ f64(p.wk)
    v = xn @ f64(p.wv)
    slots = f64(p.slots)
    d_att = p.wq.data.shape[1]
    attn = None
    for _ in range(p.iterations):
        sn = _ln64(slots) * f64(p.slot_norm_g)
        q = sn @ f64(p.wq)
        logits = (k @ q.T) / math.sqrt(d_att)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        weights = attn / (attn.sum(axis=0, keepdims=True) + ATTN_EPS)
        updates = weights.T @ v
        z = sig(updates @ f64(p.gru.wz) + slots @ f64(p.gru.uz) + f64(p.gru.bz))
        r = sig(updates @ f64(p.gru.wr) + slots @ f64(p.gru.ur) + f64(p.gru.br))
        cand = np.tanh(updates @ f64(p.gru.wh) + (r * slots) @ f64(p.gru.uh) + f64(p.gru.bh))
        slots = (1.0 - z) * slots + z * cand
        pre = _ln64(slots) * f64(p.mlp_norm_g) + f64(p.mlp_norm_b)
        hidden = ramp(pre @ f64(p.mlp_w1) + f64(p.mlp_b1))
        slots = slots + hidden @ f64(p.mlp_w2) + f64(p.mlp_b2)
    return slots, attn


class TestForward:
    def test_single_slot_mask_all_ones(self):
        p = make_params(1, n_slots=1, d_in=3, d_slot=4, iterations=2)
        rng = engine.rng_for(1, "inputs")
        _, mask = forward_batch(Value(engine.normal(rng, (2, 6, 3))), p)
        np.testing.assert_allclose(mask, 1.0, atol=1e-7)

    @pytest.mark.parametrize("iterations", [1, 2, 3, 4])
    def test_mask_rows_sum_to_one(self, iterations):
        p = make_params(2, n_slots=5, d_in=4, d_slot=6, iterations=iterations)
        rng = engine.rng_for(2, "inputs", iterations)
        _, mask = forward_batch(Value(engine.normal(rng, (2, 9, 4))), p)
        np.testing.assert_allclose(mask.sum(axis=2), 1.0, atol=1e-5)
        assert mask.min() >= 0.0 and mask.max() <= 1.0

    def test_single_iteration_matches_scalar_trace(self):
        p = make_params(3, n_slots=2, d_in=2, d_slot=2, iterations=1)
        inputs = np.array([[0.9, -0.5], [-0.3, 0.8]], dtype=np.float32)
        slots, mask = forward_batch(Value(inputs[None]), p)
        want_slots, want_attn = _trace_forward(inputs, p)
        np.testing.assert_allclose(slots.data[0], want_slots, atol=1e-5)
        np.testing.assert_allclose(mask[0], want_attn, atol=1e-5)

    def test_multi_iteration_matches_scalar_trace(self):
        p = make_params(4, n_slots=3, d_in=4, d_slot=5, iterations=3)
        rng = engine.rng_for(4, "inputs")
        inputs = engine.normal(rng, (7, 4))
        slots, mask = forward_batch(Value(inputs[None]), p)
        want_slots, want_attn = _trace_forward(inputs, p)
        np.testing.assert_allclose(slots.data[0], want_slots, atol=1e-4)
        np.testing.assert_allclose(mask[0], want_attn, atol=1e-4)

    def test_rejects_bad_rank(self):
        p = make_params(5, n_slots=2, d_in=3, d_slot=4)
        with pytest.raises(engine.ShapeError):
            forward_batch(Value(np.zeros((2, 3), dtype=np.float32)), p)


def _permutes_with_slots(inputs, p, perm, tol=1e-5) -> bool:
    """True iff permuting the slot initializers permutes the slots and mask columns alike."""
    batch = Value(inputs[None])
    with engine.no_grad():
        base_slots, base_mask = forward_batch(batch, p)
        out_slots, out_mask = forward_batch(batch, dataclasses.replace(p, slots=Value(p.slots.data[perm])))
    slots_ok = np.allclose(out_slots.data, base_slots.data[:, perm], atol=tol)
    mask_ok = np.allclose(out_mask, base_mask[:, :, perm], atol=tol)
    return bool(slots_ok and mask_ok)


class TestPermutationEquivariance:
    def test_identity_perm(self):
        p = make_params(6, n_slots=4, d_in=3, d_slot=4)
        rng = engine.rng_for(6, "inputs")
        assert _permutes_with_slots(engine.normal(rng, (8, 3)), p, [0, 1, 2, 3])

    def test_swap_outer_slots(self):
        p = make_params(7, n_slots=3, d_in=3, d_slot=4)
        rng = engine.rng_for(7, "inputs")
        assert _permutes_with_slots(engine.normal(rng, (8, 3)), p, [2, 1, 0])

    def test_random_pairs(self):
        for i in range(12):
            rng = engine.rng_for(8, "perm", i)
            n = int(rng.integers(2, 6))
            p = make_params(800 + i, n_slots=n, d_in=3, d_slot=4)
            perm = rng.permutation(n)
            inputs = engine.normal(rng, (int(rng.integers(2, 10)), 3))
            assert _permutes_with_slots(inputs, p, perm)


class TestConvexHull:
    def test_updates_stay_in_value_hull_without_eps(self):
        # with exact renormalization each slot update is a convex combination
        for i in range(8):
            p = make_params(40 + i, n_slots=3, d_in=4, d_slot=4)
            rng = engine.rng_for(40, "hull", i)
            inputs = engine.normal(rng, (10, 4))
            _, masks = engine.slot_attention(Value(inputs[None]), p.slots, p, p.iterations, np.float32(0.5), 0.0)
            mask = masks[0]
            if mask.sum(axis=0).min() <= 1e-6:
                continue
            xn = _ln64(inputs)
            v = xn @ np.asarray(p.wv.data, dtype=np.float64)
            weights = mask / mask.sum(axis=0, keepdims=True)
            updates = weights.T @ v
            lo, hi = v.min(axis=0), v.max(axis=0)
            assert np.all(updates >= lo - 1e-5) and np.all(updates <= hi + 1e-5)


class TestSetFunction:
    def test_input_order_only_permutes_mask_rows(self):
        p = make_params(10, n_slots=3, d_in=4, d_slot=4)
        rng = engine.rng_for(10, "inputs")
        inputs = engine.normal(rng, (9, 4))
        perm = engine.rng_for(10, "perm").permutation(9)
        slots, mask = forward_batch(Value(np.stack([inputs, inputs[perm]])), p)
        np.testing.assert_allclose(slots.data[0], slots.data[1], atol=1e-5)
        np.testing.assert_allclose(mask[0][perm], mask[1], atol=1e-5)


class TestGradients:
    def test_full_unroll_finite_differences(self):
        p = make_params(11, n_slots=2, d_in=3, d_slot=4, iterations=3)
        # check at a generic parameter point: the 0.02-scale slot initializers
        # sit in a region whose curvature swamps an h=1e-3 central difference
        p.slots.data = engine.normal(engine.rng_for(11, "slot-point"), (2, 4), std=0.5)
        rng = engine.rng_for(11, "inputs")
        x = Value(engine.normal(rng, (5, 3)), requires_grad=True)
        probe = engine.normal(engine.rng_for(11, "probe"), (2, 4))
        params = [x, p.slots, p.wq, p.wk, p.wv, p.gru.wz, p.gru.uh, p.mlp_w1, p.mlp_w2, p.in_norm_g]

        def build():
            slots, _ = forward_batch(reshape(x, (1, 5, 3)), p)
            return engine.vmean(engine.mul(reshape(slots, (2, 4)), probe))

        ok, total = fd_check(build, params, engine.rng_for(11, "pick"), coords_per_param=5)
        assert ok / total >= 0.95


class TestBatchedConsistency:
    def test_batch_matches_per_instance(self):
        p = make_params(12, n_slots=3, d_in=3, d_slot=4)
        rng = engine.rng_for(12, "inputs")
        batch = engine.normal(rng, (4, 6, 3))
        slots_b, attn_b = forward_batch(Value(batch), p)
        for i in range(4):
            slots_i, mask_i = forward_batch(Value(batch[i : i + 1]), p)
            np.testing.assert_allclose(slots_b.data[i], slots_i.data[0], atol=1e-5)
            np.testing.assert_allclose(attn_b[i], mask_i[0], atol=1e-5)


def _keys_values_forward(inputs, p):
    """``forward_batch`` with explicit [B, M, D_att] keys ``xn wk`` and values ``xn wv``."""
    b, _, _ = inputs.shape
    n, d = p.slots.data.shape
    temp = np.float32(1.0 / np.sqrt(d))
    xn = layer_norm(inputs, p.in_norm_g, p.in_norm_b)
    k = matmul(xn, p.wk)
    v = matmul(xn, p.wv)
    slots = reshape(broadcast_to(reshape(p.slots, (1, n, d)), (b, n, d)), (b * n, d))
    attn = None
    for _ in range(p.iterations):
        q = reshape(matmul(layer_norm(slots, p.slot_norm_g, np.zeros(d, np.float32)), p.wq), (b, n, d))
        attn = softmax_axis(scale(matmul(k, transpose(q, (0, 2, 1))), temp), axis=2)
        col = recip(add(vsum(attn, axis=1, keepdims=True), np.float32(ATTN_EPS)))
        updates = matmul(transpose(mul(attn, broadcast_to(col, attn.shape)), (0, 2, 1)), v)
        slots = reference_gru(slots, reshape(updates, (b * n, d)), p.gru)
        hidden = smooth_ramp(add(matmul(layer_norm(slots, p.mlp_norm_g, p.mlp_norm_b), p.mlp_w1), p.mlp_b1))
        slots = add(slots, add(matmul(hidden, p.mlp_w2), p.mlp_b2))
    return reshape(slots, (b, n, d)), attn.data


class TestInputSpaceRead:
    """The read of the inputs themselves against explicit keys and values, at the default branch shapes."""

    @pytest.mark.parametrize("shape", [(64, 256, 32), (128, 32, 32)], ids=["slow", "fast"])
    def test_matches_keys_values_formulation(self, shape):
        rng = engine.rng_for(14, "input-space", *shape)
        p = SlotAttentionParams.create(rng, 8, shape[2], 64)
        inputs = Value(engine.normal(rng, shape), requires_grad=True)
        probe = engine.normal(rng, (shape[0], 8, 64))
        leaves = dict(engine.named_params(p, "sa"), inputs=inputs)
        runs = []
        for fwd in (forward_batch, _keys_values_forward):
            engine.zero_grads(leaves)
            slots, attn = fwd(inputs, p)
            engine.backward(vsum(mul(slots, probe)))
            runs.append((slots.data, attn, {k: v.grad.copy() for k, v in leaves.items()}))
        (slots, attn, grads), (want_slots, want_attn, want_grads) = runs
        np.testing.assert_allclose(slots, want_slots, rtol=1e-5, atol=1e-5 * np.abs(want_slots).max())
        np.testing.assert_allclose(attn, want_attn, rtol=1e-5, atol=1e-6)
        for name, want in want_grads.items():
            np.testing.assert_allclose(grads[name], want, rtol=1e-5, atol=1e-5 * np.abs(want).max(), err_msg=name)


class TestMaskTypes:
    def test_mask_is_a_metric_stack(self):
        # forward_batch returns a plain [B, M, N] array, the stack the metrics score
        p = make_params(13, n_slots=2, d_in=3, d_slot=4)
        _, mask = forward_batch(Value(engine.normal(engine.rng_for(13, "inputs"), (2, 5, 3))), p)
        assert type(mask) is np.ndarray and mask.dtype == np.float32 and mask.shape == (2, 5, 2)
        assert hard_assign(mask).shape == (2, 5)
        with pytest.raises(MetricsError):
            hard_assign(mask[0])

    def test_initial_slots_distinct(self):
        p = make_params(13, n_slots=8, d_in=3, d_slot=16)
        s = p.slots.data
        for i in range(8):
            for j in range(i + 1, 8):
                assert np.linalg.norm(s[i] - s[j]) > 0.0
