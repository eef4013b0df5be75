import math

import numpy as np
import pytest

from slotvid import engine
from slotvid.engine import (
    AdamState,
    GruParams,
    NonFiniteError,
    ShapeError,
    Value,
    adam_update,
    avg_pool_hw,
    backward,
    gru_step,
    layer_norm,
    matmul,
    softmax_axis,
)

from gradcheck import fd_check


class TestMatmul:
    def test_identity(self):
        a = Value([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Value(np.eye(2, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_computed(self):
        # dot products worked out by hand: [[1*5+2*7, 1*6+2*8], [3*5+4*7, 3*6+4*8]]
        a = Value([[1.0, 2.0], [3.0, 4.0]])
        b = Value([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zeros_annihilate(self):
        a = Value(np.zeros((2, 3), dtype=np.float32))
        b = Value(np.arange(12, dtype=np.float32).reshape(3, 4))
        np.testing.assert_array_equal(matmul(a, b).data, np.zeros((2, 4)))

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Value(np.zeros((2, 3))), Value(np.zeros((2, 3))))

    def test_associativity_chains(self):
        rng = engine.rng_for(3, "assoc")
        for _ in range(10):
            a, b, c = (Value(engine.normal(rng, (4, 4))) for _ in range(3))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            np.testing.assert_allclose(left, right, atol=1e-4)


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax_axis(Value([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_rows_sum_to_one(self):
        rng = engine.rng_for(4, "softmax")
        for _ in range(10):
            x = Value(engine.normal(rng, (5, 7), std=3.0))
            for axis in (0, 1):
                sums = softmax_axis(x, axis=axis).data.sum(axis=axis)
                np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_hand_evaluated_pair(self):
        # e^1 / (e^1 + e^2) and e^2 / (e^1 + e^2)
        out = softmax_axis(Value([1.0, 2.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.26894, 0.73106], atol=1e-4)

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            softmax_axis(Value([1.0, 2.0]), axis=3)


class TestLayerNorm:
    def _gb(self, d, gain=1.0, bias=0.0):
        g = Value(np.full(d, gain, dtype=np.float32))
        b = Value(np.full(d, bias, dtype=np.float32))
        return g, b

    def test_constant_row_maps_to_zero(self):
        g, b = self._gb(4)
        out = layer_norm(Value([[2.5, 2.5, 2.5, 2.5]]), g, b)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_unit_variance_closed_form(self):
        # mean 0, var 1 -> y = x / sqrt(1 + eps)
        g, b = self._gb(2)
        out = layer_norm(Value([1.0, -1.0]), g, b)
        expect = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out.data, [expect, -expect], atol=1e-6)

    def test_zero_gain_gives_bias(self):
        g, b = self._gb(3, gain=0.0, bias=0.7)
        rng = engine.rng_for(5, "ln")
        out = layer_norm(Value(engine.normal(rng, (4, 3))), g, b)
        np.testing.assert_allclose(out.data, 0.7, atol=1e-6)

    def test_dim_mismatch(self):
        g, b = self._gb(3)
        with pytest.raises(ShapeError):
            layer_norm(Value(np.zeros((2, 4))), g, b)


def _scalar_gru_oracle(h, x, p):
    """Independent per-coordinate evaluation of the gated update."""
    dim = len(h)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def aff(w, u, b, j):
        return (
            sum(x[i] * float(w.data[i, j]) for i in range(dim))
            + sum(h[i] * float(u.data[i, j]) for i in range(dim))
            + float(b.data[j])
        )

    r = [sig(aff(p.wr, p.ur, p.br, i)) for i in range(dim)]
    out = []
    for j in range(dim):
        z = sig(aff(p.wz, p.uz, p.bz, j))
        cand_pre = (
            sum(x[i] * float(p.wh.data[i, j]) for i in range(dim))
            + sum(r[i] * h[i] * float(p.uh.data[i, j]) for i in range(dim))
            + float(p.bh.data[j])
        )
        out.append((1.0 - z) * h[j] + z * math.tanh(cand_pre))
    return out


class TestGru:
    def _zero_params(self, dim):
        zeros = lambda shape: Value(np.zeros(shape, dtype=np.float32))
        return GruParams(
            zeros((dim, dim)), zeros((dim, dim)), zeros(dim),
            zeros((dim, dim)), zeros((dim, dim)), zeros(dim),
            zeros((dim, dim)), zeros((dim, dim)), zeros(dim),
        )

    def test_all_zero_params_halve_state(self):
        # sigma(0) = 0.5 and tanh(0) = 0 force h' = 0.5 h
        p = self._zero_params(3)
        h = Value([[2.0, -4.0, 6.0]])
        out = gru_step(h, Value(np.zeros((1, 3), dtype=np.float32)), p)
        np.testing.assert_allclose(out.data, [[1.0, -2.0, 3.0]], atol=1e-6)

    def test_closed_update_gate_keeps_state(self):
        p = self._zero_params(3)
        p.bz.data[:] = -30.0
        h = Value([[0.3, -0.2, 0.9]])
        x = Value([[5.0, 5.0, 5.0]])
        out = gru_step(h, x, p)
        np.testing.assert_allclose(out.data, h.data, atol=1e-6)

    def test_random_instance_matches_scalar_oracle(self):
        rng = engine.rng_for(11, "gru")
        p = GruParams.create(rng, 2)
        h = engine.normal(rng, (1, 2))
        x = engine.normal(rng, (1, 2))
        out = gru_step(Value(h), Value(x), p)
        expect = _scalar_gru_oracle([float(v) for v in h[0]], [float(v) for v in x[0]], p)
        np.testing.assert_allclose(out.data[0], expect, atol=1e-5)

    def test_shape_mismatch(self):
        p = self._zero_params(2)
        with pytest.raises(ShapeError):
            gru_step(Value(np.zeros((1, 2))), Value(np.zeros((2, 2))), p)


class TestAvgPool:
    def test_16_grid_stride_4_shape(self):
        rng = engine.rng_for(7, "pool")
        out = avg_pool_hw(Value(engine.normal(rng, (16, 16, 3))), 4)
        assert out.data.shape == (4, 4, 3)

    def test_constant_preserved(self):
        out = avg_pool_hw(Value(np.full((8, 8, 2), 1.25, dtype=np.float32)), 2)
        np.testing.assert_allclose(out.data, 1.25, atol=1e-7)

    def test_block_mean_oracle(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(2, 2, 1)
        out = avg_pool_hw(Value(x), 2)
        np.testing.assert_allclose(out.data, [[[2.5]]])

    def test_non_divisible(self):
        with pytest.raises(ShapeError):
            avg_pool_hw(Value(np.zeros((6, 6, 1))), 4)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Value(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_sum_analytic(self):
        x = Value([1.0, 2.0], requires_grad=True)
        backward(engine.mul(x, x).sum())
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-6)

    def test_non_scalar_root(self):
        x = Value(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(engine.mul(x, x))

    def test_repeated_calls_accumulate(self):
        x = Value([3.0], requires_grad=True)
        loss = engine.mul(x, x).sum()
        backward(loss)
        backward(loss)
        np.testing.assert_allclose(x.grad, [12.0], atol=1e-5)

    def test_diamond_graph_single_visit(self):
        # y = (x + x) * x => dy/dx = 4x; a double-visit scheme would overcount
        x = Value([1.5], requires_grad=True)
        y = engine.mul(engine.add(x, x), x).sum()
        backward(y)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-6)

    def test_composite_matches_finite_differences(self):
        rng = engine.rng_for(21, "fd-composite")
        x = Value(engine.normal(rng, (3, 4)), requires_grad=True)
        w = Value(engine.normal(rng, (4, 2), std=0.5), requires_grad=True)

        def build():
            h = engine.tanh(matmul(x, w))
            s = softmax_axis(h, axis=1)
            return engine.mul(s, s).sum()

        ok, total = fd_check(build, [x, w], engine.rng_for(21, "pick"), coords_per_param=10)
        assert ok / total >= 0.95


class TestOpGradients:
    """Finite-difference sweep over every differentiable operation."""

    def _check(self, build, params, tag, instances=20):
        ok = total = 0
        for i in range(instances):
            for k, p in enumerate(params):
                p.data = engine.normal(engine.rng_for(99, tag, i, k), p.data.shape, std=0.8)
            o, t = fd_check(build, params, engine.rng_for(99, tag, "pick", i), coords_per_param=3)
            ok += o
            total += t
        assert ok / total >= 0.95, f"{tag}: {ok}/{total}"

    def test_elementwise_and_reductions(self):
        a = Value(np.zeros((4, 5), dtype=np.float32), requires_grad=True)
        b = Value(np.zeros((4, 5), dtype=np.float32), requires_grad=True)
        cases = {
            "add": lambda: engine.add(a, b).sum(),
            "sub": lambda: engine.sub(a, b).sum(),
            "mul": lambda: engine.mul(a, b).sum(),
            "sigmoid": lambda: engine.mul(engine.sigmoid(a), b).sum(),
            "tanh": lambda: engine.mul(engine.tanh(a), b).sum(),
            "relu": lambda: engine.mul(engine.relu(a), b).sum(),
            "ramp": lambda: engine.mul(engine.smooth_ramp(a), b).sum(),
            "exp": lambda: engine.mul(engine.exp(engine.scale(a, 0.5)), b).sum(),
            "mean": lambda: engine.mul(a.mean(axis=1, keepdims=True), b.mean(axis=1, keepdims=True)).sum(),
            "recip": lambda: engine.mul(engine.recip(engine.add_scalar(engine.mul(a, a), 1.0)), b).sum(),
        }
        for tag, build in cases.items():
            self._check(build, [a, b], tag, instances=6)

    def test_structural_ops(self):
        a = Value(np.zeros((3, 4, 2), dtype=np.float32), requires_grad=True)
        b = Value(np.zeros((2, 4, 2), dtype=np.float32), requires_grad=True)
        c = Value(np.zeros((4, 4, 2), dtype=np.float32), requires_grad=True)
        w = Value(np.zeros((3, 5), dtype=np.float32), requires_grad=True)
        idx = np.array([2, 0, 0], dtype=np.intp)
        cases = {
            "reshape": (lambda: engine.mul(a.reshape((6, 4)), a.reshape((6, 4))).sum(), [a]),
            "transpose": (lambda: engine.mul(a.transpose((1, 0, 2)), a.transpose((1, 0, 2))).sum(), [a]),
            "concat": (lambda: engine.mul(engine.concat([a, b], axis=0), engine.concat([a, b], axis=0)).sum(), [a, b]),
            "take": (lambda: engine.mul(engine.take(a, idx, axis=0), engine.take(a, idx, axis=0)).sum(), [a]),
            "broadcast": (lambda: engine.mul(engine.broadcast_to(a.reshape((1, 3, 4, 2)), (5, 3, 4, 2)), 0.3).sum(), [a]),
            "pool": (lambda: engine.mul(engine.avg_pool_hw(c, 2), 1.7).sum(), [c]),
            "matmul_flat": (lambda: engine.tanh(matmul(a.reshape((8, 3)), w)).sum(), [a, w]),
        }
        for tag, (build, params) in cases.items():
            self._check(build, params, tag, instances=6)

    def test_matmul_batched_gradients(self):
        a = Value(np.zeros((3, 4, 2), dtype=np.float32), requires_grad=True)
        w = Value(np.zeros((2, 5), dtype=np.float32), requires_grad=True)

        def build():
            return engine.tanh(matmul(a, w)).sum()

        self._check(build, [a, w], "matmul_batched", instances=8)

    def test_fused_ops_gradients(self):
        x = Value(np.zeros((4, 6), dtype=np.float32), requires_grad=True)
        g = Value(np.ones(6, dtype=np.float32), requires_grad=True)
        b = Value(np.zeros(6, dtype=np.float32), requires_grad=True)
        labels = np.array([1, 0, 2, 1], dtype=np.intp)
        cases = {
            "softmax": (lambda: engine.mul(softmax_axis(x, axis=1), engine.tanh(x)).sum(), [x]),
            "layer_norm": (lambda: engine.mul(layer_norm(x, g, b), engine.sigmoid(x)).sum(), [x, g, b]),
            "cross_entropy": (lambda: engine.cross_entropy(x, labels), [x]),
        }
        for tag, (build, params) in cases.items():
            self._check(build, params, tag, instances=8)

    def test_gru_gradients(self):
        rng = engine.rng_for(31, "gru-fd")
        p = GruParams.create(rng, 3)
        h = Value(engine.normal(rng, (2, 3)), requires_grad=True)
        x = Value(engine.normal(rng, (2, 3)), requires_grad=True)
        params = [h, x] + [getattr(p, k) for k in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")]

        def build():
            return engine.mul(gru_step(h, x, p), 0.5).sum()

        ok, total = fd_check(build, params, engine.rng_for(31, "pick"), coords_per_param=4)
        assert ok / total >= 0.95


class TestAdam:
    def test_zero_grad_keeps_params(self):
        p = Value([1.0, -2.0], requires_grad=True)
        state = AdamState(lr=0.1)
        adam_update({"p": p}, state)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_hand_computed(self):
        # bias correction makes the first step exactly lr * g / (|g| + eps)
        p = Value([1.0], requires_grad=True)
        p.grad = np.array([1.0], dtype=np.float32)
        adam_update({"p": p}, AdamState(lr=0.1))
        assert abs((1.0 - float(p.data[0])) - 0.1) < 1e-6

    def test_determinism(self):
        def run():
            rng = engine.rng_for(17, "adam")
            p = Value(engine.normal(rng, (4, 4)), requires_grad=True)
            state = AdamState(lr=1e-2)
            for step in range(20):
                loss = engine.mul(p, p).sum()
                engine.zero_grads([p])
                backward(loss)
                adam_update({"p": p}, state)
            return p.data.tobytes()

        assert run() == run()


class TestFiniteness:
    def test_nan_input_rejected(self):
        with pytest.raises(NonFiniteError):
            Value([float("nan"), 1.0])

    def test_overflow_rejected(self):
        big = Value(np.full(3, 1e30, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            engine.mul(big, big)

    def test_divide_by_zero_rejected(self):
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
            engine.recip(Value([0.0]))

    def test_values_whose_float32_sum_overflows_accepted(self):
        big = np.full(16, 3e38, dtype=np.float32)
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.sum(dtype=np.float32))
        np.testing.assert_array_equal(Value(big).data, big)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_single_non_finite_last_element_rejected(self, bad):
        arr = np.zeros(1 << 20, dtype=np.float32)
        arr[-1] = bad
        with pytest.raises(NonFiniteError):
            Value(arr)


class TestPrimitiveForms:
    """Elementwise forms checked against their np.where references."""

    def test_sigmoid_bit_equal_to_where_reference(self):
        x = np.array([0.0, -0.0, 1e-3, -1e-3, 20.0, -20.0, 100.0, -100.0], dtype=np.float32)
        z = np.exp(-np.abs(x))
        ref = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z)).astype(np.float32)
        out = engine.sigmoid(Value(x)).data
        assert out.dtype == np.float32
        assert out.tobytes() == ref.tobytes()

    def test_relu_equal_to_where_reference(self):
        x = engine.normal(engine.rng_for(3, "relu"), (64,))
        x[:4] = [0.0, -0.0, 1e-30, -1e-30]
        out = engine.relu(Value(x)).data
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, np.where(x > 0, x, np.float32(0.0)))

    def test_layer_norm_without_input_grad_keeps_param_grads(self):
        rng = engine.rng_for(8, "ln-dead")
        data = engine.normal(rng, (3, 5, 6))
        probe = engine.normal(rng, (3, 5, 6))
        g = Value(engine.normal(rng, (6,)), requires_grad=True)
        b = Value(engine.normal(rng, (6,)), requires_grad=True)

        def param_grads(x):
            engine.zero_grads([g, b])
            backward(engine.mul(layer_norm(x, g, b), probe).sum())
            return g.grad.copy(), b.grad.copy()

        with_input = Value(data, requires_grad=True)
        live = param_grads(with_input)
        assert np.any(with_input.grad != 0.0)
        dead_input = Value(data)
        dead = param_grads(dead_input)
        assert dead_input._grad is None
        for a, c in zip(live, dead):
            assert a.tobytes() == c.tobytes()


class TestDeterminism:
    def test_bit_identical_pipeline(self):
        def run():
            rng = engine.rng_for(23, "det")
            x = Value(engine.normal(rng, (8, 8)))
            w = Value(engine.normal(rng, (8, 8)))
            y = softmax_axis(matmul(engine.tanh(x), w), axis=1)
            return y.data.tobytes()

        assert run() == run()

    def test_rng_paths_independent(self):
        a = engine.rng_for(5, "x", 0).standard_normal(4)
        b = engine.rng_for(5, "x", 1).standard_normal(4)
        c = engine.rng_for(5, "x", 0).standard_normal(4)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)
