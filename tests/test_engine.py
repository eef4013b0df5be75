import math
import warnings
import weakref
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from slotvid import engine
from slotvid.engine import (
    AdamState,
    EngineError,
    GruParams,
    NonFiniteError,
    ShapeError,
    Value,
    adam_update,
    backward,
    layer_norm,
    named_params,
    slot_attention,
)
from slotvid.slot_attention import SlotAttentionParams

from gradcheck import (
    broadcast_to, exp, fd_check, matmul, recip, relu, sigmoid, smooth_ramp, softmax_axis, tanh, transpose, vsum,
)


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
    """The gated update as the slot-attention node runs it: one slot, one
    iteration and an MLP that adds zero, so the node's output is one update of
    the initial slot by the read of the inputs through ``wv``."""

    def _zero_params(self, dim):
        zeros = lambda shape: Value(np.zeros(shape, dtype=np.float32))
        return GruParams(
            zeros((dim, dim)), zeros((dim, dim)), zeros(dim),
            zeros((dim, dim)), zeros((dim, dim)), zeros(dim),
            zeros((dim, dim)), zeros((dim, dim)), zeros(dim),
        )

    @staticmethod
    def _update(gru, h, inputs):
        dim = gru.wz.data.shape[0]
        p = SlotAttentionParams.create(engine.rng_for(0, "gru-node"), 1, inputs.shape[-1], dim, iterations=1)
        p.gru, p.mlp_w2 = gru, Value(np.zeros_like(p.mlp_w2.data))
        slots, _ = slot_attention(Value(inputs[None]), Value(h), p, 1, 1.0)
        return slots.data[0], p

    def test_all_zero_params_halve_state(self):
        # sigma(0) = 0.5 and tanh(0) = 0 force h' = 0.5 h
        p = self._zero_params(3)
        h = np.array([[2.0, -4.0, 6.0]], dtype=np.float32)
        out, _ = self._update(p, h, engine.normal(engine.rng_for(1, "x"), (4, 2)))
        np.testing.assert_allclose(out, [[1.0, -2.0, 3.0]], atol=1e-6)

    def test_closed_update_gate_keeps_state(self):
        p = self._zero_params(3)
        p.bz.data[:] = -30.0
        p.wh.data[:] = 1.0  # a candidate far from the state
        h = np.array([[0.3, -0.2, 0.9]], dtype=np.float32)
        out, _ = self._update(p, h, np.full((4, 3), 5.0, dtype=np.float32) + np.eye(4, 3, dtype=np.float32))
        np.testing.assert_allclose(out, h, atol=1e-6)

    def test_random_instance_matches_scalar_oracle(self):
        rng = engine.rng_for(11, "gru")
        p = GruParams.create(rng, 2)
        h = engine.normal(rng, (1, 2))
        inputs = engine.normal(rng, (5, 3))
        out, sa = self._update(p, h, inputs)
        # one slot takes every token with weight one: the update is the mean of
        # the normalized inputs, renormalized with eps, through wv
        xn = inputs - inputs.mean(axis=1, keepdims=True)
        xn /= np.sqrt((xn * xn).mean(axis=1, keepdims=True) + engine.LAYER_NORM_EPS)
        x = (xn.astype(np.float64).sum(axis=0) / (5.0 + sa.eps)) @ sa.wv.data.astype(np.float64)
        expect = _scalar_gru_oracle([float(v) for v in h[0]], [float(v) for v in x], p)
        np.testing.assert_allclose(out[0], expect, atol=1e-5)

    def test_shape_mismatch(self):
        p = self._zero_params(2)
        p.ur = Value(np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ShapeError, match="gru.ur"):
            self._update(p, np.zeros((1, 2), dtype=np.float32), np.zeros((3, 2), dtype=np.float32))


def _leaf():
    return Value(np.zeros(1, dtype=np.float32))


@dataclass
class _Layer:
    ln_q_g: Value
    s_wq: Value
    ff_w1: Value | None


@dataclass
class _Block:
    slots: Value
    in_norm_b: Value
    layers: list
    iterations: int = 3


@dataclass
class _Frame:
    left: _Block
    slow_pos: Value
    proj_w: Value

    prefix = "qt_"


@dataclass
class _Underscored:
    layers: list

    sep = "_"


@dataclass
class _Norm:
    g: Value


@dataclass
class _Clash:
    ln_q: _Norm
    ln_q_g: Value


class TestNamedParams:
    """``named_params``'s one naming rule on toy params dataclasses."""

    def test_rule(self):
        block = _Block(_leaf(), _leaf(), [_Layer(_leaf(), _leaf(), None), _Layer(_leaf(), _leaf(), _leaf())])
        frame = _Frame(block, _leaf(), _leaf())
        named = named_params(frame, "conn")
        assert list(named) == [
            "conn.qt_left.slots", "conn.qt_left.in_norm.b",
            "conn.qt_left.layer0.ln_q.g", "conn.qt_left.layer0.s_wq",
            "conn.qt_left.layer1.ln_q.g", "conn.qt_left.layer1.s_wq", "conn.qt_left.layer1.ff.w1",
            "conn.slow_pos", "conn.proj.w",
        ]
        assert named["conn.qt_left.layer1.ff.w1"] is block.layers[1].ff_w1
        assert list(named_params(frame.left.layers[0])) == ["ln_q.g", "s_wq"]  # no prefix, no leading dot

    def test_declared_sep_holds_below_its_container(self):
        named = named_params(_Underscored([_Layer(_leaf(), _leaf(), _leaf())]), "qt")
        assert list(named) == ["qt.layer0.ln_q_g", "qt.layer0.s_wq", "qt.layer0.ff_w1"]

    def test_two_tensors_under_one_name_raise(self):
        # the nested norm's g and the outer ln_q_g would both be x.ln_q.g, and one would drop out
        with pytest.raises(EngineError, match="x.ln_q.g"):
            named_params(_Clash(_Norm(_leaf()), _leaf()), "x")


class TestBackward:
    def test_sum_gives_ones(self):
        x = Value(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        backward(vsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_sum_analytic(self):
        x = Value([1.0, 2.0], requires_grad=True)
        backward(vsum(engine.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-6)

    def test_non_scalar_root(self):
        x = Value(np.zeros(3), requires_grad=True)
        with pytest.raises(ShapeError):
            backward(engine.mul(x, x))

    def test_separate_graphs_accumulate_into_shared_leaves(self):
        x = Value([3.0], requires_grad=True)
        backward(vsum(engine.mul(x, x)))
        backward(vsum(engine.mul(x, x)))
        np.testing.assert_allclose(x.grad, [12.0], atol=1e-5)

    def test_second_backward_on_same_root_raises(self):
        x = Value([3.0], requires_grad=True)
        loss = vsum(engine.mul(x, x))
        backward(loss)
        with pytest.raises(EngineError, match="already back-propagated"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_second_root_through_consumed_node_raises(self):
        x = Value([3.0], requires_grad=True)
        y = engine.mul(x, x)
        backward(vsum(y))
        with pytest.raises(EngineError, match="already back-propagated"):
            backward(vsum(engine.scale(y, 2.0)))
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_backward_releases_the_graph(self):
        # Value has __slots__ and no weakref slot, so the test watches the
        # intermediate nodes' arrays; the caller still holds the root
        rng = engine.rng_for(23, "release")
        d = 4
        x = Value(engine.normal(rng, (3, d)), requires_grad=True)
        w = Value(engine.normal(rng, (d, d)), requires_grad=True)
        mlp = [Value(engine.normal(rng, shape, std=0.5), requires_grad=True)
               for shape in ((d,), (d,), (d, 2 * d), (2 * d,), (2 * d, d), (d,))]
        h = matmul(x, w)
        r = engine.residual_mlp(h, *mlp)
        loss = vsum(engine.mul(r, r))
        refs = [weakref.ref(h.data), weakref.ref(r.data)]
        del h, r
        assert all(ref() is not None for ref in refs)  # the graph holds them until backward
        backward(loss)
        assert [ref() for ref in refs] == [None, None]
        assert loss._parents == () and x.grad.any() and mlp[2].grad.any()

    def test_diamond_graph_single_visit(self):
        # y = (x + x) * x => dy/dx = 4x; a double-visit scheme would overcount
        x = Value([1.5], requires_grad=True)
        y = vsum(engine.mul(engine.add(x, x), x))
        backward(y)
        np.testing.assert_allclose(x.grad, [6.0], atol=1e-6)

    def test_only_leaves_keep_adjoints(self):
        rng = engine.rng_for(22, "leaves")
        x = Value(engine.normal(rng, (3, 4)), requires_grad=True)
        w = Value(engine.normal(rng, (4, 2)), requires_grad=True)
        probe = engine.normal(rng, (3, 2))
        h = matmul(x, w)
        weighted = engine.mul(h, probe)
        backward(vsum(weighted))
        assert h._grad is None and weighted._grad is None
        # the leaves get the bits of the matmul backward for the adjoint probe
        np.testing.assert_array_equal(x.grad, probe @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ probe)

    def test_composite_matches_finite_differences(self):
        rng = engine.rng_for(21, "fd-composite")
        x = Value(engine.normal(rng, (3, 4)), requires_grad=True)
        w = Value(engine.normal(rng, (4, 2), std=0.5), requires_grad=True)

        def build():
            h = tanh(matmul(x, w))
            s = softmax_axis(h, axis=1)
            return vsum(engine.mul(s, s))

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
            "add": lambda: vsum(engine.add(a, b)),
            "sub": lambda: vsum(engine.sub(a, b)),
            "mul": lambda: vsum(engine.mul(a, b)),
            "sigmoid": lambda: vsum(engine.mul(sigmoid(a), b)),
            "tanh": lambda: vsum(engine.mul(tanh(a), b)),
            "relu": lambda: vsum(engine.mul(relu(a), b)),
            "ramp": lambda: vsum(engine.mul(smooth_ramp(a), b)),
            "exp": lambda: vsum(engine.mul(exp(engine.scale(a, 0.5)), b)),
            "mean": lambda: vsum(engine.mul(engine.vmean(a, axis=1), engine.vmean(b, axis=1))),
        }
        for tag, build in cases.items():
            self._check(build, [a, b], tag, instances=6)

    def test_structural_ops(self):
        a = Value(np.zeros((3, 4, 2), dtype=np.float32), requires_grad=True)
        b = Value(np.zeros((2, 4, 2), dtype=np.float32), requires_grad=True)
        w = Value(np.zeros((3, 5), dtype=np.float32), requires_grad=True)
        idx = np.array([2, 0, 0], dtype=np.intp)
        cases = {
            "reshape": (lambda: vsum(engine.mul(engine.reshape(a, (6, 4)), engine.reshape(a, (6, 4)))), [a]),
            "transpose": (lambda: vsum(engine.mul(transpose(a, (1, 0, 2)), transpose(a, (1, 0, 2)))), [a]),
            "concat": (lambda: vsum(engine.mul(engine.concat([a, b], axis=0), engine.concat([a, b], axis=0))), [a, b]),
            "take": (lambda: vsum(engine.mul(engine.take(a, idx), engine.take(a, idx))), [a]),
            "broadcast": (
                lambda: vsum(engine.mul(broadcast_to(engine.reshape(a, (1, 3, 4, 2)), (5, 3, 4, 2)), 0.3)), [a]),
            "matmul_flat": (lambda: vsum(tanh(matmul(engine.reshape(a, (8, 3)), w))), [a, w]),
        }
        for tag, (build, params) in cases.items():
            self._check(build, params, tag, instances=6)

    def test_matmul_batched_gradients(self):
        a = Value(np.zeros((3, 4, 2), dtype=np.float32), requires_grad=True)
        w = Value(np.zeros((2, 5), dtype=np.float32), requires_grad=True)

        def build():
            return vsum(tanh(matmul(a, w)))

        self._check(build, [a, w], "matmul_batched", instances=8)

    def test_fused_ops_gradients(self):
        x = Value(np.zeros((4, 6), dtype=np.float32), requires_grad=True)
        g = Value(np.ones(6, dtype=np.float32), requires_grad=True)
        b = Value(np.zeros(6, dtype=np.float32), requires_grad=True)
        labels = np.array([1, 0, 2, 1], dtype=np.intp)
        cases = {
            "softmax": (lambda: vsum(engine.mul(softmax_axis(x, axis=1), tanh(x))), [x]),
            "layer_norm": (lambda: vsum(engine.mul(layer_norm(x, g, b), sigmoid(x))), [x, g, b]),
            "cross_entropy": (lambda: engine.cross_entropy(x, labels), [x]),
        }
        for tag, (build, params) in cases.items():
            self._check(build, params, tag, instances=8)

    def test_gru_gradients(self):
        # the gated update runs inside the slot-attention node: one iteration, two slots
        rng = engine.rng_for(31, "gru-fd")
        sa = SlotAttentionParams.create(rng, 2, 3, 3, iterations=1)
        p = sa.gru
        for name in ("bz", "br", "bh"):
            getattr(p, name).data = engine.normal(rng, (3,), std=0.5)
        h = Value(engine.normal(rng, (2, 3)), requires_grad=True)
        x = Value(engine.normal(rng, (1, 4, 3)), requires_grad=True)
        params = [h, x] + [getattr(p, k) for k in engine.GRU_NAMES]

        def build():
            return vsum(engine.mul(slot_attention(x, h, sa, 1, 0.5)[0], 0.5))

        ok, total = fd_check(build, params, engine.rng_for(31, "pick"), coords_per_param=4)
        assert ok / total >= 0.95


class TestAdam:
    def test_zero_grad_keeps_params(self):
        p = Value([1.0, -2.0], requires_grad=True)
        state = AdamState()
        adam_update({"p": p}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])
        assert state.t == 1

    def test_first_step_hand_computed(self):
        # bias correction makes the first step exactly lr * g / (|g| + eps)
        p = Value([1.0], requires_grad=True)
        p.grad = np.array([1.0], dtype=np.float32)
        adam_update({"p": p}, AdamState(), lr=0.1)
        assert abs((1.0 - float(p.data[0])) - 0.1) < 1e-6

    def test_determinism(self):
        def run():
            rng = engine.rng_for(17, "adam")
            p = Value(engine.normal(rng, (4, 4)), requires_grad=True)
            state = AdamState()
            for step in range(20):
                loss = vsum(engine.mul(p, p))
                engine.zero_grads([p])
                backward(loss)
                adam_update({"p": p}, state, lr=1e-2)
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
            recip(Value([0.0]))

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
    """Elementwise forms checked against float64 and np.where references."""

    def test_sigmoid_matches_float64(self):
        # 1 / (1 + exp(-x)) takes no branch on the sign: where exp overflows the
        # result is the exact limit 0, silently
        edges = [0.0, -0.0, 1e-3, -1e-3, 20.0, -20.0, 88.0, -88.0, 100.0, -100.0, 1e4, -1e4]
        samples = engine.normal(engine.rng_for(3, "sigmoid"), (100_000,), 3.0)
        x = np.concatenate([np.array(edges, dtype=np.float32), samples])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = engine._sigmoid_data(x)
        assert out.dtype == np.float32
        want = 0.5 * (1.0 + np.tanh(0.5 * x.astype(np.float64)))  # no overflow in float64 either
        assert np.abs(out - want).max() <= 1e-7
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out[0] == out[1] == 0.5
        assert out[edges.index(-1e4)] == 0.0 and out[edges.index(1e4)] == 1.0

    def test_relu_equal_to_where_reference(self):
        x = engine.normal(engine.rng_for(3, "relu"), (64,))
        x[:4] = [0.0, -0.0, 1e-30, -1e-30]
        out = relu(Value(x)).data
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
            backward(vsum(engine.mul(layer_norm(x, g, b), probe)))
            return g.grad.copy(), b.grad.copy()

        with_input = Value(data, requires_grad=True)
        live = param_grads(with_input)
        assert np.any(with_input.grad != 0.0)
        dead_input = Value(data)
        dead = param_grads(dead_input)
        assert dead_input._grad is None
        for a, c in zip(live, dead):
            assert a.tobytes() == c.tobytes()


    @pytest.mark.parametrize("op", ["matmul", "mul"])
    @pytest.mark.parametrize("constant_side", [0, 1])
    def test_constant_operand_gets_no_adjoint(self, op, constant_side):
        rng = engine.rng_for(9, "dead-operand", op)
        shapes = {"matmul": ((4, 5, 3), (3, 2)), "mul": ((4, 5, 3), (3,))}[op]
        data = [engine.normal(rng, shp) for shp in shapes]
        probe = engine.normal(rng, (4, 5, 2) if op == "matmul" else (4, 5, 3))
        fn = {"matmul": matmul, "mul": engine.mul}[op]
        live_side = 1 - constant_side

        def live_grad(operands):
            backward(vsum(engine.mul(fn(*operands), probe)))
            return operands[live_side].grad.copy()

        both = live_grad([Value(d, requires_grad=True) for d in data])
        operands = [Value(d, requires_grad=(i == live_side)) for i, d in enumerate(data)]
        one = live_grad(operands)
        assert operands[constant_side]._grad is None
        assert both.tobytes() == one.tobytes()


class TestShortAxisReductions:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_max_last_bit_equal_to_numpy_max(self, n):
        rng = engine.rng_for(10, "max-last", n)
        x = engine.normal(rng, (7, 3, n), std=4.0)
        x[0] = np.round(x[0])  # ties
        x[1] = -np.abs(x[1]) - 1.0  # all negative
        got = engine._max_last(x)
        want = x.max(axis=-1, keepdims=True)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 8, 32, 33, 256])
    def test_sum_last_matches_float64(self, n):
        x = engine.normal(engine.rng_for(11, "sum-last", n), (5, 6, n))
        want = x.astype(np.float64).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(engine._sum_last(x), want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("n", [1, 8, 32, 33, 256])
    def test_softmax_last_axis_matches_float64(self, n):
        rng = engine.rng_for(12, "softmax-last", n)
        x = Value(engine.normal(rng, (4, 3, n), std=3.0), requires_grad=True)
        probe = engine.normal(rng, (4, 3, n))
        out = softmax_axis(x, axis=-1)
        x64 = x.data.astype(np.float64)
        e = np.exp(x64 - x64.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-7)
        backward(vsum(engine.mul(out, probe)))
        want_grad = want * (probe - (probe * want).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(x.grad, want_grad, rtol=1e-4, atol=1e-6)


class TestDeterminism:
    def test_bit_identical_pipeline(self):
        def run():
            rng = engine.rng_for(23, "det")
            x = Value(engine.normal(rng, (8, 8)))
            w = Value(engine.normal(rng, (8, 8)))
            y = softmax_axis(matmul(tanh(x), w), axis=1)
            return y.data.tobytes()

        assert run() == run()

    @pytest.mark.parametrize("key", [-1, 2**64, 2**70])
    def test_rng_key_outside_64_bits_raises(self, key):
        # a key is one 64-bit word; folded into one, -1 would draw what
        # 2**64 - 1 draws and 2**70 what 0 draws
        with pytest.raises(EngineError, match="outside"):
            engine.rng_for(key)
        with pytest.raises(EngineError, match="outside"):
            engine.rng_for(5, "x", key)

    def test_rng_keys_are_the_seed_sequence_words(self):
        # the keys enter the seed sequence as given, so every digest built on them holds
        for seed, index in ((0, 0), (2**64 - 1, 2**64 - 1), (11, 3)):
            want = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, zlib.crc32(b"x"), index])))
            got = engine.rng_for(seed, "x", index)
            np.testing.assert_array_equal(got.standard_normal(4), want.standard_normal(4))

    def test_rng_paths_independent(self):
        a = engine.rng_for(5, "x", 0).standard_normal(4)
        b = engine.rng_for(5, "x", 1).standard_normal(4)
        c = engine.rng_for(5, "x", 0).standard_normal(4)
        assert not np.allclose(a, b)
        np.testing.assert_array_equal(a, c)
