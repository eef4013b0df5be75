"""Fused ops checked against composite references: the slot-attention node and
its gated-update and read kernels, the row ops and the transformer blocks.

The references below build the same computations from primitive engine ops,
one graph node per primitive. The gated-update and read kernels (each wrapped
as a node of its own in ``gradcheck``) and the block forwards evaluate the
same products, sums and softmaxes in the same order (the read takes its sums
over slots and inputs as GEMMs against a ones vector, and so does its
reference), so they must match bit for bit; their analytic backwards sum in a
different order, so gradients agree within a float32 tolerance fixed before
measuring. The cross-attention block applies its folded weights on the
query rows or on the inputs, by a rule on the shapes; each case's reference
is the association the block runs at its shape. The slot-attention node
folds weights the unfused path applies one by one, so it agrees with that
path within the tolerances of the row ops below, the forward's floor growing
with the iteration count.

The row ops (``layer_norm``, the MLP's gelu-like ramp as one node,
``linear``) take their row means and column sums as GEMMs, where the forms they replaced used numpy reductions;
forwards agree within ``FWD_RTOL`` and gradients within ``RTOL``, each with
an absolute floor of ``ATOL`` times the tensor's largest entry. A parameter adjoint sums its terms over all R rows,
and a float32 sum of R terms carries a rounding error of about
sqrt(R) * eps32 of their scale in either order, so its floor is the larger
of that and ``ATOL``.
"""

import dataclasses

import numpy as np
import pytest

from slotvid import engine
from slotvid.engine import (
    GruParams,
    ShapeError,
    Value,
    add,
    cross_attention_block,
    layer_norm,
    linear,
    mul,
    reshape,
    residual_mlp,
    scale,
    self_attention_block,
    slot_attention,
)

from slotvid.slot_attention import ATTN_EPS, SlotAttentionParams

from gradcheck import (
    broadcast_to, fd_check, gru_node, matmul, recip, reference_gru, sigmoid, slot_read_node, smooth_ramp, softmax_axis,
    transpose, vsum,
)

RTOL = 1e-5
ATOL = 1e-6
FWD_RTOL = 1e-6


def reference_attention_step(x, q, temp, eps):
    """Composite slot-attention read with keys = values = ``x``, token-major as the
    unfused path ran it: logits [B, M, N] softmaxed over slots, column
    renormalization, weighted mean."""
    logits = scale(matmul(x, transpose(q, (0, 2, 1))), temp)
    attn = softmax_axis(logits, axis=2)
    col_sums = matmul(np.ones((1, x.shape[1]), dtype=np.float32), attn)
    weights = mul(attn, broadcast_to(recip(add(col_sums, np.float32(eps))), attn.shape))
    return matmul(transpose(weights, (0, 2, 1)), x), attn


def reference_slot_read(x, q, temp, eps):
    """Composite slot-major read in the order of ``engine._slot_read``: logits
    ``(temp q) x^T`` [B, N, M] softmaxed over the slots, each slot's row
    renormalized, weighted mean."""
    attn = softmax_axis(matmul(scale(q, temp), transpose(x, (0, 2, 1))), axis=1)
    row_sums = matmul(attn, np.ones((x.shape[1], 1), dtype=np.float32))
    weights = mul(attn, broadcast_to(recip(add(row_sums, np.float32(eps))), attn.shape))
    return matmul(weights, x), attn


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
    leaves = [h, x] + list(engine.named_params(p, "gru").values())
    return p, h, x, probe, leaves


def _attention_case(seed, b, m, n, d):
    rng = engine.rng_for(seed, "fused-attn")
    x, q = _leaf(rng, (b, m, d)), _leaf(rng, (b, n, d))
    probe = engine.normal(rng, (b, n, d))
    return x, q, probe


GRU_SHAPES = [(1, 3), (5, 4), (3, 4, 6), (16, 8)]
ATTENTION_SHAPES = [(1, 1, 1, 3), (2, 5, 3, 4), (4, 17, 8, 6), (3, 32, 2, 7)]


class TestFusedGru:
    """The gated update of the slot-attention node, its kernel ``_gru_rows`` wrapped as a node of its own."""

    @pytest.mark.parametrize("shape", GRU_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_bit_equal_to_composite(self, seed, shape):
        p, h, x, _, _ = _gru_case(seed, shape)
        fused = gru_node(h, x, p)
        ref = reference_gru(h, x, p)
        assert fused.data.shape == shape
        np.testing.assert_array_equal(fused.data, ref.data)

    @pytest.mark.parametrize("shape", GRU_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_composite(self, seed, shape):
        p, h, x, probe, leaves = _gru_case(seed, shape)
        fused = _grads(lambda: vsum(mul(gru_node(h, x, p), probe)), leaves)
        ref = _grads(lambda: vsum(mul(reference_gru(h, x, p), probe)), leaves)
        for got, want in zip(fused, ref):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    def test_input_without_grad_gets_none(self):
        p, h, _, probe, _ = _gru_case(4, (3, 4))
        x = Value(engine.normal(engine.rng_for(4, "x"), (3, 4)))
        engine.backward(vsum(mul(gru_node(h, x, p), probe)))
        assert x._grad is None
        assert np.any(h.grad != 0.0)

    def test_finite_differences(self):
        p, h, x, probe, leaves = _gru_case(7, (2, 3, 4))

        def build():
            return vsum(mul(gru_node(h, x, p), probe))

        ok, total = fd_check(build, leaves, engine.rng_for(7, "pick"), coords_per_param=4)
        assert ok / total >= 0.95

    def test_weight_shape_mismatch(self):
        # the node checks its GRU weights before running
        p, x, init, _ = _node_case(0, (2, 5, 4), 3, 6, True)
        p.gru.uh = Value(np.zeros((6, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="gru.uh"):
            slot_attention(x, init, p, 1, 0.5, ATTN_EPS)


class TestFusedAttentionStep:
    """The read of the slot-attention node, its kernel ``_slot_read`` wrapped as a node of its own."""

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    @pytest.mark.parametrize("dims", ATTENTION_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_bit_equal_to_composite(self, seed, dims, eps):
        x, q, _ = _attention_case(seed, *dims)
        temp = np.float32(1.0 / np.sqrt(dims[3]))
        read, attn = slot_read_node(x, q, temp, eps)
        ref_read, ref_attn = reference_slot_read(x, q, temp, eps)
        np.testing.assert_array_equal(read.data, ref_read.data)
        np.testing.assert_array_equal(attn, ref_attn.data)
        assert isinstance(attn, np.ndarray)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    @pytest.mark.parametrize("dims", ATTENTION_SHAPES)
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_composite(self, seed, dims, eps):
        x, q, probe = _attention_case(seed, *dims)
        temp = np.float32(1.0 / np.sqrt(dims[3]))
        leaves = [x, q]
        fused = _grads(lambda: vsum(mul(slot_read_node(x, q, temp, eps)[0], probe)), leaves)
        ref = _grads(lambda: vsum(mul(reference_slot_read(x, q, temp, eps)[0], probe)), leaves)
        for got, want in zip(fused, ref):
            np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_finite_differences(self, eps):
        x, q, probe = _attention_case(9, 2, 6, 3, 4)

        def build():
            return vsum(mul(slot_read_node(x, q, 0.5, eps)[0], probe))

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
        engine.backward(vsum(mul(slot_read_node(x, q, 0.5, 1e-8)[0], probe)))
        assert const._grad is None
        assert np.any(live.grad != 0.0)

    def test_mask_rows_sum_to_one(self):
        x, q, _ = _attention_case(3, 3, 10, 4, 4)
        _, attn = slot_read_node(x, q, 0.5, 1e-8)
        np.testing.assert_allclose(attn.sum(axis=1), 1.0, atol=1e-6)

    def test_shape_checks(self):
        # the node refuses read operands whose widths disagree
        p, x, init, _ = _node_case(0, (2, 5, 4), 3, 6, True)
        with pytest.raises(ShapeError):
            slot_attention(reshape(x, (10, 4)), init, p, 1, 0.5, ATTN_EPS)
        with pytest.raises(ShapeError, match="in_norm_g"):  # inputs narrower than the weights
            slot_attention(Value(np.zeros((2, 5, 3), dtype=np.float32)), init, p, 1, 0.5, ATTN_EPS)
        p.wk = Value(np.zeros((4, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="wk"):
            slot_attention(x, init, p, 1, 0.5, ATTN_EPS)
        p.wq = Value(np.zeros((6, 5), dtype=np.float32))
        with pytest.raises(ShapeError, match="wq"):
            slot_attention(x, init, p, 1, 0.5, ATTN_EPS)


# -- the slot-attention node ---------------------------------------------------------


def reference_slot_attention(x, init, p, iterations, temp):
    """The unfused path: the input layer norm, then per iteration the slot layer
    norm, the query, the token-major read, ``wv`` on the read, the gated
    update and the residual MLP, each its own node."""
    b, _, d_in = x.shape
    n, d = init.shape[-2:]
    xn = layer_norm(x, p.in_norm_g, p.in_norm_b)
    wqk = matmul(p.wq, transpose(p.wk, (1, 0)))
    slots = reshape(broadcast_to(init, (b, n, d)), (b * n, d))
    attn = None
    for _ in range(iterations):
        q = matmul(layer_norm(slots, p.slot_norm_g, np.zeros(d, dtype=np.float32)), wqk)
        read, attn = reference_attention_step(xn, reshape(q, (b, n, d_in)), temp, ATTN_EPS)
        slots = reference_gru(slots, matmul(reshape(read, (b * n, d_in)), p.wv), p.gru)
        slots = residual_mlp(slots, p.mlp_norm_g, p.mlp_norm_b, p.mlp_w1, p.mlp_b1, p.mlp_w2, p.mlp_b2)
    return reshape(slots, (b, n, d)), attn.data


def _node_case(seed, shape, n, d, x_grad, per_set_init=False, spread=0.3):
    """Slot-attention params at a generic point (norm gains off one and nonzero
    norm shifts of scale ``spread``, nonzero biases), initial slots of half
    unit scale, inputs and a probe."""
    rng = engine.rng_for(seed, "slot-node", *shape)
    p = SlotAttentionParams.create(rng, n, shape[2], d)
    for name, v in engine.named_params(p, "sa").items():
        v.data = v.data + engine.normal(rng, v.data.shape, std=spread if name.endswith((".g", ".b")) else 0.1)
    init = _leaf(rng, (shape[0], n, d) if per_set_init else (n, d), std=0.5)
    x = Value(engine.normal(rng, shape, std=2.0) + np.float32(0.5), requires_grad=x_grad)
    probe = engine.normal(rng, (shape[0], n, d))
    return p, x, init, probe


def _node_leaves(p, x, init):
    """(name, leaf) of every operand of the node that takes an adjoint."""
    return [("init", init), *engine.named_params(p, "sa").items()] + ([("x", x)] if x.requires_grad else [])


# (inputs [B, M, D_in], slots, slot width) of the default config: joint_tune's
# slow branch (64 frames of 256 tokens) and fast branch (128 positions over 32
# frames), and stage-1 slow pretraining (16 frames)
NODE_SHAPES = {"joint-slow": ((64, 256, 32), 8, 64), "joint-fast": ((128, 32, 32), 8, 64),
               "stage1-slow": ((16, 256, 32), 8, 64)}
NODE_CASES = [(shape, grad, k) for shape in NODE_SHAPES for grad in (True, False) for k in (1, 3)]


def _node_id(case):
    shape, grad, k = case
    return f"{shape}-{'x-grad' if grad else 'no-x-grad'}-{k}it"


class TestSlotAttentionNode:
    """``engine.slot_attention`` against the unfused path it replaces, whose
    folds (the input norm's gain and bias into the query and the value
    weights, ``wv`` into the GRU's input weights, the slot norm's gain and the
    temperature into the query weights) change float32 rounding only."""

    @pytest.mark.parametrize("case", NODE_CASES, ids=_node_id)
    def test_forward_matches_composite(self, case):
        name, x_grad, k = case
        shape, n, d = NODE_SHAPES[name]
        p, x, init, _ = _node_case(0, shape, n, d, x_grad)
        temp = np.float32(1.0 / np.sqrt(d))
        slots, mask = slot_attention(x, init, p, k, temp, ATTN_EPS)
        want_slots, want_mask = reference_slot_attention(x, init, p, k, temp)
        assert slots.shape == want_slots.shape and mask.shape == want_mask.shape
        assert mask.dtype == np.float32 and mask.flags["C_CONTIGUOUS"]
        # each iteration carries the last one's rounding into its own, so the
        # floor grows with the iteration count
        _close(slots.data, want_slots.data, FWD_RTOL, "slots", passes=k)
        _close(mask, want_mask, FWD_RTOL, "mask", passes=k)

    @pytest.mark.parametrize("case", NODE_CASES, ids=_node_id)
    def test_gradients_match_composite(self, case):
        name, x_grad, k = case
        shape, n, d = NODE_SHAPES[name]
        p, x, init, probe = _node_case(1, shape, n, d, x_grad)
        temp = np.float32(1.0 / np.sqrt(d))
        named = _node_leaves(p, x, init)
        leaves = [v for _, v in named]
        got = _grads(lambda: vsum(mul(slot_attention(x, init, p, k, temp, ATTN_EPS)[0], probe)), leaves)
        want = _grads(lambda: vsum(mul(reference_slot_attention(x, init, p, k, temp)[0], probe)), leaves)
        # a weight's adjoint sums over every slot row of every iteration, and
        # those folded through the inputs over every token too
        rows = k * shape[0] * max(shape[1], n)
        for (leaf_name, _), g, w in zip(named, got, want):
            _close(g, w, RTOL, leaf_name, terms=rows)
        if not x_grad:
            assert x._grad is None

    @pytest.mark.parametrize("per_set_init", [False, True], ids=["shared-init", "per-set-init"])
    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_finite_differences(self, eps, per_set_init):
        # two iterations run the backward loop over a carried state; from three,
        # many random points sit where the softmax is sharp enough that float32
        # central differences miss at this step size (the composite's too)
        p, x, init, probe = _node_case(5, (2, 5, 3), 3, 4, True, per_set_init, spread=0.1)
        leaves = [v for _, v in _node_leaves(p, x, init)]

        def build():
            return vsum(mul(slot_attention(x, init, p, 2, 0.5, eps)[0], probe))

        ok, total = fd_check(build, leaves, engine.rng_for(5, "pick", eps, per_set_init), coords_per_param=3, h=3e-3)
        assert ok / total >= 0.95

    def test_shape_checks(self):
        p, x, init, _ = _node_case(0, (2, 5, 4), 3, 6, True)
        with pytest.raises(ShapeError):
            slot_attention(x, reshape(init, (1, 3, 6)), p, 1, 0.5, ATTN_EPS)  # one set's slots for two sets
        with pytest.raises(ShapeError, match="mlp_w2"):
            p.mlp_w2 = Value(np.zeros((6, 12), dtype=np.float32))
            slot_attention(x, init, p, 1, 0.5, ATTN_EPS)

    def test_non_finite_raises(self):
        p, x, init, _ = _node_case(0, (2, 5, 4), 3, 6, True)
        huge = Value(np.float32(3e38) * np.sign(engine.normal(engine.rng_for(0, "huge"), (2, 5, 4))))
        p_huge = dataclasses.replace(p, wq=Value(np.full_like(p.wq.data, 3e38)))  # the folded query weights overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(engine.NonFiniteError, match="normalized"):
                slot_attention(huge, init, p, 1, 0.5, ATTN_EPS)
            with pytest.raises(engine.NonFiniteError, match="attention"):
                slot_attention(x, init, p_huge, 1, 0.5, ATTN_EPS)

    def test_mask_is_contiguous_rows_over_slots(self):
        p, x, init, _ = _node_case(3, (3, 10, 4), 4, 6, False)
        slots, mask = slot_attention(x, init, p, 2, 0.5, ATTN_EPS)
        assert type(mask) is np.ndarray and mask.shape == (3, 10, 4) and mask.flags["C_CONTIGUOUS"]
        np.testing.assert_allclose(mask.sum(axis=2), 1.0, atol=1e-6)
        assert slots.shape == (3, 4, 6)


# -- row ops ----------------------------------------------------------------------


def reference_layer_norm(x, gain, bias, eps=engine.LAYER_NORM_EPS):
    """Layer norm with numpy reductions for its means and sums, one node."""
    mu = x.data.mean(axis=-1, keepdims=True, dtype=np.float32)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True, dtype=np.float32)
    inv = 1.0 / np.sqrt(var + np.float32(eps))
    xhat = xc * inv

    def backward(g, adj):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True, dtype=np.float32)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True, dtype=np.float32)
        engine._send(adj, x, inv * (dxhat - m1 - xhat * m2))
        red = tuple(range(g.ndim - 1))
        engine._send(adj, gain, (g * xhat).sum(axis=red))
        engine._send(adj, bias, g.sum(axis=red))

    return engine._node(xhat * gain.data + bias.data, (x, gain, bias), backward)


def reference_smooth_ramp(a):
    return mul(a, sigmoid(scale(a, 1.702)))


def reference_linear(x, w, b):
    return add(matmul(x, w), b)


def _close(got, want, rtol, what="", terms=1, passes=1):
    floor = passes * max(ATOL, np.finfo(np.float32).eps * np.sqrt(terms))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=floor * np.abs(want).max(), err_msg=what)


def _rows(shape):
    return int(np.prod(shape[:-1]))


def _row_case(seed, build_leaves):
    """(op arguments, leaves that take an adjoint, terms each leaf's adjoint sums over)."""
    return build_leaves(engine.rng_for(seed, "fused-rows"))


def _layer_norm_leaves(shape, x_grad):
    def build(rng):
        x = Value(engine.normal(rng, shape, std=2.0) + 0.5, requires_grad=x_grad)
        g = _leaf(rng, shape[-1:])
        b = _leaf(rng, shape[-1:])
        r = _rows(shape)
        return (x, g, b), [x, g, b] if x_grad else [g, b], [1, r, r] if x_grad else [r, r]

    return build


def _ramp_leaves(shape):
    def build(rng):
        x = _leaf(rng, shape, std=2.0)
        return (x,), [x], [1]

    return build


def _linear_leaves(shape, d_out):
    def build(rng):
        x = _leaf(rng, shape)
        w = _leaf(rng, (shape[-1], d_out), std=shape[-1] ** -0.5)
        b = _leaf(rng, (d_out,))
        return (x, w, b), [x, w, b], [1, _rows(shape), _rows(shape)]

    return build


# (fused op, composite reference, leaf maker) at the shapes the default
# config runs: decoder rows [4096, 64] (16 sets of 256 positions), slot-branch
# inputs [64, 256, 32] that need no adjoint, query-transformer hidden rows
# [1024, 128] and connector tokens [8, 64, 64]
ROW_CASES = {
    "layer_norm-decoder-rows": (layer_norm, reference_layer_norm, _layer_norm_leaves((4096, 64), True)),
    "layer_norm-inputs-no-grad": (layer_norm, reference_layer_norm, _layer_norm_leaves((64, 256, 32), False)),
    "layer_norm-hidden": (layer_norm, reference_layer_norm, _layer_norm_leaves((1024, 128), True)),
    "smooth_ramp-decoder-rows": (smooth_ramp, reference_smooth_ramp, _ramp_leaves((4096, 64))),
    "smooth_ramp-hidden": (smooth_ramp, reference_smooth_ramp, _ramp_leaves((1024, 128))),
    "linear-decoder-rows": (linear, reference_linear, _linear_leaves((4096, 64), 128)),
    "linear-hidden": (linear, reference_linear, _linear_leaves((1024, 128), 64)),
    "linear-tokens-3d": (linear, reference_linear, _linear_leaves((8, 64, 64), 64)),
}


class TestFusedRowOps:
    @pytest.mark.parametrize("case", list(ROW_CASES))
    def test_forward_matches_composite(self, case):
        op, ref, leaves = ROW_CASES[case]
        args, _, _ = _row_case(0, leaves)
        got, want = op(*args), ref(*args)
        assert got.shape == want.shape
        _close(got.data, want.data, FWD_RTOL)

    @pytest.mark.parametrize("case", list(ROW_CASES))
    def test_gradients_match_composite(self, case):
        op, ref, leaves = ROW_CASES[case]
        args, trained, terms = _row_case(1, leaves)
        probe = engine.normal(engine.rng_for(1, "row-probe", case), op(*args).shape)
        fused = _grads(lambda: vsum(mul(op(*args), probe)), trained)
        want = _grads(lambda: vsum(mul(ref(*args), probe)), trained)
        for i, (got, w, n) in enumerate(zip(fused, want, terms)):
            _close(got, w, RTOL, f"{case} leaf {i}", terms=n)

    @pytest.mark.parametrize("op", ["layer_norm", "smooth_ramp", "linear"])
    def test_finite_differences(self, op):
        small = {
            "layer_norm": (layer_norm, _layer_norm_leaves((3, 4, 6), True)),
            "smooth_ramp": (smooth_ramp, _ramp_leaves((5, 7))),
            "linear": (linear, _linear_leaves((2, 3, 5), 4)),
        }
        fn, leaves = small[op]
        args, trained, _ = _row_case(5, leaves)
        probe = engine.normal(engine.rng_for(5, "fd-probe", op), fn(*args).shape)

        def build():
            return vsum(mul(fn(*args), probe))

        ok, total = fd_check(build, trained, engine.rng_for(5, "pick", op), coords_per_param=6)
        assert ok / total >= 0.95

    def test_linear_constant_operands_get_none(self):
        (x, w, b), _, _ = _row_case(3, _linear_leaves((4, 5), 3))
        x, b = Value(x.data), Value(b.data)
        engine.backward(vsum(linear(x, w, b)))
        assert x._grad is None and b._grad is None
        np.testing.assert_allclose(w.grad, np.broadcast_to(x.data.sum(axis=0)[:, None], (5, 3)), rtol=1e-6)

    def test_linear_shape_checks(self):
        (x, w, b), _, _ = _row_case(0, _linear_leaves((4, 5), 3))
        with pytest.raises(ShapeError):
            linear(x, transpose(w, (1, 0)), b)
        with pytest.raises(ShapeError):
            linear(x, w, Value(np.zeros(5, dtype=np.float32)))
        with pytest.raises(ShapeError):
            linear(x, reshape(w, (5, 3, 1)), b)


# -- transformer blocks ---------------------------------------------------------------


def reference_residual_mlp(x, g, b, w1, b1, w2, b2):
    return add(x, linear(smooth_ramp(linear(layer_norm(x, g, b), w1, b1)), w2, b2))


def _head_blocks(w, heads):
    """[D, heads*dh] weight columns as per-head blocks [heads, D, dh]."""
    d, width = w.shape
    return transpose(reshape(w, (d, heads, width // heads)), (1, 0, 2))


def reference_folds(heads, wq, wk, wv, wo):
    """The cross-attention's per-head weight folds as primitive ops: ``wqk =
    [wq_h wk_h^T / sqrt(dh)]_h`` [D_q, h*D_in] and ``wvo = [wv_h wo_h]_h``
    [h*D_in, D_q]."""
    d_in, dq = wk.shape
    dh = dq // heads
    wk_t = transpose(_head_blocks(wk, heads), (0, 2, 1))  # [h, dh, D_in]
    wqk = reshape(transpose(matmul(_head_blocks(wq, heads), wk_t), (1, 0, 2)), (dq, heads * d_in))
    wvo = reshape(matmul(_head_blocks(wv, heads), reshape(wo, (heads, dh, dq))), (heads * d_in, dq))
    return scale(wqk, np.float32(1.0 / np.sqrt(dh))), wvo


def reference_cross_attention(x, inputs, heads, ln_g, ln_b, wq, wk, wv, wo, bo):
    """The folds, then layer norm, the query rows over the inputs, softmax over the inputs, the read, its map back."""
    wqk, wvo = reference_folds(heads, wq, wk, wv, wo)
    b, _, d_in = inputs.shape
    q = reshape(matmul(layer_norm(x, ln_g, ln_b), wqk), (b, -1, d_in))
    attn = softmax_axis(matmul(q, transpose(inputs, (0, 2, 1))), axis=2)
    read = reshape(matmul(attn, inputs), (x.shape[0], wqk.shape[1]))
    return add(x, linear(read, wvo, bo)), attn


def reference_cross_attention_inputs(x, inputs, heads, ln_g, ln_b, wq, wk, wv, wo, bo):
    """The folds, then the input-side association: per head, keys ``inputs
    wqk_h^T`` and values ``inputs wvo_h`` as [B, h*M, D_q]; layer norm, the
    rows over the keys, softmax over the inputs, the output summed over the
    heads."""
    wqk, wvo = reference_folds(heads, wq, wk, wv, wo)
    b, m, d_in = inputs.shape
    rows, dq = x.shape
    h = heads
    in_rows = reshape(inputs, (b * m, d_in))

    def heads_major(r):
        return reshape(transpose(reshape(r, (b, m, h, dq)), (0, 2, 1, 3)), (b, h * m, dq))

    keys = heads_major(matmul(in_rows, reshape(transpose(reshape(wqk, (dq, h, d_in)), (2, 1, 0)), (d_in, h * dq))))
    values = heads_major(matmul(in_rows, reshape(transpose(reshape(wvo, (h, d_in, dq)), (1, 0, 2)), (d_in, h * dq))))
    ln = reshape(layer_norm(x, ln_g, ln_b), (b, rows // b, dq))
    attn = softmax_axis(reshape(matmul(ln, transpose(keys, (0, 2, 1))), (b, -1, m)), axis=2)
    out = reshape(matmul(reshape(attn, (b, rows // b, h * m)), values), (rows, dq))
    return add(x, add(out, bo)), attn


def reference_self_attention(x, sets, heads, ln_g, ln_b, wq, wk, wv, wo, bo):
    """Layer norm, per-head q, k and v split out of [sets*N, D] rows, softmax over the keys, heads merged."""
    rows, d = x.shape
    dh = d // heads

    def split(r):
        return transpose(reshape(r, (sets, rows // sets, heads, dh)), (0, 2, 1, 3))

    xs = layer_norm(x, ln_g, ln_b)
    q, k, v = (split(matmul(xs, w)) for w in (wq, wk, wv))
    attn = softmax_axis(scale(matmul(q, transpose(k, (0, 1, 3, 2))), np.float32(1.0 / np.sqrt(dh))), axis=3)
    return add(x, linear(reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (rows, d)), wo, bo))


def _norm_leaves(rng, d):
    return Value(engine.normal(rng, (d,), std=0.5) + np.float32(1.0), requires_grad=True), _leaf(rng, (d,), std=0.5)


def _weight(rng, fan_in, fan_out):
    return _leaf(rng, (fan_in, fan_out), std=fan_in**-0.5)


def _mlp_case(rows, d):
    def build(rng):
        x = _leaf(rng, (rows, d))
        g, b = _norm_leaves(rng, d)
        w1, b1, w2, b2 = _weight(rng, d, 2 * d), _leaf(rng, (2 * d,), 0.5), _weight(rng, 2 * d, d), _leaf(rng, (d,), 0.5)
        return (x, g, b, w1, b1, w2, b2), [x, g, b, w1, b1, w2, b2]

    return residual_mlp, reference_residual_mlp, build


def _cross_case(rows, inputs_shape, heads, inputs_grad, reference=reference_cross_attention):
    def build(rng):
        b, m, d_in = inputs_shape
        d = 64 if rows > 64 else 8
        x = _leaf(rng, (rows, d))
        inputs = Value(engine.normal(rng, inputs_shape), requires_grad=inputs_grad)
        g, bias = _norm_leaves(rng, d)
        wq, wk, wv, wo = _weight(rng, d, d), _weight(rng, d_in, d), _weight(rng, d_in, d), _weight(rng, d, d)
        bo = _leaf(rng, (d,), 0.5)
        leaves = [x, g, bias, wq, wk, wv, wo, bo] + ([inputs] if inputs_grad else [])
        return (x, inputs, heads, g, bias, wq, wk, wv, wo, bo), leaves

    return cross_attention_block, reference, build


def _self_case(sets, n, d, heads):
    def build(rng):
        x = _leaf(rng, (sets * n, d))
        g, b = _norm_leaves(rng, d)
        wq, wk, wv, wo = (_weight(rng, d, d) for _ in range(4))
        bo = _leaf(rng, (d,), 0.5)
        return (x, sets, heads, g, b, wq, wk, wv, wo, bo), [x, g, b, wq, wk, wv, wo, bo]

    return self_attention_block, reference_self_attention, build


# (fused block, composite reference, argument maker) at the default shapes:
# the stage-1 decoder's rows [4096, 64] over 16 sets of 8 slots and [1024, 64]
# over 32 sets (input side), query rows [512, 64] over the slow branch's
# [64, 256, 32] inputs (no adjoint) and [1024, 64] over the fast branch's
# [128, 32, 32] (with one; query side), the input side with 4 heads and
# without an input adjoint, the query transformer's self attention over 8
# queries in 4 heads, and the MLP with its gelu-like ramp
BLOCK_CASES = {
    "mlp-decoder-gelu-like": _mlp_case(4096, 64),
    "mlp-query-rows": _mlp_case(512, 64),
    "cross-decoder": _cross_case(4096, (16, 8, 64), 1, True, reference_cross_attention_inputs),
    "cross-decoder-fast": _cross_case(1024, (32, 8, 64), 1, True, reference_cross_attention_inputs),
    "cross-inputs-heads-no-input-grad": _cross_case(2048, (16, 8, 32), 4, False, reference_cross_attention_inputs),
    "cross-query-slow": _cross_case(512, (64, 256, 32), 4, False),
    "cross-query-fast": _cross_case(1024, (128, 32, 32), 4, True),
    "self-query-slow": _self_case(64, 8, 64, 4),
    "self-query-fast": _self_case(128, 8, 64, 4),
}
# the same blocks at finite-difference size; the cross-attention on both
# sides: 3 query rows over 5 or 7 inputs, 12 over 2 or 3
SMALL_BLOCK_CASES = {
    "mlp-gelu-like": _mlp_case(5, 6),
    "cross-one-head": _cross_case(6, (2, 5, 8), 1, True),
    "cross-heads-no-input-grad": _cross_case(6, (3, 7, 4), 2, False),
    "cross-inputs-one-head": _cross_case(24, (2, 2, 4), 1, True, reference_cross_attention_inputs),
    "cross-inputs-heads-no-input-grad": _cross_case(24, (2, 3, 4), 2, False, reference_cross_attention_inputs),
    "self": _self_case(3, 4, 8, 2),
}


def _block_out(op, args):
    out = op(*args)
    return out[0] if isinstance(out, tuple) else out


class TestFusedBlocks:
    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_forward_bit_equal_to_composite(self, case):
        op, ref, build = BLOCK_CASES[case]
        args, _ = build(engine.rng_for(0, "fused-block", case))
        got, want = op(*args), ref(*args)
        if isinstance(got, tuple):  # the attention comes back as plain data
            assert isinstance(got[1], np.ndarray)
            np.testing.assert_array_equal(got[1], want[1].data)
            got, want = got[0], want[0]
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_gradients_match_composite(self, case):
        op, ref, build = BLOCK_CASES[case]
        args, leaves = build(engine.rng_for(1, "fused-block", case))
        probe = engine.normal(engine.rng_for(1, "block-probe", case), _block_out(op, args).shape)
        fused = _grads(lambda: vsum(mul(_block_out(op, args), probe)), leaves)
        want = _grads(lambda: vsum(mul(_block_out(ref, args), probe)), leaves)
        for i, (got, w) in enumerate(zip(fused, want)):
            _close(got, w, RTOL, f"{case} leaf {i}")

    @pytest.mark.parametrize("case", list(SMALL_BLOCK_CASES))
    def test_finite_differences(self, case):
        op, _, build = SMALL_BLOCK_CASES[case]
        args, leaves = build(engine.rng_for(5, "fd-block", case))
        probe = engine.normal(engine.rng_for(5, "fd-block-probe", case), _block_out(op, args).shape)

        def build_loss():
            return vsum(mul(_block_out(op, args), probe))

        # the residual's terms dwarf the loss they sum to, so its float32
        # noise needs a wider step than the default 1e-3
        ok, total = fd_check(build_loss, leaves, engine.rng_for(5, "pick", case), coords_per_param=6, h=3e-3)
        assert ok / total >= 0.95

    def test_inputs_without_grad_get_none(self):
        for case in ("cross-heads-no-input-grad", "cross-inputs-heads-no-input-grad"):  # both sides
            _, _, build = SMALL_BLOCK_CASES[case]
            args, leaves = build(engine.rng_for(6, "dead-inputs"))
            engine.backward(vsum(cross_attention_block(*args)[0]))
            assert args[1]._grad is None
            assert all(np.any(p.grad != 0.0) for p in leaves)

    @pytest.mark.parametrize(
        "shape, on_inputs, costs",
        [
            # (N query rows, M inputs, D_q, D_in) per set: the stage-1 decoder's
            # 256 and 32 positions over 8 slots, the query transformer's 8
            # queries over the slow branch's 256 and the fast branch's 32 tokens
            ((256, 8, 64, 64), True, (163_840, 1_179_648)),
            ((32, 8, 64, 64), True, (49_152, 147_456)),
            ((8, 256, 64, 32), False, (655_360, 81_920)),
            ((8, 32, 64, 32), False, (81_920, 24_576)),
        ],
    )
    def test_cross_attention_side_rule(self, shape, on_inputs, costs):
        n, m, dq, d_in = shape
        assert (m * dq * (d_in + n), n * d_in * (dq + m)) == costs
        assert engine._folds_on_inputs(n, m, dq, d_in) is on_inputs

    @pytest.mark.parametrize("cases", [BLOCK_CASES, SMALL_BLOCK_CASES], ids=["default", "small"])
    def test_cross_cases_run_their_reference_side(self, cases):
        # each case's reference is the association the node runs at its shape, and both sides are covered
        sides = set()
        for name, (op, ref, build) in cases.items():
            if op is cross_attention_block:
                (x, inputs, *_), _ = build(engine.rng_for(0, "sides", name))
                b, m, d_in = inputs.shape
                on_inputs = engine._folds_on_inputs(x.shape[0] // b, m, x.shape[1], d_in)
                assert on_inputs is (ref is reference_cross_attention_inputs), name
                sides.add(on_inputs)
        assert sides == {True, False}

    # the decoder's 1 head on the inputs, the query transformer's 4 on the
    # queries, and a head width of 8, whose temperature 1/sqrt(8) is not a
    # power of two and so rounds wherever it is applied
    @pytest.mark.parametrize("case", ["cross-decoder", "cross-query-slow", "cross-one-head"])
    def test_weight_adjoints_bit_equal_to_graph_folds(self, case, monkeypatch):
        # the node hands the adjoints of its folds to ``_head_fold_grads``; fed
        # those, the folds' primitive graph gives the four raw weights the
        # same bits as the node
        op, _, build = BLOCK_CASES.get(case) or SMALL_BLOCK_CASES[case]
        args, _ = build(engine.rng_for(2, "fold-grads", case))
        heads, weights = args[2], list(args[5:9])
        seen, real = [], engine._head_fold_grads

        def spy(g_wqk, g_wvo, *rest):
            seen.append((g_wqk, g_wvo))
            return real(g_wqk, g_wvo, *rest)

        monkeypatch.setattr(engine, "_head_fold_grads", spy)
        probe = engine.normal(engine.rng_for(2, "fold-probe", case), _block_out(op, args).shape)
        got = _grads(lambda: vsum(mul(_block_out(op, args), probe)), weights)
        [(g_wqk, g_wvo)] = seen
        copies = [Value(w.data.copy(), requires_grad=True) for w in weights]
        wqk, wvo = reference_folds(heads, *copies)
        want = _grads(lambda: add(vsum(mul(wqk, g_wqk)), vsum(mul(wvo, g_wvo))), copies)
        for name, g, w in zip(("wq", "wk", "wv", "wo"), got, want):
            assert np.any(g != 0.0), name
            np.testing.assert_array_equal(g, w, err_msg=name)

    def test_shape_checks(self):
        # 6 query rows of width 8 over 3 sets of 7 inputs of width 4, 2 heads
        args, _ = SMALL_BLOCK_CASES["cross-heads-no-input-grad"][2](engine.rng_for(7, "shapes"))
        x, inputs, heads, g, b, wq, wk, wv, wo, bo = args
        cross_attention_block(*args)

        def bad(i, value):
            return tuple(value if j == i else a for j, a in enumerate(args))

        for i, value in [
            (0, reshape(x, (2, 3, 8))),  # query rows not 2-D
            (0, Value(np.zeros((5, 8), dtype=np.float32))),  # 5 rows in 3 sets
            (1, reshape(inputs, (21, 4))),  # inputs not sets
            (2, 3),  # width 8 in 3 heads
            (2, 0),
            (5, Value(np.zeros((8, 4), dtype=np.float32))),  # wq not [D_q, D_q]
            (6, transpose(wk, (1, 0))),  # wk not [D_in, D_q]
            (7, transpose(wv, (1, 0))),
            (8, Value(np.zeros((8, 7), dtype=np.float32))),  # wo not [D_q, D_q]
        ]:
            with pytest.raises(ShapeError):
                cross_attention_block(*bad(i, value))
        (x, _, _, g, b, wq, wk, wv, wo, bo), _ = SMALL_BLOCK_CASES["self"][2](engine.rng_for(7, "shapes"))
        with pytest.raises(ShapeError):
            self_attention_block(x, 5, 2, g, b, wq, wk, wv, wo, bo)  # 12 rows in 5 sets
        with pytest.raises(ShapeError):
            self_attention_block(x, 3, 3, g, b, wq, wk, wv, wo, bo)  # width 8 in 3 heads
        (x, g, b, w1, b1, w2, b2), _ = SMALL_BLOCK_CASES["mlp-gelu-like"][2](engine.rng_for(7, "shapes"))
        with pytest.raises(ShapeError):
            residual_mlp(x, g, b, w1, b1, transpose(w2, (1, 0)), b2)


# -- query rows shared by every set -----------------------------------------------------


def _shared_case(n, d, inputs_shape, heads, inputs_grad):
    """A stack's first cross-attention: learned queries [1, N, D] shared by every set of the inputs."""
    def build(rng):
        d_in = inputs_shape[2]
        queries = _leaf(rng, (1, n, d))
        inputs = Value(engine.normal(rng, inputs_shape), requires_grad=inputs_grad)
        g, bias = _norm_leaves(rng, d)
        wq, wk, wv, wo = _weight(rng, d, d), _weight(rng, d_in, d), _weight(rng, d_in, d), _weight(rng, d, d)
        bo = _leaf(rng, (d,), 0.5)
        leaves = [queries, g, bias, wq, wk, wv, wo, bo] + ([inputs] if inputs_grad else [])
        return (queries, inputs, heads, g, bias, wq, wk, wv, wo, bo), leaves

    return build


def _copied_rows(queries, inputs, *rest):
    """The same block over a B-fold copy of the shared rows, as [B*N, D] rows."""
    b, (_, n, d) = inputs.shape[0], queries.shape
    return cross_attention_block(reshape(broadcast_to(queries, (b, n, d)), (b * n, d)), inputs, *rest)


# the decoder's 256 positions over 16 sets of 8 slots (input side), the query
# transformer's 8 queries over the slow and the fast branch (query side)
SHARED_CASES = {
    "decoder": _shared_case(256, 64, (16, 8, 64), 1, True),
    "query-slow": _shared_case(8, 64, (64, 256, 32), 4, False),
    "query-fast": _shared_case(8, 64, (128, 32, 32), 4, True),
}
# at finite-difference size, both sides: 3 queries over 5 inputs, 12 over 2
SMALL_SHARED_CASES = {
    "query-side": _shared_case(3, 8, (2, 5, 8), 2, True),
    "inputs-side": _shared_case(12, 8, (3, 2, 4), 1, True),
}


class TestSharedQueryRows:
    """Rows [1, N, D] shared by every set give the values of their B-fold copy
    [B*N, D], and the copy's adjoints summed over the sets."""

    @pytest.mark.parametrize("case", list(SHARED_CASES))
    def test_forward_bit_equal_to_copied_rows(self, case):
        # at these row counts the norm's row sums round as over the copy
        args, _ = SHARED_CASES[case](engine.rng_for(0, "shared-rows", case))
        (got, got_attn), (want, want_attn) = cross_attention_block(*args), _copied_rows(*args)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.data, want.data)
        np.testing.assert_array_equal(got_attn, want_attn)

    @pytest.mark.parametrize("cases, case", [(SHARED_CASES, c) for c in SHARED_CASES]
                             + [(SMALL_SHARED_CASES, c) for c in SMALL_SHARED_CASES])
    def test_gradients_match_copied_rows(self, cases, case):
        args, leaves = cases[case](engine.rng_for(1, "shared-rows", case))
        probe = engine.normal(engine.rng_for(1, "shared-probe", case), cross_attention_block(*args)[0].shape)
        shared = _grads(lambda: vsum(mul(cross_attention_block(*args)[0], probe)), leaves)
        copied = _grads(lambda: vsum(mul(_copied_rows(*args)[0], probe)), leaves)
        for i, (got, want) in enumerate(zip(shared, copied)):
            _close(got, want, RTOL, f"{case} leaf {i}")

    @pytest.mark.parametrize("case", list(SMALL_SHARED_CASES))
    def test_finite_differences(self, case):
        args, leaves = SMALL_SHARED_CASES[case](engine.rng_for(5, "fd-shared", case))
        probe = engine.normal(engine.rng_for(5, "fd-shared-probe", case), cross_attention_block(*args)[0].shape)
        ok, total = fd_check(lambda: vsum(mul(cross_attention_block(*args)[0], probe)), leaves,
                             engine.rng_for(5, "pick-shared", case), coords_per_param=6, h=3e-3)
        assert ok / total >= 0.95

    def test_cases_cover_both_sides(self):
        on_inputs = {"decoder": True, "query-slow": False, "query-fast": False, "query-side": False,
                     "inputs-side": True}
        for name, build in {**SHARED_CASES, **SMALL_SHARED_CASES}.items():
            (queries, inputs, *_), _ = build(engine.rng_for(0, "shared-sides"))
            (_, n, d), (_, m, d_in) = queries.shape, inputs.shape
            assert engine._folds_on_inputs(n, m, d, d_in) is on_inputs[name], name
