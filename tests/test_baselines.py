import math

import numpy as np
import pytest

from slotvid import engine
from slotvid.baselines import (
    PoolingParams,
    QueryTransformerParams,
    WrapParams,
    pooling_connector_batch,
    query_transformer_batch,
    slowfast_wrap,
)
from slotvid.config import from_dict
from slotvid.connector import ConnectorConfig, ConnectorParams, VideoFeatures, clip_views, connect_batch, stack_views
from slotvid.decoder import DecoderParams, decode_batch
from slotvid.engine import (
    Value,
    add,
    layer_norm,
    mul,
    reshape,
    scale,
)
from slotvid.slot_attention import SlotAttentionParams, forward_batch
from slotvid.training import build_model, forward_masks

from gradcheck import broadcast_to, matmul, smooth_ramp, softmax_axis, transpose, vsum


def make_video(seed, cfg, frames=None):
    t = cfg.frames if frames is None else frames
    rng = engine.rng_for(seed, "video")
    return VideoFeatures(engine.normal(rng, (t, cfg.grid_h, cfg.grid_w, cfg.feat_dim)))


class TestPooling:
    def test_356_tokens_for_100_frames(self):
        cfg = ConnectorConfig(frames=100, max_frames=256)
        params = PoolingParams.create(engine.rng_for(1, "pool"), cfg)
        views = stack_views([make_video(1, cfg)], cfg, ("pooling",))
        with engine.no_grad():
            tokens = pooling_connector_batch(Value(views["pooling"]), params)
        assert tokens.shape == (1, 356, cfg.out_dim)  # T frame means + H*W cell means

    def test_constant_input_pools_to_constant(self):
        grid = np.full((3, 4, 4, 2), 0.75, dtype=np.float32)
        tokens = clip_views(VideoFeatures(grid), ConnectorConfig(), ("pooling",))["pooling"]
        assert tokens.shape == (3 + 16, 2)
        np.testing.assert_allclose(tokens, 0.75, atol=1e-6)

    def test_temporal_mean_oracle(self):
        # two frames on a 1x1 grid, values 1 and 3 -> temporal-pooled token 2
        grid = np.array([1.0, 3.0], dtype=np.float32).reshape(2, 1, 1, 1)
        tokens = clip_views(VideoFeatures(grid), ConnectorConfig(), ("pooling",))["pooling"]
        assert tokens.shape == (3, 1)  # 2 frame means + 1 cell mean
        np.testing.assert_allclose(tokens[:2, 0], [1.0, 3.0], atol=1e-7)
        assert tokens[2, 0] == 2.0


def _trace_query_layer(inputs, p):
    """Independent float64 evaluation of the query stack.

    Returns (tokens [N_q, D_q], last cross attention [heads, N_q, M]).
    """

    def f64(v):
        return np.asarray(v.data, dtype=np.float64)

    def ln(x, g, b, eps=1e-5):
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + eps) * f64(g) + f64(b)

    def ramp(x):
        return x / (1.0 + np.exp(-1.702 * x))

    def softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    x = f64(p.queries)
    dh = x.shape[1] // p.n_heads
    heads = [slice(h * dh, (h + 1) * dh) for h in range(p.n_heads)]

    def attend(q, k, v):
        attn = np.stack([softmax(q[:, h] @ k[:, h].T / math.sqrt(dh)) for h in heads])
        return np.concatenate([a @ v[:, h] for a, h in zip(attn, heads)], axis=1), attn

    for layer in p.layers:
        q = ln(x, layer.ln_q_g, layer.ln_q_b) @ f64(layer.wq)
        ctx, attn = attend(q, inputs @ f64(layer.wk), inputs @ f64(layer.wv))
        x = x + ctx @ f64(layer.wo) + f64(layer.bo)
        xs = ln(x, layer.ln_s_g, layer.ln_s_b)
        ctx, _ = attend(xs @ f64(layer.s_wq), xs @ f64(layer.s_wk), xs @ f64(layer.s_wv))
        x = x + ctx @ f64(layer.s_wo) + f64(layer.s_bo)
        hidden = ramp(ln(x, layer.ln_f_g, layer.ln_f_b) @ f64(layer.ff_w1) + f64(layer.ff_b1))
        x = x + hidden @ f64(layer.ff_w2) + f64(layer.ff_b2)
    return x, attn


class TestQueryTransformer:
    def test_mask_columns_sum_to_one_per_head_and_query(self):
        p = QueryTransformerParams.create(engine.rng_for(2, "qt"), 3, 5, 8, n_layers=2, n_heads=2)
        rng = engine.rng_for(2, "x")
        _, masks = query_transformer_batch(Value(engine.normal(rng, (2, 7, 5))), p)
        # each head's column is a distribution over inputs, so their mean is too
        assert masks.shape == (2, 7, 3)
        np.testing.assert_allclose(masks.sum(axis=1), 1.0, atol=1e-5)

    def test_rows_do_not_sum_to_one(self):
        p = QueryTransformerParams.create(engine.rng_for(3, "qt"), 4, 5, 8, n_layers=1, n_heads=2)
        rng = engine.rng_for(3, "x")
        _, masks = query_transformer_batch(Value(engine.normal(rng, (1, 9, 5))), p)
        row_sums = masks.sum(axis=2)
        assert np.abs(row_sums - 1.0).max() > 1e-3

    def test_identity_value_path_gives_weighted_mean(self):
        d = 4
        p = QueryTransformerParams.create(engine.rng_for(4, "qt"), 1, d, d, n_layers=1, n_heads=1)
        layer = p.layers[0]
        eye = np.eye(d, dtype=np.float32)
        layer.wv.data[:] = eye
        layer.wo.data[:] = eye
        layer.bo.data[:] = 0.0
        layer.s_wo.data[:] = 0.0
        layer.s_bo.data[:] = 0.0
        layer.ff_w2.data[:] = 0.0
        layer.ff_b2.data[:] = 0.0
        p.queries.data[:] = 0.0
        rng = engine.rng_for(4, "x")
        inputs = engine.normal(rng, (1, 6, d))
        tokens, masks = query_transformer_batch(Value(inputs), p)
        weights = masks[0, :, 0]  # [M]
        expect = (weights[:, None] * inputs[0]).sum(axis=0)
        np.testing.assert_allclose(tokens.data[0, 0], expect, atol=1e-5)

    def test_miniature_matches_scalar_trace(self):
        p = QueryTransformerParams.create(engine.rng_for(5, "qt"), 2, 3, 4, n_layers=1, n_heads=1)
        rng = engine.rng_for(5, "x")
        inputs = engine.normal(rng, (3, 3))
        tokens, masks = query_transformer_batch(Value(inputs.reshape(1, 3, 3)), p)
        want_tokens, want_attn = _trace_query_layer(np.asarray(inputs, dtype=np.float64), p)
        np.testing.assert_allclose(tokens.data[0], want_tokens, atol=1e-5)
        np.testing.assert_allclose(masks[0], want_attn[0].T, atol=1e-5)

    def test_flat_grid_input(self):
        # the whole T*H*W grid as one input set, as a single flat query aggregator
        cfg = ConnectorConfig(frames=4, grid_h=4, grid_w=4, feat_dim=3, slow_frames=2,
                              pool_stride=2, slot_dim=8, out_dim=4, max_frames=8)
        p = QueryTransformerParams.create(engine.rng_for(6, "qt"), 2, 3, 8, n_layers=1, n_heads=2)
        grid = make_video(6, cfg).grid
        with engine.no_grad():
            tokens, masks = query_transformer_batch(Value(grid.reshape(1, 64, 3)), p)
        assert tokens.shape == (1, 2, 8)
        assert masks.shape == (1, 64, 2)

    def test_head_mean_mask(self):
        # the returned mask is the mean over heads of the last cross attention
        p = QueryTransformerParams.create(engine.rng_for(12, "qt"), 3, 4, 8, n_layers=2, n_heads=4)
        inputs = engine.normal(engine.rng_for(12, "x"), (5, 4))
        tokens, masks = query_transformer_batch(Value(inputs[None]), p)
        want_tokens, want_attn = _trace_query_layer(np.asarray(inputs, dtype=np.float64), p)
        np.testing.assert_allclose(tokens.data[0], want_tokens, atol=1e-4)
        np.testing.assert_allclose(masks[0], want_attn.mean(axis=0).T, atol=1e-5)
        # and the model forward hands it on per frame and per position
        rc = from_dict({
            "connector": {"type": "query_transformer", "frames": 4, "grid_h": 4, "grid_w": 4,
                          "feat_dim": 3, "slow_frames": 2, "pool_stride": 2, "slots_per_frame": 2,
                          "slots_per_position": 2, "slot_dim": 8, "out_dim": 4, "max_frames": 8,
                          "qt_layers": 1, "qt_heads": 2},
        })
        model = build_model(rc)
        with engine.no_grad():
            _, slow, fast = forward_masks(model, stack_views([make_video(11, rc.connector)], rc.connector), "both")
        assert slow.shape == (1, 2, 16, 2) and fast.shape == (1, 4, 4, 2)
        np.testing.assert_allclose(slow.sum(axis=2), 1.0, atol=1e-5)
        np.testing.assert_allclose(fast.sum(axis=2), 1.0, atol=1e-5)


def _keys_values_query_transformer(inputs, p):
    """``query_transformer_batch`` with explicit [B, M, D_q] keys ``x wk`` and values ``x wv``,
    and the query state as [B, N_q, D_q] sets."""
    b, m, _ = inputs.shape
    nq, dq = p.queries.data.shape
    heads = p.n_heads
    temp = np.float32(1.0 / np.sqrt(dq // heads))

    def split(x):
        n = x.shape[1]
        return transpose(reshape(x, (b, n, heads, dq // heads)), (0, 2, 1, 3))

    def merge(x):
        return reshape(transpose(x, (0, 2, 1, 3)), (b, x.shape[2], dq))

    def attend(q, k, v):
        attn = softmax_axis(scale(matmul(q, transpose(k, (0, 1, 3, 2))), temp), axis=3)
        return merge(matmul(attn, v)), attn

    x = broadcast_to(reshape(p.queries, (1, nq, dq)), (b, nq, dq))
    cross = None
    for layer in p.layers:
        q = split(matmul(layer_norm(x, layer.ln_q_g, layer.ln_q_b), layer.wq))
        ctx, cross = attend(q, split(matmul(inputs, layer.wk)), split(matmul(inputs, layer.wv)))
        x = add(x, add(matmul(ctx, layer.wo), layer.bo))
        xs = layer_norm(x, layer.ln_s_g, layer.ln_s_b)
        ctx, _ = attend(split(matmul(xs, layer.s_wq)), split(matmul(xs, layer.s_wk)), split(matmul(xs, layer.s_wv)))
        x = add(x, add(matmul(ctx, layer.s_wo), layer.s_bo))
        hidden = smooth_ramp(add(matmul(layer_norm(x, layer.ln_f_g, layer.ln_f_b), layer.ff_w1), layer.ff_b1))
        x = add(x, add(matmul(hidden, layer.ff_w2), layer.ff_b2))
    return x, cross.data.mean(axis=1).transpose(0, 2, 1)


class TestInputSpaceRead:
    """The folded read of the raw inputs against explicit keys and values: the
    default slow and fast branch shapes, and the tiny config (2 heads, dh 4)."""

    # (sets, inputs, D_in, queries, D_q, heads)
    SHAPES = {"slow": (64, 256, 32, 8, 64, 4), "fast": (128, 32, 32, 8, 64, 4), "tiny": (8, 16, 8, 2, 8, 2)}

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_matches_keys_values_formulation(self, name):
        b, m, d_in, nq, dq, heads = self.SHAPES[name]
        rng = engine.rng_for(15, "qt-input-space", name)
        p = QueryTransformerParams.create(rng, nq, d_in, dq, n_layers=2, n_heads=heads)
        # inputs take gradients, as the fast branch's do through fast_pos
        inputs = Value(engine.normal(rng, (b, m, d_in)), requires_grad=True)
        probe = engine.normal(rng, (b, nq, dq))
        leaves = dict(engine.named_params(p, "qt"), inputs=inputs)
        runs = []
        for fwd in (query_transformer_batch, _keys_values_query_transformer):
            engine.zero_grads(leaves)
            tokens, mask = fwd(inputs, p)
            engine.backward(vsum(mul(tokens, probe)))
            runs.append((tokens.data, mask, {k: v.grad.copy() for k, v in leaves.items()}))
        (tokens, mask, grads), (want_tokens, want_mask, want_grads) = runs
        assert mask.dtype == np.float32 and mask.shape == want_mask.shape == (b, m, nq)
        np.testing.assert_allclose(tokens, want_tokens, rtol=1e-5, atol=1e-5 * np.abs(want_tokens).max())
        np.testing.assert_allclose(mask, want_mask, rtol=1e-5, atol=1e-5 * np.abs(want_mask).max())
        for name, want in want_grads.items():
            np.testing.assert_allclose(grads[name], want, rtol=1e-5, atol=1e-5 * np.abs(want).max(), err_msg=name)


def _graph(root):
    """Every node of the record behind ``root``."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def _op(node):
    """The engine op that made ``node``: its backward's enclosing function, or None for a leaf."""
    return None if node._backward is None else node._backward.__qualname__.split(".")[0]


BLOCKS = ("cross_attention_block", "self_attention_block", "residual_mlp")


def _matmuls(nodes):
    """The (left, right) operands of every matmul node, the (input, weight)
    operands of every linear node and the (rows, weight) operands of every
    block node, asserting there is one."""
    pairs = [n._parents[:2] for n in nodes if _op(n) in ("matmul", "linear")]
    pairs += [(n._parents[0], w) for n in nodes if _op(n) in BLOCKS for w in n._parents[1:] if w.ndim == 2]
    assert pairs
    return pairs


def _shared_queries(nodes, queries):
    """Assert that ``queries`` [N_q, D] enter the graph once, as the [1, N_q, D]
    rows of the first cross-attention node, shared by every set."""
    firsts = [n for n in nodes if _op(n) == "cross_attention_block" and n._parents[0].ndim == 3]
    assert len(firsts) == 1
    rows = firsts[0]._parents[0]
    assert rows.shape == (1,) + queries.shape and rows._parents == (queries,)


class TestRowsLayout:
    """No weight product in the graph runs on a set-shaped operand: a 2-D
    right operand (a weight, or a folded weight) always meets
    [sets*queries, .] rows, or, in the first layer, the learned queries once
    as [1, queries, .] rows shared by every set, never a B-fold copy. The
    query transformer builds no per-token keys or values [B, M, .] either;
    the decoder's cross-attention node builds keys and values over its few
    slots inside the node."""

    def test_no_per_token_keys_values_or_set_shaped_weight_products(self):
        # default slow branch: 64 frames of 256 tokens, 8 queries of width 64, 4 heads
        b, m, d_in, nq, dq, heads = 64, 256, 32, 8, 64, 4
        rng = engine.rng_for(16, "qt-layout")
        p = QueryTransformerParams.create(rng, nq, d_in, dq, n_layers=2, n_heads=heads)
        tokens, _ = query_transformer_batch(Value(engine.normal(rng, (b, m, d_in)), requires_grad=True), p)
        nodes = _graph(tokens)
        shapes = {n.shape for n in nodes}
        assert (b, m, dq) not in shapes  # per-token keys or values
        assert (b, heads, m, dq // heads) not in shapes  # ... split into heads
        for a, w in _matmuls(nodes):
            if w.ndim == 2:
                assert a.ndim == 2 or a.shape[:2] == (1, nq), f"{a.shape} @ {w.shape}"
            assert not (a.ndim == 3 and a.shape[:2] == (b, nq)), f"{a.shape} @ {w.shape}"
        _shared_queries(nodes, p.queries)

    def test_decoder_position_rows(self):
        # stage-1 slow: 16 sets of 8 slots of width 64 decoded to 256 positions
        b, n, d, m, d_out = 16, 8, 64, 256, 32
        rng = engine.rng_for(16, "dec-layout")
        p = DecoderParams.create(rng, m, d, d_out)
        out = decode_batch(Value(engine.normal(rng, (b, n, d)), requires_grad=True), p)
        nodes = _graph(out)
        for a, w in _matmuls(nodes):
            if w.ndim == 2:
                assert a.ndim == 2 or a.shape[:2] == (1, m), f"{a.shape} @ {w.shape}"
        _shared_queries(nodes, p.pos_queries)


class TestFusedRowNodes:
    """Each transformer block is one node: the decoder, the query transformer
    and the residual MLP build one block node per block, and no layer norm,
    affine map, ramp or softmax node runs inside a block, nor a bias added to
    a matmul output as its own node. The attention nodes fold their weights
    themselves, so no matmul, transpose or scale node is left in these
    graphs. Slot attention is one node for all its iterations."""

    @staticmethod
    def _ops(nodes):
        ops = [_op(n) for n in nodes]
        assert not {"smooth_ramp", "softmax_axis", "sigmoid", "matmul", "transpose", "scale"} & set(ops)
        for n in nodes:
            if _op(n) == "add":
                a, b = n._parents
                for operand, other in ((a, b), (b, a)):
                    assert not (_op(operand) == "matmul" and other.ndim == 1), f"bias add on {operand.shape}"
        return ops

    def test_decoder(self):
        rng = engine.rng_for(16, "dec-fused")
        p = DecoderParams.create(rng, 16, 8, 4, n_layers=2)
        ops = self._ops(_graph(decode_batch(Value(engine.normal(rng, (2, 3, 8)), requires_grad=True), p)))
        assert ops.count("cross_attention_block") == ops.count("residual_mlp") == 2
        # the slots' input norm, the output norm and the head are the only row ops outside the blocks
        assert ops.count("layer_norm") == 2 and ops.count("linear") == 1

    def test_query_transformer(self):
        rng = engine.rng_for(16, "qt-fused")
        p = QueryTransformerParams.create(rng, 3, 5, 8, n_layers=2, n_heads=2)
        tokens, _ = query_transformer_batch(Value(engine.normal(rng, (2, 7, 5)), requires_grad=True), p)
        ops = self._ops(_graph(tokens))
        assert {op: ops.count(op) for op in BLOCKS} == dict.fromkeys(BLOCKS, 2)
        assert "layer_norm" not in ops and "linear" not in ops

    def test_residual_mlp(self):
        rng = engine.rng_for(16, "mlp-fused")
        d = 6
        x = Value(engine.normal(rng, (5, d)), requires_grad=True)
        w1, w2 = engine.linear_param(rng, d, 2 * d), engine.linear_param(rng, 2 * d, d)
        out = engine.residual_mlp(x, engine.ones_param(d), engine.zeros_param(d), w1, engine.zeros_param(2 * d),
                                  w2, engine.zeros_param(d))
        assert [op for op in self._ops(_graph(out)) if op is not None] == ["residual_mlp"]

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_slot_attention(self, x_grad):
        # every iteration inside one node: no layer norm, GRU, read, matmul or
        # MLP node over the slot rows or the tokens
        rng = engine.rng_for(16, "sa-fused")
        p = SlotAttentionParams.create(rng, 3, 5, 8, iterations=3)
        slots, _ = forward_batch(Value(engine.normal(rng, (2, 7, 5)), requires_grad=x_grad), p)
        assert [op for op in self._ops(_graph(slots)) if op is not None] == ["slot_attention"]


class TestNormalizationDirections:
    def test_mechanisms_differ_on_same_input(self):
        from slotvid.slot_attention import SlotAttentionParams

        rng = engine.rng_for(7, "norm")
        inputs = engine.normal(rng, (10, 6))
        sa = SlotAttentionParams.create(engine.rng_for(7, "sa"), 4, 6, 8)
        qt = QueryTransformerParams.create(engine.rng_for(7, "qt"), 4, 6, 8, n_layers=1, n_heads=2)
        _, slot_mask = forward_batch(Value(inputs[None]), sa)
        _, qt_mask = query_transformer_batch(Value(inputs[None]), qt)
        # both are [sets, inputs, slots]
        assert slot_mask.shape == qt_mask.shape == (1, 10, 4)
        # slot attention: each input row distributes over slots
        np.testing.assert_allclose(slot_mask.sum(axis=2), 1.0, atol=1e-5)
        assert np.abs(slot_mask.sum(axis=1) - 1.0).max() > 1e-3
        # query transformer: each query column distributes over inputs
        np.testing.assert_allclose(qt_mask.sum(axis=1), 1.0, atol=1e-5)
        assert np.abs(qt_mask.sum(axis=2) - 1.0).max() > 1e-3


class TestWrap:
    CFG = ConnectorConfig()

    def test_token_count_parity(self):
        cfg = self.CFG
        params = WrapParams.create(engine.rng_for(8, "wrap"), cfg)
        video = stack_views([make_video(8, cfg, frames=16)], cfg)
        with engine.no_grad():
            slow, sm, fm = slowfast_wrap(video, cfg, params, branch="slow")
            assert slow.shape == (1, 64, cfg.out_dim) and fm is None
            fast, _, fmasks = slowfast_wrap(video, cfg, params, branch="fast")
            assert fast.shape == (1, 128, cfg.out_dim)
            both, _, _ = slowfast_wrap(video, cfg, params, branch="both")
            assert both.shape == (1, 192, cfg.out_dim)
        assert sm.shape == (1, 8, 256, 8)
        assert fmasks.shape == (1, 16, 16, 8)

    def test_matches_slot_connector_counts(self):
        cfg = ConnectorConfig(frames=6, grid_h=8, grid_w=8, feat_dim=6, slow_frames=3,
                              pool_stride=4, slots_per_frame=2, slots_per_position=2,
                              slot_dim=8, out_dim=5, max_frames=16, iters_slow=1, iters_fast=1)
        video = stack_views([make_video(9, cfg)], cfg)
        with engine.no_grad():
            slot_out, _, _ = connect_batch(video, cfg, ConnectorParams.create(engine.rng_for(9, "c"), cfg), "both")
            wrap_out, _, _ = slowfast_wrap(video, cfg, WrapParams.create(engine.rng_for(9, "w"), cfg), "both")
        assert slot_out.shape == wrap_out.shape

    def test_rejects_unknown_mode(self):
        cfg = self.CFG
        params = WrapParams.create(engine.rng_for(10, "wrap"), cfg)
        with pytest.raises(ValueError):
            slowfast_wrap(stack_views([make_video(10, cfg, frames=8)], cfg), cfg, params, branch="sideways")
