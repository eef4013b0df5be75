import math

import numpy as np
import pytest

from slotvid import engine
from slotvid.baselines import (
    PoolingParams,
    QueryTransformerParams,
    WrapParams,
    pooling_connector_batch,
    pooling_tokens_batch,
    query_transformer_batch,
    slowfast_wrap,
)
from slotvid.config import from_dict
from slotvid.connector import ConnectorConfig, ConnectorParams, VideoFeatures, connect_batch
from slotvid.engine import Value
from slotvid.slot_attention import slot_attention_forward
from slotvid.training import build_model, forward_masks


def make_video(seed, cfg, frames=None):
    t = cfg.frames if frames is None else frames
    rng = engine.rng_for(seed, "video")
    return VideoFeatures(engine.normal(rng, (t, cfg.grid_h, cfg.grid_w, cfg.feat_dim)))


class TestPooling:
    def test_356_tokens_for_100_frames(self):
        cfg = ConnectorConfig(frames=100, max_frames=256)
        params = PoolingParams.create(engine.rng_for(1, "pool"), cfg)
        grid = make_video(1, cfg).grid
        with engine.no_grad():
            tokens = pooling_connector_batch(Value(grid[None]), params)
        assert tokens.shape == (1, 356, cfg.out_dim)  # T frame means + H*W cell means

    def test_constant_input_pools_to_constant(self):
        grid = np.full((3, 4, 4, 2), 0.75, dtype=np.float32)
        tokens = pooling_tokens_batch(Value(grid.reshape(1, 3, 4, 4, 2)))
        np.testing.assert_allclose(tokens.data, 0.75, atol=1e-6)

    def test_temporal_mean_oracle(self):
        # two frames on a 1x1 grid, values 1 and 3 -> temporal-pooled token 2
        grid = np.array([1.0, 3.0], dtype=np.float32).reshape(2, 1, 1, 1)
        tokens = pooling_tokens_batch(Value(grid.reshape(1, 2, 1, 1, 1))).data[0]
        assert tokens.shape == (3, 1)  # 2 frame means + 1 cell mean
        np.testing.assert_allclose(tokens[:2, 0], [1.0, 3.0], atol=1e-7)
        assert tokens[2, 0] == 2.0


def _trace_query_layer(inputs, p):
    """Independent float64 evaluation of the single-head query stack."""

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
    assert p.n_heads == 1
    for layer in p.layers:
        q = ln(x, layer.ln_q_g, layer.ln_q_b) @ f64(layer.wq)
        k = inputs @ f64(layer.wk)
        v = inputs @ f64(layer.wv)
        attn = softmax((q @ k.T) / math.sqrt(dh))
        x = x + (attn @ v) @ f64(layer.wo) + f64(layer.bo)
        xs = ln(x, layer.ln_s_g, layer.ln_s_b)
        s_attn = softmax((xs @ f64(layer.s_wq)) @ (xs @ f64(layer.s_wk)).T / math.sqrt(dh))
        x = x + (s_attn @ (xs @ f64(layer.s_wv))) @ f64(layer.s_wo) + f64(layer.s_bo)
        hidden = ramp(ln(x, layer.ln_f_g, layer.ln_f_b) @ f64(layer.ff_w1) + f64(layer.ff_b1))
        x = x + hidden @ f64(layer.ff_w2) + f64(layer.ff_b2)
    return x, attn


class TestQueryTransformer:
    def test_mask_columns_sum_to_one_per_head_and_query(self):
        p = QueryTransformerParams.create(engine.rng_for(2, "qt"), 3, 5, 8, n_layers=2, n_heads=2)
        rng = engine.rng_for(2, "x")
        _, masks = query_transformer_batch(Value(engine.normal(rng, (2, 7, 5))), p)
        np.testing.assert_allclose(masks.data.sum(axis=2), 1.0, atol=1e-5)

    def test_rows_do_not_sum_to_one(self):
        p = QueryTransformerParams.create(engine.rng_for(3, "qt"), 4, 5, 8, n_layers=1, n_heads=2)
        rng = engine.rng_for(3, "x")
        _, masks = query_transformer_batch(Value(engine.normal(rng, (1, 9, 5))), p)
        row_sums = masks.data.sum(axis=3)
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
        weights = masks.data[0, 0, :, 0]  # [M]
        expect = (weights[:, None] * inputs[0]).sum(axis=0)
        np.testing.assert_allclose(tokens.data[0, 0], expect, atol=1e-5)

    def test_miniature_matches_scalar_trace(self):
        p = QueryTransformerParams.create(engine.rng_for(5, "qt"), 2, 3, 4, n_layers=1, n_heads=1)
        rng = engine.rng_for(5, "x")
        inputs = engine.normal(rng, (3, 3))
        tokens, masks = query_transformer_batch(Value(inputs.reshape(1, 3, 3)), p)
        want_tokens, want_attn = _trace_query_layer(np.asarray(inputs, dtype=np.float64), p)
        np.testing.assert_allclose(tokens.data[0], want_tokens, atol=1e-5)
        np.testing.assert_allclose(masks.data[0, 0], want_attn.T, atol=1e-5)

    def test_flat_grid_input(self):
        # the whole T*H*W grid as one input set, as a single flat query aggregator
        cfg = ConnectorConfig(frames=4, grid_h=4, grid_w=4, feat_dim=3, slow_frames=2,
                              pool_stride=2, slot_dim=8, out_dim=4, max_frames=8)
        p = QueryTransformerParams.create(engine.rng_for(6, "qt"), 2, 3, 8, n_layers=1, n_heads=2)
        grid = make_video(6, cfg).grid
        with engine.no_grad():
            tokens, masks = query_transformer_batch(Value(grid.reshape(1, 64, 3)), p)
        assert tokens.shape == (1, 2, 8)
        assert masks.shape == (1, 2, 64, 2)

    def test_head_mean_mask(self):
        # forward_masks averages out the head axis of the query transformer's masks
        rc = from_dict({
            "connector": {"type": "query_transformer", "frames": 4, "grid_h": 4, "grid_w": 4,
                          "feat_dim": 3, "slow_frames": 2, "pool_stride": 2, "slots_per_frame": 2,
                          "slots_per_position": 2, "slot_dim": 8, "out_dim": 4, "max_frames": 8,
                          "qt_layers": 1, "qt_heads": 2},
        })
        model = build_model(rc)
        feats = Value(make_video(11, rc.connector).grid[None])
        with engine.no_grad():
            _, slow, fast = forward_masks(model, feats, "both")
            _, raw_slow, raw_fast = slowfast_wrap(feats, rc.connector, model.conn)
        assert raw_slow.shape == (1, 2, 2, 16, 2) and raw_fast.shape == (1, 4, 2, 4, 2)
        np.testing.assert_array_equal(slow, raw_slow.data.mean(axis=2))
        np.testing.assert_array_equal(fast, raw_fast.data.mean(axis=2))


class TestNormalizationDirections:
    def test_mechanisms_differ_on_same_input(self):
        from slotvid.slot_attention import SlotAttentionParams

        rng = engine.rng_for(7, "norm")
        inputs = engine.normal(rng, (10, 6))
        sa = SlotAttentionParams.create(engine.rng_for(7, "sa"), 4, 6, 8)
        qt = QueryTransformerParams.create(engine.rng_for(7, "qt"), 4, 6, 8, n_layers=1, n_heads=2)
        _, slot_mask = slot_attention_forward(inputs, sa)
        _, qt_masks = query_transformer_batch(Value(inputs.reshape(1, 10, 6)), qt)
        # slot attention: each input row distributes over slots
        np.testing.assert_allclose(slot_mask.weights.sum(axis=1), 1.0, atol=1e-5)
        assert np.abs(slot_mask.weights.sum(axis=0) - 1.0).max() > 1e-3
        # query transformer: each query column distributes over inputs
        np.testing.assert_allclose(qt_masks.data.sum(axis=2), 1.0, atol=1e-5)
        assert np.abs(qt_masks.data.sum(axis=3) - 1.0).max() > 1e-3


class TestWrap:
    CFG = ConnectorConfig()

    def test_token_count_parity(self):
        cfg = self.CFG
        params = WrapParams.create(engine.rng_for(8, "wrap"), cfg)
        video = make_video(8, cfg, frames=16)
        with engine.no_grad():
            slow, sm, fm = slowfast_wrap(video, cfg, params, mode="slow")
            assert slow.shape == (1, 64, cfg.out_dim) and fm is None
            fast, _, fmasks = slowfast_wrap(video, cfg, params, mode="fast")
            assert fast.shape == (1, 128, cfg.out_dim)
            both, _, _ = slowfast_wrap(video, cfg, params, mode="both")
            assert both.shape == (1, 192, cfg.out_dim)
        assert sm.data.shape == (1, 8, 4, 256, 8)
        assert fmasks.data.shape == (1, 16, 4, 16, 8)

    def test_matches_slot_connector_counts(self):
        cfg = ConnectorConfig(frames=6, grid_h=8, grid_w=8, feat_dim=6, slow_frames=3,
                              pool_stride=4, slots_per_frame=2, slots_per_position=2,
                              slot_dim=8, out_dim=5, max_frames=16, iters_slow=1, iters_fast=1)
        video = make_video(9, cfg)
        with engine.no_grad():
            slot_out, _, _ = connect_batch(video, cfg, ConnectorParams.create(engine.rng_for(9, "c"), cfg))
            wrap_out, _, _ = slowfast_wrap(video, cfg, WrapParams.create(engine.rng_for(9, "w"), cfg))
        assert slot_out.shape == wrap_out.shape

    def test_rejects_unknown_mode(self):
        cfg = self.CFG
        params = WrapParams.create(engine.rng_for(10, "wrap"), cfg)
        with pytest.raises(ValueError):
            slowfast_wrap(make_video(10, cfg, frames=8), cfg, params, mode="sideways")
