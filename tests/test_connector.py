import numpy as np
import pytest

from slotvid import engine
from slotvid.config import ConfigError
from slotvid.connector import (
    ConnectorConfig,
    ConnectorError,
    ConnectorParams,
    VideoFeatures,
    clip_views,
    connect_batch,
    fast_branch_batch,
    slow_branch_batch,
    stack_views,
    uniform_sample_frames,
)
from slotvid.engine import ShapeError, Value
from slotvid.slot_attention import ATTN_EPS, forward_batch

from gradcheck import fd_check, matmul, reference_gru, smooth_ramp


SMALL = ConnectorConfig(
    frames=6,
    grid_h=8,
    grid_w=8,
    feat_dim=6,
    slow_frames=3,
    pool_stride=4,
    slots_per_frame=2,
    slots_per_position=2,
    slot_dim=8,
    out_dim=5,
    max_frames=16,
    iters_slow=2,
    iters_fast=2,
)


def make_video(seed, cfg, frames=None):
    t = cfg.frames if frames is None else frames
    rng = engine.rng_for(seed, "video")
    return VideoFeatures(engine.normal(rng, (t, cfg.grid_h, cfg.grid_w, cfg.feat_dim)))


def make_params(seed, cfg):
    return ConnectorParams.create(engine.rng_for(seed, "conn"), cfg)


class TestFrameSampling:
    def test_identity_when_counts_match(self):
        np.testing.assert_array_equal(uniform_sample_frames(8, 8), np.arange(8))

    def test_floor_formula(self):
        np.testing.assert_array_equal(
            uniform_sample_frames(16, 8), [1, 3, 5, 7, 9, 11, 13, 15]
        )

    def test_long_clip(self):
        idx = uniform_sample_frames(180, 8)
        assert len(idx) == 8
        assert (np.diff(idx) > 0).all()
        assert idx[0] >= 0 and idx[-1] <= 179

    def test_rejects_oversampling(self):
        with pytest.raises(ConnectorError):
            uniform_sample_frames(4, 5)

    def test_strictly_increasing_generally(self):
        for total in (5, 9, 12, 33, 100):
            for count in (1, 2, 3, min(total, 7)):
                idx = uniform_sample_frames(total, count)
                assert (np.diff(idx) > 0).all() if count > 1 else True


class TestTokenCounts:
    def test_default_config_is_192(self):
        cfg = ConnectorConfig()
        assert cfg.n_slow_tokens == 64
        assert cfg.n_fast_tokens == 128
        assert cfg.n_tokens == 192

    def test_count_formula_over_config_grid(self):
        for t_d, n_s, stride, n_f in [(2, 1, 2, 1), (3, 2, 4, 2), (4, 3, 2, 5), (2, 8, 8, 8)]:
            cfg = ConnectorConfig(
                frames=8,
                grid_h=8,
                grid_w=8,
                feat_dim=4,
                slow_frames=t_d,
                pool_stride=stride,
                slots_per_frame=n_s,
                slots_per_position=n_f,
                slot_dim=6,
                out_dim=4,
                max_frames=32,
                iters_slow=1,
                iters_fast=1,
            )
            expect = t_d * n_s + (8 // stride) * (8 // stride) * n_f
            assert cfg.n_tokens == expect
            with engine.no_grad():
                tokens, _, _ = connect_batch(stack_views([make_video(t_d * 100 + n_f, cfg)], cfg), cfg,
                                             make_params(1, cfg))
            assert tokens.shape == (1, expect, cfg.out_dim)

    def test_count_independent_of_clip_length(self):
        cfg = SMALL
        params = make_params(2, cfg)
        for t in (cfg.slow_frames, cfg.frames, cfg.max_frames):
            with engine.no_grad():
                tokens, _, _ = connect_batch(stack_views([make_video(3, cfg, frames=t)], cfg), cfg, params)
            assert tokens.shape[1] == cfg.n_tokens

    def test_doubling_slots_doubles_each_term(self):
        # 8*16 + 16*16 under the count contract
        cfg = ConnectorConfig(slots_per_frame=16, slots_per_position=16)
        assert cfg.n_tokens == 8 * 16 + 16 * 16


class TestSlowBranch:
    def test_token_shape(self):
        cfg = SMALL
        tokens, masks = slow_branch_batch(stack_views([make_video(4, cfg)], cfg)["slow"], cfg, make_params(4, cfg))
        assert tokens.shape == (1, cfg.n_slow_tokens, cfg.slot_dim)
        assert masks.shape == (1, cfg.slow_frames, 64, cfg.slots_per_frame)

    def test_mask_rows_sum_to_one(self):
        cfg = SMALL
        _, masks = slow_branch_batch(stack_views([make_video(5, cfg)], cfg)["slow"], cfg, make_params(5, cfg))
        np.testing.assert_allclose(masks.sum(axis=-1), 1.0, atol=1e-5)

    def test_single_slot_constant_frame_is_transformed_mean(self):
        cfg = ConnectorConfig(
            frames=2, grid_h=4, grid_w=4, feat_dim=3, slow_frames=1, pool_stride=2,
            slots_per_frame=1, slots_per_position=2, slot_dim=6, out_dim=4,
            max_frames=8, iters_slow=2, iters_fast=1,
        )
        params = make_params(6, cfg)
        frame = np.tile(np.array([0.4, -0.2, 0.9], dtype=np.float32), (16, 1))
        slots, mask = forward_batch(Value(frame[None]), params.slow)
        slots = Value(slots.data[0])
        np.testing.assert_allclose(mask, 1.0, atol=1e-5)
        # all value rows are identical, so the update is their (renormalized) mean
        # and the slot equals the gated/MLP transform of that mean
        p = params.slow
        with engine.no_grad():
            xn = engine.layer_norm(Value(frame), p.in_norm_g, p.in_norm_b)
            v = matmul(xn, p.wv)
            u = Value(v.data.sum(axis=0, keepdims=True) / (16.0 + ATTN_EPS))
            cur = Value(p.slots.data.copy())
            for _ in range(p.iterations):
                cur = reference_gru(cur, u, p.gru)
                pre = engine.layer_norm(cur, p.mlp_norm_g, p.mlp_norm_b)
                hidden = smooth_ramp(engine.add(matmul(pre, p.mlp_w1), p.mlp_b1))
                cur = engine.add(cur, engine.add(matmul(hidden, p.mlp_w2), p.mlp_b2))
        np.testing.assert_allclose(slots.data, cur.data, atol=1e-5)

    def test_frame_order_moves_provenance_not_content(self):
        cfg = ConnectorConfig(
            frames=3, grid_h=4, grid_w=4, feat_dim=4, slow_frames=3, pool_stride=2,
            slots_per_frame=2, slots_per_position=2, slot_dim=6, out_dim=4,
            max_frames=8, iters_slow=2, iters_fast=1,
        )
        params = make_params(7, cfg)
        video = make_video(7, cfg)
        perm = [2, 0, 1]
        permuted = VideoFeatures(video.grid[perm].copy())

        def branch(v):
            return slow_branch_batch(stack_views([v], cfg)["slow"], cfg, params)[0].data[0]

        tokens_a, tokens_b = branch(video), branch(permuted)
        # recompute directly: frame i of the permuted clip is frame perm[i] of
        # the original, so its slots match the original frame's, while the
        # added per-frame embedding follows the new position
        for i, src in enumerate(perm):
            frame = permuted.grid[i].reshape(16, 4)
            slots, _ = forward_batch(Value(frame[None]), params.slow)
            slots = Value(slots.data[0])
            with engine.no_grad():
                expect = engine.add(
                    matmul(
                        engine.add(slots, Value(params.slow_pos.data[i : i + 1])),
                        params.s_proj_w,
                    ),
                    params.s_proj_b,
                )
            np.testing.assert_allclose(
                tokens_b[i * 2 : (i + 1) * 2], expect.data, atol=1e-5
            )
            orig_frame = video.grid[src].reshape(16, 4)
            orig_slots, _ = forward_batch(Value(orig_frame[None]), params.slow)
            np.testing.assert_allclose(slots.data, orig_slots.data[0], atol=1e-6)


class TestFastBranch:
    def test_token_shape(self):
        cfg = SMALL
        tokens, masks = fast_branch_batch(stack_views([make_video(8, cfg)], cfg)["fast"], cfg, make_params(8, cfg))
        assert tokens.shape == (1, cfg.n_fast_tokens, cfg.slot_dim)
        assert masks.shape == (1, cfg.n_positions, cfg.frames, cfg.slots_per_position)
        np.testing.assert_allclose(masks.sum(axis=-1), 1.0, atol=1e-5)

    def test_single_frame_single_slot(self):
        cfg = ConnectorConfig(
            frames=1, grid_h=4, grid_w=4, feat_dim=3, slow_frames=1, pool_stride=4,
            slots_per_frame=2, slots_per_position=1, slot_dim=6, out_dim=4,
            max_frames=4, iters_slow=1, iters_fast=2,
        )
        params = make_params(9, cfg)
        _, masks = fast_branch_batch(stack_views([make_video(9, cfg, frames=1)], cfg)["fast"], cfg, params)
        np.testing.assert_allclose(masks, 1.0, atol=1e-7)

    def test_static_position_has_constant_mask_rows(self):
        cfg = ConnectorConfig(
            frames=6, grid_h=4, grid_w=4, feat_dim=5, slow_frames=2, pool_stride=4,
            slots_per_frame=2, slots_per_position=2, slot_dim=6, out_dim=4,
            max_frames=8, iters_slow=1, iters_fast=3,
        )
        params = make_params(10, cfg)
        params.fast_pos.data[:] = 0.0  # no temporal cue => nothing to separate
        frame = engine.normal(engine.rng_for(10, "frame"), (4, 4, 5))
        grid = np.tile(frame, (6, 1, 1, 1))
        _, masks = fast_branch_batch(stack_views([VideoFeatures(grid)], cfg)["fast"], cfg, params)
        rows = masks[0, 0]  # [T, N_f] for the single position
        np.testing.assert_allclose(rows, np.tile(rows[0], (6, 1)), atol=1e-4)

    def test_capacity_exceeded_is_explicit(self):
        cfg = SMALL
        video = make_video(11, cfg, frames=cfg.max_frames + 1)
        with pytest.raises(ConnectorError):
            connect_batch(stack_views([video], cfg), cfg, make_params(11, cfg))


class TestPooling:
    """A clip's fast view (``clip_views``): the stride-pooled grid as position-major series."""

    @staticmethod
    def _series(grid, stride):
        return clip_views(VideoFeatures(grid), ConnectorConfig(pool_stride=stride), ("fast",))["fast"]

    def test_block_means_exact_on_integer_features(self):
        # integer-valued features make the block mean exact in float32 for
        # power-of-two block sizes, independent of summation order
        rng = engine.rng_for(12, "pool")
        grid = rng.integers(-8, 9, size=(2, 8, 8, 3)).astype(np.float32)
        series = self._series(grid, 4)
        for t in range(2):
            for bi in range(2):
                for bj in range(2):
                    for c in range(3):
                        block = grid[t, bi * 4 : bi * 4 + 4, bj * 4 : bj * 4 + 4, c]
                        want = float(block.astype(np.float64).sum()) / 16.0
                        assert series[bi * 2 + bj, t, c] == np.float32(want)

    def test_16_grid_stride_4_shape(self):
        grid = engine.normal(engine.rng_for(7, "pool"), (3, 16, 16, 5))
        assert self._series(grid, 4).shape == (16, 3, 5)

    def test_constant_preserved(self):
        np.testing.assert_allclose(self._series(np.full((2, 8, 8, 2), 1.25, dtype=np.float32), 2), 1.25, atol=1e-7)

    def test_block_mean_oracle(self):
        grid = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(1, 2, 2, 1)
        np.testing.assert_allclose(self._series(grid, 2), [[[2.5]]])

    def test_non_divisible(self):
        with pytest.raises(ShapeError):
            self._series(np.zeros((1, 6, 6, 1)), 4)


class TestConnect:
    def test_ordering_contract(self):
        # slow tokens first, frame-major; then fast tokens, position-major:
        # changing one sampled frame moves only that frame's slow tokens, and
        # changing one pooled cell moves only that position's fast tokens
        cfg = SMALL
        params = make_params(12, cfg)
        grid = make_video(12, cfg).grid
        n_s, n_f = cfg.slots_per_frame, cfg.slots_per_position

        def tokens(g):
            with engine.no_grad():
                return connect_batch(stack_views([VideoFeatures(g)], cfg), cfg, params)[0].data[0]

        base = tokens(grid)
        frame = uniform_sample_frames(cfg.frames, cfg.slow_frames)[1]
        moved = grid.copy()
        moved[frame] += 1.0
        slow = tokens(moved)[: cfg.n_slow_tokens]
        changed = np.any(slow != base[: cfg.n_slow_tokens], axis=1)
        assert changed.tolist() == [n_s <= i < 2 * n_s for i in range(cfg.n_slow_tokens)]

        moved = grid.copy()
        moved[:, :4, 4:] += 1.0  # the stride-4 block of pooled position 1
        fast = tokens(moved)[cfg.n_slow_tokens :]
        changed = np.any(fast != base[cfg.n_slow_tokens :], axis=1)
        assert changed.tolist() == [n_f <= i < 2 * n_f for i in range(cfg.n_fast_tokens)]

    def test_connect_packaging(self):
        # one [T, H, W, D] clip in, a batch of one out, masks in branch layout
        cfg = SMALL
        with engine.no_grad():
            views = stack_views([make_video(13, cfg)], cfg)
            tokens, slow, fast = connect_batch(views, cfg, make_params(13, cfg))
        assert tokens.shape == (1, cfg.n_tokens, cfg.out_dim)
        assert slow.shape == (1, cfg.slow_frames, cfg.grid_h * cfg.grid_w, cfg.slots_per_frame)
        assert fast.shape == (1, cfg.n_positions, cfg.frames, cfg.slots_per_position)
        for masks in (slow, fast):
            np.testing.assert_allclose(masks.sum(axis=-1), 1.0, atol=1e-5)

    @pytest.mark.parametrize("branch", ["slow", "fast"])
    def test_single_branch_is_branch_then_proj(self, branch):
        cfg = SMALL
        params = make_params(16, cfg)
        # the views select the branch: a dict holding only its view runs only it
        views = stack_views([make_video(16, cfg)], cfg, (branch,))
        tokens, slow, fast = connect_batch(views, cfg, params)
        branch_fn = slow_branch_batch if branch == "slow" else fast_branch_batch
        raw, masks = branch_fn(views[branch], cfg, params)
        expect = engine.add(matmul(raw, params.proj_w), params.proj_b)
        assert np.array_equal(tokens.data, expect.data)
        assert np.array_equal(slow if branch == "slow" else fast, masks)
        assert (fast if branch == "slow" else slow) is None

    def test_proj_applied_after_concat(self):
        cfg = SMALL
        params = make_params(14, cfg)
        views = stack_views([make_video(14, cfg)], cfg)
        tokens, _, _ = connect_batch(views, cfg, params)
        slow_tokens, _ = slow_branch_batch(views["slow"], cfg, params)
        with engine.no_grad():
            expect = engine.add(matmul(slow_tokens, params.proj_w), params.proj_b)
        np.testing.assert_allclose(tokens.data[:, : cfg.n_slow_tokens], expect.data, atol=1e-5)

    def test_end_to_end_finite_differences(self):
        cfg = ConnectorConfig(
            frames=2, grid_h=4, grid_w=4, feat_dim=3, slow_frames=2, pool_stride=2,
            slots_per_frame=2, slots_per_position=2, slot_dim=6, out_dim=4,
            max_frames=4, iters_slow=2, iters_fast=2,
        )
        params = make_params(15, cfg)
        params.slow.slots.data = engine.normal(engine.rng_for(15, "s1"), params.slow.slots.data.shape, std=0.5)
        params.fast.slots.data = engine.normal(engine.rng_for(15, "s2"), params.fast.slots.data.shape, std=0.5)
        # the views are fixed arrays of the frozen features; as leaves they
        # check the adjoints the connector sends its inputs
        views = {name: Value(view, requires_grad=True) for name, view in
                 stack_views([VideoFeatures(engine.normal(engine.rng_for(15, "x"), (2, 4, 4, 3)))], cfg).items()}
        probe = engine.normal(engine.rng_for(15, "probe"), (cfg.n_tokens, cfg.out_dim))
        checked = [
            *views.values(),
            params.slow.slots,
            params.fast.slots,
            params.slow.wv,
            params.fast.wk,
            params.slow_pos,
            params.fast_pos,
            params.s_proj_w,
            params.f_proj_w,
            params.proj_w,
        ]

        def build():
            tokens, _, _ = connect_batch(views, cfg, params)
            return engine.vmean(engine.mul(engine.reshape(tokens, probe.shape), probe))

        ok, total = fd_check(build, checked, engine.rng_for(15, "pick"), coords_per_param=4)
        assert ok / total >= 0.95

    def test_invalid_config_rejected(self):
        # a config checks itself when it is built
        with pytest.raises(ConfigError):
            ConnectorConfig(pool_stride=5)
        with pytest.raises(ConfigError):
            ConnectorConfig(slow_frames=64, frames=32)
