import gc
import hashlib
import json
import math
import os
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from slotvid import engine, synthetic, training
from slotvid.baselines import slowfast_wrap
from slotvid.connector import connect_batch, pooled_series, stack_views, uniform_sample_frames
from slotvid.synthetic import SceneStream
from slotvid.checkpoint import load_checkpoint, save_checkpoint
from slotvid.config import from_dict
from slotvid.metrics import DecouplingReport
from slotvid.training import (
    TrainingError,
    build_model,
    cosine_lr,
    evaluate_checkpoint,
    evaluate_model,
    load_model_tensors,
    majority_accuracy,
    model_state,
    run_baseline,
    run_stage1,
    run_stage2,
    run_stage3,
    save_model,
    trainable_names,
)


def tiny_config(**overrides):
    base = {
        "connector": {
            "frames": 6, "grid_h": 4, "grid_w": 4, "feat_dim": 8, "slow_frames": 2,
            "pool_stride": 2, "slots_per_frame": 2, "slots_per_position": 2,
            "slot_dim": 8, "out_dim": 8, "max_frames": 8, "iters_slow": 2,
            "iters_fast": 2, "qt_layers": 1, "qt_heads": 2,
        },
        "data": {
            "n_train_scenes": 8, "n_heldout_scenes": 4, "k_objects": [2, 2],
            "k_events": [2, 2], "sigma": 0.05, "n_object_ids": 4, "extent": [2, 2],
        },
        "stage": {"steps": 4, "batch_size": 2, "log_every": 2, "schedule": "constant",
                  "lr_max": 1e-3, "frames_per_scene": 2, "positions_per_scene": 2},
        "seed": 3,
    }
    for section, vals in overrides.items():
        if isinstance(vals, dict):
            base[section] = {**base[section], **vals}
        else:
            base[section] = vals
    return from_dict(base)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 2e-5, 0.0) == pytest.approx(2e-5)
        assert cosine_lr(100, 100, 2e-5, 1e-6) == pytest.approx(1e-6)
        assert cosine_lr(50, 100, 2e-5, 0.0) == pytest.approx(1e-5)

    def test_monotone_non_increasing(self):
        vals = [cosine_lr(s, 40, 1e-3, 1e-5) for s in range(41)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_step_out_of_range(self):
        with pytest.raises(TrainingError):
            cosine_lr(11, 10, 1e-3)
        with pytest.raises(TrainingError):
            cosine_lr(-1, 10, 1e-3)


class TestTrainableGroups:
    def test_stage1_slow_covers_branch_and_decoder_only(self):
        rc = tiny_config()
        model = build_model(rc)
        names = trainable_names(model)
        assert all(n.startswith(("slow.", "dec_slow.")) for n in names)
        assert any(n.startswith("slow.") for n in names)
        assert any(n.startswith("dec_slow.") for n in names)

    def test_stage2_fast_group(self):
        rc = tiny_config(stage={"stage": 2, "branch": "fast", "init_checkpoint": "x"})
        names = set(trainable_names(build_model(rc)))
        assert "fast_pos" in names and "f_proj.w" in names and "proj.w" in names
        assert not any(n.startswith(("slow.", "dec_", "s_proj")) for n in names)
        assert any(n.startswith("probe.") for n in names)

    def test_stage3_covers_both_branches(self):
        rc = tiny_config(stage={"stage": 3, "branch": "both",
                                "init_slow_checkpoint": "a", "init_fast_checkpoint": "b"})
        names = set(trainable_names(build_model(rc)))
        assert {"slow_pos", "fast_pos", "s_proj.w", "f_proj.w", "proj.w"} <= names
        assert not any(n.startswith("dec_") for n in names)


class TestStage1:
    def test_zero_steps_keeps_initialization(self, tmp_path):
        rc = tiny_config(stage={"steps": 0})
        result = run_stage1(rc, out_dir=str(tmp_path))
        saved = load_checkpoint(result["checkpoint"])
        fresh = model_state(build_model(rc))
        for name, arr in fresh.items():
            if name.startswith("meta."):
                continue
            assert saved[name].tobytes() == np.asarray(arr).tobytes(), name

    def test_loss_recorded_and_finite(self, tmp_path):
        rc = tiny_config()
        result = run_stage1(rc, out_dir=str(tmp_path))
        assert result["records"][0]["step"] == 0
        assert result["records"][-1]["step"] == rc.stage.steps - 1
        assert all(math.isfinite(r["loss"]) for r in result["records"])
        assert os.path.exists(os.path.join(tmp_path, "train-log.txt"))

    def test_bit_identical_reruns(self, tmp_path):
        rc = tiny_config()
        a = run_stage1(rc, out_dir=str(tmp_path / "a"))
        b = run_stage1(rc, out_dir=str(tmp_path / "b"))
        assert Path(a["checkpoint"]).read_bytes() == Path(b["checkpoint"]).read_bytes()

    def test_frozen_groups_do_not_move(self, tmp_path):
        rc = tiny_config()
        init = {k: v.copy() for k, v in model_state(build_model(rc)).items()}
        result = run_stage1(rc, out_dir=str(tmp_path))
        final = load_checkpoint(result["checkpoint"])
        trainable = set(trainable_names(build_model(rc)))
        for name, arr in final.items():
            if name.startswith(("meta.", "adam.")) or name in trainable:
                continue
            assert arr.tobytes() == np.asarray(init[name]).tobytes(), name

    def test_fast_branch_trains(self, tmp_path):
        rc = tiny_config(stage={"branch": "fast"})
        result = run_stage1(rc, out_dir=str(tmp_path))
        assert all(math.isfinite(r["loss"]) for r in result["records"])

    def test_resume_matches_uninterrupted(self, tmp_path):
        rc_short = tiny_config(stage={"steps": 2})
        short = run_stage1(rc_short, out_dir=str(tmp_path / "short"))
        rc_full = tiny_config(stage={"steps": 5})
        resumed = run_stage1(rc_full, out_dir=str(tmp_path / "resumed"), resume=short["checkpoint"])
        full = run_stage1(rc_full, out_dir=str(tmp_path / "full"))
        assert Path(resumed["checkpoint"]).read_bytes() == Path(full["checkpoint"]).read_bytes()

    def test_checkpoint_with_slot_norm_bias_resumes(self, tmp_path):
        # checkpoints written before the slot norm lost its bias still hold
        # slow/fast.slot_norm.b and their Adam moments; the extras are ignored
        short = run_stage1(tiny_config(stage={"steps": 2}), out_dir=str(tmp_path / "short"))
        tensors = load_checkpoint(short["checkpoint"])
        for name in ("slow.slot_norm.b", "fast.slot_norm.b"):
            assert name not in tensors
            for key in (name, f"adam.m.{name}", f"adam.v.{name}"):
                tensors[key] = np.full(8, 0.25, dtype=np.float32)
        old = str(tmp_path / "old.sfsl")
        save_checkpoint(tensors, old)
        rc_full = tiny_config(stage={"steps": 5})
        resumed = run_stage1(rc_full, out_dir=str(tmp_path / "resumed"), resume=old)
        full = run_stage1(rc_full, out_dir=str(tmp_path / "full"))
        assert Path(resumed["checkpoint"]).read_bytes() == Path(full["checkpoint"]).read_bytes()

    def test_checkpoint_with_constant_mlp_metadata_resumes(self, tmp_path):
        # checkpoints written while the MLP nonlinearity was a setting carry
        # meta.nonlinearity and meta.decoder_kind, both 0 for the one form
        short = run_stage1(tiny_config(stage={"steps": 2}), out_dir=str(tmp_path / "short"))
        tensors = load_checkpoint(short["checkpoint"])
        assert "meta.nonlinearity" not in tensors and "meta.decoder_kind" not in tensors
        old = str(tmp_path / "old.sfsl")
        save_checkpoint({**tensors, "meta.nonlinearity": np.float32(0.0), "meta.decoder_kind": np.float32(0.0)}, old)
        rc_full = tiny_config(stage={"steps": 5})
        resumed = run_stage1(rc_full, out_dir=str(tmp_path / "resumed"), resume=old)
        full = run_stage1(rc_full, out_dir=str(tmp_path / "full"))
        assert Path(resumed["checkpoint"]).read_bytes() == Path(full["checkpoint"]).read_bytes()

    def test_resume_appends_to_log(self, tmp_path):
        log = tmp_path / "train-log.txt"
        short = run_stage1(tiny_config(stage={"steps": 2}), out_dir=str(tmp_path))
        first = log.read_text().splitlines()
        resumed = run_stage1(tiny_config(stage={"steps": 5}), out_dir=str(tmp_path),
                             resume=short["checkpoint"])
        lines = log.read_text().splitlines()
        assert [r["step"] for r in resumed["records"]] == [2, 4]
        assert lines[: len(first)] == first
        assert [line.split()[0] for line in lines] == ["step=0", "step=1", "step=2", "step=4"]

    def test_wrong_connector_kind_rejected(self):
        rc = tiny_config(connector={"type": "pooling"})
        with pytest.raises(TrainingError):
            run_stage1(rc)


class TestStage2:
    def _stage1_ckpt(self, tmp_path, branch="slow"):
        rc = tiny_config(stage={"branch": branch, "steps": 2})
        return run_stage1(rc, out_dir=str(tmp_path / f"s1-{branch}"))["checkpoint"]

    def test_requires_init_checkpoint(self):
        rc = tiny_config(stage={"stage": 2, "branch": "slow"})
        with pytest.raises(TrainingError, match="init_checkpoint"):
            run_stage2(rc)

    def test_loads_stage1_params_bitwise(self, tmp_path):
        ckpt = self._stage1_ckpt(tmp_path)
        rc = tiny_config(stage={"stage": 2, "branch": "slow", "steps": 0,
                                "init_checkpoint": ckpt})
        result = run_stage2(rc, out_dir=str(tmp_path / "s2"))
        stage1 = load_checkpoint(ckpt)
        stage2 = load_checkpoint(result["checkpoint"])
        for name, arr in stage1.items():
            if name.startswith(("meta.", "adam.")):
                continue
            assert stage2[name].tobytes() == arr.tobytes(), name

    def test_zero_lr_keeps_params_and_accuracy(self, tmp_path):
        ckpt = self._stage1_ckpt(tmp_path)
        rc = tiny_config(stage={"stage": 2, "branch": "slow", "steps": 3,
                                "lr_max": 0.0, "init_checkpoint": ckpt})
        result = run_stage2(rc, out_dir=str(tmp_path / "s2"))
        final = load_checkpoint(result["checkpoint"])
        stage1 = load_checkpoint(ckpt)
        for name, arr in stage1.items():
            if name.startswith(("meta.", "adam.")):
                continue
            assert final[name].tobytes() == arr.tobytes(), name
        accs = [r["acc"] for r in result["records"]]
        assert all(a == accs[0] for a in accs)

    def test_records_include_accuracy(self, tmp_path):
        ckpt = self._stage1_ckpt(tmp_path)
        rc = tiny_config(stage={"stage": 2, "branch": "slow", "steps": 3,
                                "init_checkpoint": ckpt})
        result = run_stage2(rc, out_dir=str(tmp_path / "s2"))
        assert all(0.0 <= r["acc"] <= 1.0 for r in result["records"])

    def test_resume_matches_uninterrupted(self, tmp_path):
        ckpt = self._stage1_ckpt(tmp_path)
        short = run_stage2(
            tiny_config(stage={"stage": 2, "branch": "slow", "steps": 2, "init_checkpoint": ckpt}),
            out_dir=str(tmp_path / "short"),
        )
        cfg_full = {"stage": 2, "branch": "slow", "steps": 5, "init_checkpoint": ckpt}
        resumed = run_stage2(tiny_config(stage=cfg_full), out_dir=str(tmp_path / "resumed"),
                             resume=short["checkpoint"])
        full = run_stage2(tiny_config(stage=cfg_full), out_dir=str(tmp_path / "full"))
        assert Path(resumed["checkpoint"]).read_bytes() == Path(full["checkpoint"]).read_bytes()


class TestStage3:
    def test_requires_both_checkpoints(self):
        rc = tiny_config(stage={"stage": 3, "branch": "both"})
        with pytest.raises(TrainingError, match="init_slow"):
            run_stage3(rc)

    def test_joint_run_loads_branches_from_donors(self, tmp_path):
        slow1 = run_stage1(tiny_config(stage={"branch": "slow", "steps": 2}),
                           out_dir=str(tmp_path / "slow1"))["checkpoint"]
        fast1 = run_stage1(tiny_config(stage={"branch": "fast", "steps": 2}),
                           out_dir=str(tmp_path / "fast1"))["checkpoint"]
        slow2 = run_stage2(
            tiny_config(stage={"stage": 2, "branch": "slow", "steps": 2, "init_checkpoint": slow1}),
            out_dir=str(tmp_path / "slow2"))["checkpoint"]
        fast2 = run_stage2(
            tiny_config(stage={"stage": 2, "branch": "fast", "steps": 2, "init_checkpoint": fast1}),
            out_dir=str(tmp_path / "fast2"))["checkpoint"]
        rc = tiny_config(stage={"stage": 3, "branch": "both", "steps": 0,
                                "init_slow_checkpoint": slow2, "init_fast_checkpoint": fast2})
        result = run_stage3(rc, out_dir=str(tmp_path / "joint"))
        joint = load_checkpoint(result["checkpoint"])
        slow_state = load_checkpoint(slow2)
        fast_state = load_checkpoint(fast2)
        for name, arr in joint.items():
            if name.startswith(("meta.", "adam.")):
                continue
            if name.startswith(("fast.", "dec_fast.")) or name in ("fast_pos", "f_proj.w", "f_proj.b"):
                assert arr.tobytes() == fast_state[name].tobytes(), name
            else:
                assert arr.tobytes() == slow_state[name].tobytes(), name

    def test_token_count_constant_during_joint_training(self, tmp_path):
        rc = tiny_config(stage={"stage": 3, "branch": "both"})
        model = build_model(rc)
        from slotvid.training import forward_masks

        stream = SceneStream(rc, "train")
        with engine.no_grad():
            views = stack_views([stream.scene(i)[1] for i in range(2)], rc.connector, training.view_names(rc))
            tokens, _, _ = forward_masks(model, views)
        assert tokens.shape[1] == rc.connector.n_tokens


class TestStage1Fast:
    """Stage 1 fast trains the frame embedding its slot attention reads, and
    reconstructs the raw pooled series, which no parameter moves."""

    def test_trains_fast_pos(self):
        rc = tiny_config(stage={"branch": "fast", "steps": 3})
        model = build_model(rc)
        assert "fast_pos" in trainable_names(model)
        before = model.conn.fast_pos.data.copy()
        after = run_stage1(rc)["model"].conn.fast_pos.data
        t = rc.connector.frames
        assert not np.array_equal(after[:t], before[:t])
        assert np.array_equal(after[t:], before[t:])  # rows past the clip length get no gradient

    def test_target_is_the_raw_series(self, monkeypatch):
        rc = tiny_config(stage={"branch": "fast", "steps": 3})
        cfg, stage = rc.connector, rc.stage
        targets, original = [], training.recon_loss

        def spy(predicted, target):
            targets.append(target.data.copy())
            return original(predicted, target)

        monkeypatch.setattr(training, "recon_loss", spy)
        run_stage1(rc)
        monkeypatch.undo()
        stream = SceneStream(rc, "train")
        assert len(targets) == stage.steps
        for step, got in enumerate(targets):
            indices = [(step * stage.batch_size + j) % rc.data.n_train_scenes for j in range(stage.batch_size)]
            series = stack_views([stream.scene(i)[1] for i in indices], cfg, ("fast",))["fast"]
            pick = engine.rng_for(rc.seed, "stage1", "fast", step)
            rows = [series[b, np.sort(pick.choice(cfg.n_positions, size=stage.positions_per_scene, replace=False))]
                    for b in range(len(indices))]
            assert np.array_equal(got, np.concatenate(rows))


class TestSceneViews:
    """The training stream keeps each scene's views read-only, as
    ``connector.clip_views`` derived them, and every step gets inputs
    bit-equal to the views of a freshly generated clip."""

    @staticmethod
    def _fresh(rc, indices):
        """The clips ``indices`` of the training scenes, rendered afresh."""
        stream = SceneStream(rc, "train")
        return [stream.scene(i)[1] for i in indices]

    @staticmethod
    def _grid_views(videos, cfg):
        """Reference views of the stacked grids: the sampled frames by fancy
        indexing [B, t_s, H*W, D], and the pooled grid [B, T, positions, D] as
        one float32 GEMM with a block-mean matrix built by ``np.kron``."""
        grids = np.stack([video.grid for video in videos])
        b, t, h, w, d = grids.shape
        s = cfg.pool_stride
        frames = grids[:, uniform_sample_frames(t, cfg.slow_frames)].reshape(b, cfg.slow_frames, h * w, d)
        pool = np.kron(np.kron(np.eye(h // s), np.ones(s)), np.kron(np.eye(w // s), np.ones(s))) / (s * s)
        pooled = np.matmul(pool.astype(np.float32), grids.reshape(b * t, h * w, d))
        return frames, pooled.reshape(b, t, cfg.n_positions, d)

    @staticmethod
    def _spy_forward(monkeypatch):
        seen, original = [], training.forward_masks

        def spy(model, views):
            seen.append({name: np.array(view) for name, view in views.items()})
            return original(model, views)

        monkeypatch.setattr(training, "forward_masks", spy)
        return seen

    def test_stacked_scene_views_equal_views_of_stacked_grid(self):
        rc = tiny_config()
        cfg = rc.connector
        videos = self._fresh(rc, range(3))
        views = stack_views(videos, cfg)
        frames, pooled = self._grid_views(videos, cfg)
        assert np.array_equal(views["slow"], frames)
        assert np.array_equal(views["fast"], pooled.transpose(0, 2, 1, 3))
        # the pooled series are the grids' block means, position-major
        grids = np.stack([video.grid for video in videos]).astype(np.float64)
        b, t, h, w, d = grids.shape
        s = cfg.pool_stride
        means = grids.reshape(b, t, h // s, s, w // s, s, d).mean(axis=(3, 5)).reshape(b, t, cfg.n_positions, d)
        np.testing.assert_allclose(views["fast"], means.transpose(0, 2, 1, 3), rtol=1e-6, atol=1e-6)

    def test_stage1_fast_series_unchanged(self):
        # the series stage-1 fast reads: the pooled grid plus the frame
        # embedding, transposed to position-major time series
        rc = tiny_config()
        cfg = rc.connector
        model = build_model(rc)
        videos = self._fresh(rc, range(3))
        _, pooled = self._grid_views(videos, cfg)
        b, t = pooled.shape[:2]
        with engine.no_grad():
            got = pooled_series(stack_views(videos, cfg, ("fast",))["fast"], cfg, model.conn.fast_pos)
        want = (pooled + model.conn.fast_pos.data[None, :t, None]).transpose(0, 2, 1, 3)
        assert np.array_equal(got.data, want.reshape(b * cfg.n_positions, t, -1))

    @pytest.mark.parametrize("branch", ["slow", "fast"])
    def test_stage1_inputs_equal_the_whole_batch_forms(self, branch, monkeypatch):
        # stage 1 takes its frame or position picks from the cached rows; its
        # inputs equal the picked sampled frames of each fresh clip's grid,
        # and the picked rows of the fresh batch's series plus the frame
        # embedding as it stands at that step (stage 1 fast trains it)
        rc = tiny_config(stage={"branch": branch, "steps": 8})
        cfg, stage = rc.connector, rc.stage
        seen, poses, models = [], [], []
        original, build = training.forward_batch, training.build_model

        def capturing(config):
            models.append(build(config))
            return models[-1]

        def spy(inputs, params):
            seen.append(inputs.data.copy())
            poses.append(engine.Value(models[0].conn.fast_pos.data.copy()))
            return original(inputs, params)

        monkeypatch.setattr(training, "build_model", capturing)
        monkeypatch.setattr(training, "forward_batch", spy)
        run_stage1(rc)
        monkeypatch.undo()
        sampled = uniform_sample_frames(cfg.frames, cfg.slow_frames)
        assert len(seen) == stage.steps  # two passes over the 8 scenes: misses, then hits
        for step, (got, fast_pos) in enumerate(zip(seen, poses)):
            indices = [(step * stage.batch_size + j) % rc.data.n_train_scenes for j in range(stage.batch_size)]
            videos = self._fresh(rc, indices)
            pick = engine.rng_for(rc.seed, "stage1", branch, step)
            if branch == "slow":
                chunks = [video.grid[sampled[np.sort(pick.choice(cfg.slow_frames, size=stage.frames_per_scene,
                                                                 replace=False))]] for video in videos]
                want = np.concatenate(chunks).reshape(-1, cfg.grid_h * cfg.grid_w, cfg.feat_dim)
            else:
                with engine.no_grad():
                    series = pooled_series(stack_views(videos, cfg, ("fast",))["fast"], cfg, fast_pos).data
                rows = [b * cfg.n_positions + np.sort(pick.choice(cfg.n_positions, size=stage.positions_per_scene,
                                                                  replace=False)) for b in range(len(videos))]
                want = series[np.concatenate(rows)]
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["slot", "query_transformer"])
    @pytest.mark.parametrize("branch", ["slow", "fast", "both"])
    def test_forward_on_scene_views_equals_forward_on_stacked_grid(self, kind, branch):
        rc = tiny_config(connector={"type": kind}, stage={"branch": branch})
        model = build_model(rc)
        names = training.view_names(rc)
        stream = SceneStream(rc, "train", names)
        batch = training._batch(stream, range(3))
        forward = connect_batch if kind == "slot" else slowfast_wrap
        with engine.no_grad():
            got = training.forward_masks(model, {name: batch.view(name) for name in names})
            frames, pooled = self._grid_views(self._fresh(rc, range(3)), rc.connector)
            views = {"slow": frames, "fast": pooled.transpose(0, 2, 1, 3)}
            want = forward({name: views[name] for name in names}, rc.connector, model.conn)
        assert np.array_equal(got[0].data, want[0].data)
        assert (got[1] is None) == (branch == "fast") and (got[2] is None) == (branch == "slow")
        for masks, expect in zip(got[1:], want[1:]):
            assert (masks is None and expect is None) or np.array_equal(masks, expect)

    @pytest.mark.parametrize("kind,branch", [("slot", "slow"), ("slot", "fast"), ("slot", "both"),
                                             ("query_transformer", "slow"), ("query_transformer", "fast"),
                                             ("query_transformer", "both"), ("pooling", "both")])
    def test_probe_step_reads_the_views_of_fresh_clips(self, kind, branch, monkeypatch):
        # two passes over the 8 scenes: the first renders each scene and keeps
        # its views, the second reads only the kept views
        rc = tiny_config(connector={"type": kind}, stage={"branch": branch})
        model = build_model(rc)
        names = training.view_names(rc)
        stream = SceneStream(rc, "train", names)
        seen = self._spy_forward(monkeypatch)
        step = training._probe_step(model)
        batches = [list(range(lo, lo + 4)) for lo in (0, 4, 0, 4)]
        for i, indices in enumerate(batches):
            step(i, training._batch(stream, indices))
        assert len(stream._cache) == 8 and all(sorted(scene.views) == sorted(names) for scene in stream._cache.values())
        for indices, views in zip(batches, seen):
            want = stack_views(self._fresh(rc, indices), rc.connector, names)
            assert sorted(views) == sorted(names)
            for name in names:
                assert views[name].dtype == np.float32 and np.array_equal(views[name], want[name])

    def test_cached_views_are_read_only_and_derived_once(self, monkeypatch):
        # each scene is rendered and its views derived once; its record holds
        # the views clip_views returned, read-only, and a step stacks a copy
        # of them, so nothing it does to its views reaches the cache
        rc = tiny_config()
        derived, derive = [], synthetic.clip_views

        def counting(video, cfg, names):
            derived.append(derive(video, cfg, names))
            return derived[-1]

        monkeypatch.setattr(synthetic, "clip_views", counting)
        stream = SceneStream(rc, "train", ("slow", "fast"))
        first = training._batch(stream, range(4))
        assert len(derived) == 4 and all(scene.views is views for scene, views in zip(first.scenes, derived))
        kept = [view for views in derived for view in views.values()]
        for view in kept:
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0
        views = [first.view(name) for name in ("slow", "fast")]
        picked = first.view("fast", np.zeros((4, 1), dtype=np.intp))
        for view in views + [picked]:
            assert not any(np.shares_memory(view, other) for other in kept)
            view[...] = 0.0
        again = training._batch(stream, range(4))
        assert len(derived) == 4
        want = stack_views(self._fresh(rc, range(4)), rc.connector)
        for name in ("slow", "fast"):
            assert np.array_equal(again.view(name), want[name])

    @pytest.mark.parametrize("kind,branch", [("slot", "slow"), ("slot", "fast"), ("slot", "both"),
                                             ("query_transformer", "both")])
    def test_probe_step_never_reads_a_clip_grid(self, kind, branch, monkeypatch):
        # once the scenes' views are cached, a probe step gathers, pools and
        # checks no [B, T, H, W, D] array
        rc = tiny_config(connector={"type": kind}, stage={"branch": branch})
        model = build_model(rc)
        stream = SceneStream(rc, "train", training.view_names(rc))
        step = training._probe_step(model)
        step(0, training._batch(stream, range(2)))  # warm: cache each scene's views
        seen = []

        def spy(fn):
            def wrapper(a, *args, **kwargs):
                seen.append((fn.__name__, np.ndim(getattr(a, "data", a))))
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("take", "_require_finite"):
            original = getattr(engine, name)
            for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "slotvid"]:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, spy(original))
        loss, _ = step(1, training._batch(stream, range(2)))
        engine.backward(loss)
        assert ("_require_finite", 4) in seen  # the spies saw the step
        assert [op for op, ndim in seen if ndim == 5] == []

    def test_uncached_stream_keeps_no_view(self):
        rc = tiny_config()
        stream = SceneStream(rc, "heldout")
        videos = [stream.scene(i)[1] for i in range(2)]
        stack_views(videos, rc.connector)
        refs = [weakref.ref(video.grid) for video in videos]
        assert stream.views == () and stream._cache == {}
        del videos
        assert [ref() for ref in refs] == [None] * 2

    @staticmethod
    def _keeps(stream, held) -> bool:
        """Whether ``stream``, once it holds ``held`` scenes, keeps the views of another."""
        stream._cache = dict.fromkeys(range(1, held + 1), "held")
        stream.scene(0)
        return 0 in stream._cache

    def test_cache_budget_counts_the_views(self):
        # the first scene's views size the budget: 512 MB hold 1638
        # both-branch scenes of 327,680 B at the default shapes
        rc = from_dict({"data": {"n_train_scenes": 10**6}})
        for names, entry in ((("slow", "fast"), 327_680), (("slow",), 262_144), (("fast",), 65_536),
                             (("pooling",), 36_864)):
            stream = SceneStream(rc, "train", names)
            assert sum(view.nbytes for view in stream.scene(0).views.values()) == entry
            budget = (512 << 20) // entry
            assert self._keeps(stream, budget - 1) and not self._keeps(stream, budget)

    @pytest.mark.parametrize("kind,branch", [("slot", "both"), ("slot", "slow"), ("slot", "fast"),
                                             ("pooling", "both")])
    def test_default_config_caches_every_training_scene(self, kind, branch):
        rc = from_dict({"connector": {"type": kind}, "stage": {"branch": branch}})
        stream = SceneStream(rc, "train", training.view_names(rc))
        assert rc.data.n_train_scenes == 512
        assert self._keeps(stream, 511) and not self._keeps(stream, 512)

    def test_fields_outside_the_scene_leave_its_views(self):
        # a stream reads the seed, the clip shape and the data section of its
        # config: configs that differ elsewhere stream identical views
        rc = tiny_config()
        other = tiny_config(connector={"type": "pooling", "slot_dim": 16, "iters_slow": 3},
                            stage={"stage": 2, "batch_size": 4, "frames_per_scene": 1})
        names = ("slow", "fast", "pooling")
        streams = [SceneStream(config, "train", names) for config in (rc, other)]
        for i in range(rc.data.n_train_scenes):
            a, b = (stream.scene(i) for stream in streams)
            assert dict(a.probe) == dict(b.probe)
            for name in names:
                assert np.array_equal(a.views[name], b.views[name])

    def test_cached_entries_hold_no_grid_or_label_map(self, monkeypatch):
        # with the cyclic collector off, every grid and label map gen_scene
        # made is freed as soon as the scene's views are derived
        rc = tiny_config()
        made, original = [], synthetic.gen_scene

        def recording(spec):
            video, truth = original(spec)
            made.extend(weakref.ref(a) for a in (video.grid, truth.object_labels, truth.segment_labels))
            return video, truth

        monkeypatch.setattr(synthetic, "gen_scene", recording)
        stream = SceneStream(rc, "train", ("slow", "fast"))
        gc.disable()
        try:
            batch = training._batch(stream, range(rc.data.n_train_scenes))
            assert len(made) == 3 * rc.data.n_train_scenes and len(stream._cache) == rc.data.n_train_scenes
            assert [ref() for ref in made] == [None] * len(made)
        finally:
            gc.enable()
        assert all(scene is stream._cache[i] for i, scene in enumerate(batch.scenes))

    @pytest.mark.parametrize("cached", [0, 3])
    @pytest.mark.parametrize("name", ["slow", "fast", "query_transformer", "pooling"])
    def test_scenes_past_the_cache_budget_train_identically(self, tmp_path, monkeypatch, name, cached):
        # scenes past the budget are rendered again at every visit and carry
        # their own views: two passes over the scenes write the same
        # checkpoint when CACHE_BYTES holds the views of only ``cached`` scenes
        if name in ("slow", "fast"):
            runner, rc, names = run_stage1, tiny_config(stage={"branch": name, "steps": 8}), (name,)
        else:
            rc = tiny_config(connector={"type": name}, stage={"branch": "both", "steps": 8})
            runner, names = run_baseline, training.view_names(rc)
        full = Path(runner(rc, str(tmp_path / "full"))["checkpoint"]).read_bytes()
        entry = sum(view.nbytes for view in SceneStream(rc, "train", names).scene(0).views.values())
        monkeypatch.setattr(synthetic, "CACHE_BYTES", (cached + 1) * entry - 1)
        held, scene = [], SceneStream.scene

        def scene_spy(self, index):
            record = scene(self, index)
            held.append(len(self._cache))
            return record

        monkeypatch.setattr(SceneStream, "scene", scene_spy)
        assert Path(runner(rc, str(tmp_path / "capped"))["checkpoint"]).read_bytes() == full
        assert max(held) == cached and len(held) == 8 * rc.stage.batch_size

    def test_training_stream_dies_when_run_stage1_returns(self, monkeypatch):
        # nothing keeps a run's stream or its views alive through a reference
        # cycle: with the cyclic collector off they die with the run
        refs, scene = [], SceneStream.scene

        def scene_spy(self, index):
            if not any(ref() is self for ref in refs):
                refs.append(weakref.ref(self))
            record = scene(self, index)
            refs.extend(weakref.ref(view) for view in record.views.values())
            return record

        monkeypatch.setattr(SceneStream, "scene", scene_spy)
        gc.disable()
        try:
            result = run_stage1(tiny_config(stage={"steps": 3}))
            # the stream and the one view of each of its 6 scene calls
            assert len(refs) == 7 and [ref() for ref in refs] == [None] * 7
        finally:
            gc.enable()
        assert result["records"]


class TestModelLayout:
    # sha256 of the sorted (tensor name, shape) list at the tiny config;
    # checkpoints store tensors under these names, so a change here breaks
    # every existing checkpoint (the slot digest dates from the deletion of
    # slow.slot_norm.b and fast.slot_norm.b; older checkpoints still load)
    DIGESTS = {"slot": "8d79346aa96a58de", "pooling": "9c622f219ed3eeac",
               "query_transformer": "161ca0977fc635c1"}

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_tensor_names_and_shapes_unchanged(self, kind):
        named = build_model(tiny_config(connector={"type": kind})).named()
        items = sorted((name, list(val.data.shape)) for name, val in named.items())
        digest = hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]
        assert digest == self.DIGESTS[kind]


class TestBaselines:
    def test_pooling_trains_and_evaluates(self, tmp_path, monkeypatch):
        # the pooling connector reads only its pooling view and is labelled
        # "pooling", whichever branch stage.branch names
        seen, original = [], training.forward_masks

        def spy(model, views):
            seen.append(sorted(views))
            return original(model, views)

        monkeypatch.setattr(training, "forward_masks", spy)
        for branch in ("slow", "fast"):
            seen.clear()
            rc = tiny_config(connector={"type": "pooling"}, stage={"branch": branch, "steps": 3})
            result = run_baseline(rc, out_dir=str(tmp_path / branch))
            report = evaluate_checkpoint(rc, result["checkpoint"])
            assert seen and all(names == ["pooling"] for names in seen)
            assert report.connector == "pooling"
            assert report.spatial_ari is None
            assert report.n_tokens == rc.connector.frames + 16

    def test_query_transformer_branch_parity(self, tmp_path):
        rc = tiny_config(connector={"type": "query_transformer"},
                         stage={"branch": "slow", "steps": 2})
        result = run_baseline(rc, out_dir=str(tmp_path))
        report = evaluate_checkpoint(rc, result["checkpoint"])
        assert report.connector == "query_transformer-slow"
        assert report.n_tokens == rc.connector.n_slow_tokens
        assert report.spatial_ari is not None and report.temporal_ari is None

    def test_slot_kind_rejected(self):
        with pytest.raises(TrainingError):
            run_baseline(tiny_config())


class TestEvaluate:
    def test_report_shape_for_joint_model(self, tmp_path):
        rc = tiny_config(stage={"stage": 3, "branch": "both", "steps": 0,
                                "init_slow_checkpoint": None, "init_fast_checkpoint": None})
        model = build_model(rc)
        report = evaluate_model(rc, model)
        assert report.n_tokens == rc.connector.n_tokens
        assert report.scenes == rc.data.n_heldout_scenes
        assert report.spatial_ari is not None
        assert report.temporal_ari is not None
        assert 0.0 <= report.probe_acc <= 1.0
        assert set(report.probe_acc_per_task) == {"object_count", "event_count", "occupancy"}
        # every report the program writes reads back, each value in its field's range
        assert DecouplingReport.from_text(report.to_text()) == report

    def test_each_metric_scores_one_stack_per_chunk_and_branch(self, monkeypatch):
        # 9 scenes run as chunks of 8 and 1; the benchmark tracer's span
        # predictions for eval read these names in this module
        rc = tiny_config(data={"n_heldout_scenes": 9},
                         stage={"stage": 3, "branch": "both", "steps": 0,
                                "init_slow_checkpoint": None, "init_fast_checkpoint": None})
        calls = {}
        for name in ("ari", "hard_assign", "slot_overlap", "mask_entropy"):
            def counted(*args, _name=name, _fn=getattr(training, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(training, name, counted)
        report = evaluate_model(rc, build_model(rc))
        assert report.scenes == 9 and report.spatial_ari is not None and report.temporal_ari is not None
        assert calls == {"ari": 4, "hard_assign": 4, "slot_overlap": 4, "mask_entropy": 4}

    def test_checkpoint_eval_round_trip(self, tmp_path):
        rc = tiny_config(data={"n_heldout_scenes": 2}, stage={"steps": 2})
        result = run_stage1(rc, out_dir=str(tmp_path))
        report = evaluate_checkpoint(rc, result["checkpoint"])
        assert report.scenes == 2
        assert report.connector == "slot-slow"

    def test_majority_accuracy(self):
        labels = {
            "object_count": np.array([2, 2, 2, 3]),
            "event_count": np.array([1, 1, 2, 2]),
            "occupancy": np.array([0, 0, 0, 0]),
        }
        assert majority_accuracy(labels) == pytest.approx((0.75 + 0.5 + 1.0) / 3)


class TestDivergenceSignal:
    def test_non_finite_loss_reports_step(self, tmp_path):
        # a step this size pushes weights past float32 range on the next forward
        rc = tiny_config(stage={"lr_max": 1e20, "steps": 5, "grad_clip": 1e6})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError, match="step"):
                run_stage1(rc, out_dir=str(tmp_path))


RUNNERS = ["stage1-slow", "stage1-fast", "stage2", "stage3", "query_transformer", "pooling"]


def runner_case(name, tmp_path):
    """(runner, config) of one trainer at the tiny config; stages 2 and 3 start from a fresh model."""
    if name.startswith("stage1-"):
        return run_stage1, tiny_config(stage={"branch": name[len("stage1-"):]})
    if name in ("query_transformer", "pooling"):
        return run_baseline, tiny_config(connector={"type": name}, stage={"branch": "both"})
    init = str(tmp_path / "init.sfsl")
    save_model(init, build_model(tiny_config()), None, 0, 1)
    if name == "stage2":
        return run_stage2, tiny_config(stage={"stage": 2, "branch": "fast", "init_checkpoint": init})
    return run_stage3, tiny_config(stage={"stage": 3, "branch": "both", "head_lr": 1e-2,
                                          "init_slow_checkpoint": init, "init_fast_checkpoint": init})


class TestLoopContract:
    """Every trainer runs the one step loop: one ``training.adam_update`` per step
    (the benchmark times steps through that module global), and a stage that
    moves a tensor outside its trainable group fails."""

    @pytest.mark.parametrize("name", RUNNERS)
    def test_one_adam_update_per_step(self, tmp_path, monkeypatch, name):
        runner, rc = runner_case(name, tmp_path)
        calls = []
        update = training.adam_update

        def counting(params, state, **kwargs):
            calls.append(sorted(params))
            return update(params, state, **kwargs)

        monkeypatch.setattr(training, "adam_update", counting)
        result = runner(rc, out_dir=str(tmp_path / "run"))
        assert len(calls) == rc.stage.steps
        assert all(names == sorted(trainable_names(result["model"])) for names in calls)

    @pytest.mark.parametrize("name", RUNNERS)
    def test_moving_frozen_tensor_fails(self, tmp_path, monkeypatch, name):
        runner, rc = runner_case(name, tmp_path)
        models, nudged = [], []
        build, update = training.build_model, training.adam_update

        def capturing(cfg):
            models.append(build(cfg))
            return models[-1]

        def nudging(params, state, **kwargs):
            update(params, state, **kwargs)
            frozen = [n for n in models[0].named() if n not in params]
            if frozen:  # the comparators train every tensor: nothing is frozen
                models[0].named()[frozen[0]].data += np.float32(1e-3)
                nudged.append(frozen[0])

        monkeypatch.setattr(training, "build_model", capturing)
        monkeypatch.setattr(training, "adam_update", nudging)
        if rc.connector.type != "slot":
            runner(rc, out_dir=str(tmp_path / "run"))
            assert not nudged
            return
        with pytest.raises(TrainingError, match="frozen parameter") as exc:
            runner(rc, out_dir=str(tmp_path / "run"))
        assert repr(nudged[0]) in str(exc.value)
