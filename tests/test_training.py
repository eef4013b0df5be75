import hashlib
import json
import math
import os

import numpy as np
import pytest

from slotvid import engine
from slotvid.checkpoint import load_checkpoint
from slotvid.config import from_dict
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
        names = trainable_names(model, rc.stage)
        assert all(n.startswith(("slow.", "dec_slow.")) for n in names)
        assert any(n.startswith("slow.") for n in names)
        assert any(n.startswith("dec_slow.") for n in names)

    def test_stage2_fast_group(self):
        rc = tiny_config(stage={"stage": 2, "branch": "fast", "init_checkpoint": "x"})
        names = set(trainable_names(build_model(rc), rc.stage))
        assert "fast_pos" in names and "f_proj.w" in names and "proj.w" in names
        assert not any(n.startswith(("slow.", "dec_", "s_proj")) for n in names)
        assert any(n.startswith("probe.") for n in names)

    def test_stage3_covers_both_branches(self):
        rc = tiny_config(stage={"stage": 3, "branch": "both",
                                "init_slow_checkpoint": "a", "init_fast_checkpoint": "b"})
        names = set(trainable_names(build_model(rc), rc.stage))
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
        assert open(a["checkpoint"], "rb").read() == open(b["checkpoint"], "rb").read()

    def test_frozen_groups_do_not_move(self, tmp_path):
        rc = tiny_config()
        init = {k: v.copy() for k, v in model_state(build_model(rc)).items()}
        result = run_stage1(rc, out_dir=str(tmp_path))
        final = load_checkpoint(result["checkpoint"])
        trainable = set(trainable_names(build_model(rc), rc.stage))
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
        assert open(resumed["checkpoint"], "rb").read() == open(full["checkpoint"], "rb").read()

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
        assert open(resumed["checkpoint"], "rb").read() == open(full["checkpoint"], "rb").read()


class TestStage3:
    def test_requires_both_checkpoints(self):
        rc = tiny_config(stage={"stage": 3})
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
        rc = tiny_config()
        model = build_model(rc)
        from slotvid.engine import Value
        from slotvid.training import probe_tokens, _stream

        stream = _stream(rc, "train")
        feats = np.stack([stream.scene(i)[1].grid for i in range(2)])
        with engine.no_grad():
            tokens = probe_tokens(model, Value(feats), "both")
        assert tokens.shape[1] == rc.connector.n_tokens


class TestModelLayout:
    # sha256 of the sorted (tensor name, shape) list at the tiny config;
    # checkpoints store tensors under these names, so a change here breaks
    # every existing checkpoint
    DIGESTS = {"slot": "21f2015e5cf57ebb", "pooling": "9c622f219ed3eeac",
               "query_transformer": "161ca0977fc635c1"}

    @pytest.mark.parametrize("kind", sorted(DIGESTS))
    def test_tensor_names_and_shapes_unchanged(self, kind):
        named = build_model(tiny_config(connector={"type": kind})).named()
        items = sorted((name, list(val.data.shape)) for name, val in named.items())
        digest = hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]
        assert digest == self.DIGESTS[kind]


class TestBaselines:
    def test_pooling_trains_and_evaluates(self, tmp_path):
        rc = tiny_config(connector={"type": "pooling"}, stage={"steps": 3})
        result = run_baseline(rc, out_dir=str(tmp_path))
        report = evaluate_checkpoint(rc, result["checkpoint"])
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

    def test_checkpoint_eval_round_trip(self, tmp_path):
        rc = tiny_config(stage={"steps": 2})
        result = run_stage1(rc, out_dir=str(tmp_path))
        report = evaluate_checkpoint(rc, result["checkpoint"], n_scenes=2)
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
