import json
import os

import numpy as np
import pytest

from slotvid.checkpoint import load_checkpoint, save_checkpoint
from slotvid.cli import main
from slotvid.metrics import DecouplingReport, parse_pgm


TINY = {
    "connector": {
        "frames": 6, "grid_h": 4, "grid_w": 4, "feat_dim": 8, "slow_frames": 2,
        "pool_stride": 2, "slots_per_frame": 2, "slots_per_position": 2,
        "slot_dim": 8, "out_dim": 8, "max_frames": 8, "iters_slow": 2,
        "iters_fast": 2, "qt_layers": 1, "qt_heads": 2,
    },
    "data": {
        "n_train_scenes": 6, "n_heldout_scenes": 3, "k_objects": [2, 2],
        "k_events": [2, 2], "sigma": 0.05, "n_object_ids": 4, "extent": [2, 2],
    },
    "stage": {"steps": 3, "batch_size": 2, "log_every": 1, "schedule": "constant",
              "lr_max": 1e-3},
    "seed": 11,
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = json.loads(json.dumps(TINY))
    for section, vals in overrides.items():
        if isinstance(vals, dict):
            doc[section] = {**doc.get(section, {}), **vals}
        else:
            doc[section] = vals
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestPretrainCommand:
    def test_repeat_runs_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "a")]) == 0
        assert main(["pretrain", "--config", cfg, "--seed", "7", "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "checkpoint.sfsl").read_bytes()
        b = (tmp_path / "b" / "checkpoint.sfsl").read_bytes()
        assert a == b

    def test_effective_config_written_and_reproduces(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        eff = tmp_path / "a" / "effective-config.json"
        assert eff.exists()
        assert main(["pretrain", "--config", str(eff), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "checkpoint.sfsl").read_bytes() == (
            tmp_path / "b" / "checkpoint.sfsl"
        ).read_bytes()

    def test_train_log_written(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["pretrain", "--config", cfg, "--out", str(tmp_path / "run")])
        lines = (tmp_path / "run" / "train-log.txt").read_text().splitlines()
        assert lines and lines[0].startswith("step=0 ")
        assert all("loss=" in line for line in lines)

    def test_missing_out_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg]) == 2


class TestConfigErrors:
    def test_unknown_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"connectr": {}}))
        assert main(["pretrain", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["pretrain", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_missing_checkpoint_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, stage={"stage": 2, "branch": "slow",
                                            "init_checkpoint": str(tmp_path / "no.sfsl")})
        assert main(["tune", "--config", cfg, "--out", str(tmp_path / "x")]) == 3

    def test_resume_missing_adam_second_moment_exits_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        tensors = load_checkpoint(str(tmp_path / "a" / "checkpoint.sfsl"))
        dropped = sorted(name for name in tensors if name.startswith("adam.v."))[0]
        assert f"adam.m.{dropped[len('adam.v.'):]}" in tensors
        del tensors[dropped]
        broken = str(tmp_path / "broken.sfsl")
        save_checkpoint(tensors, broken)
        capsys.readouterr()
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--resume", broken]) == 3
        assert dropped in capsys.readouterr().err


class TestPipelineCommands:
    def test_full_pipeline_and_compare(self, tmp_path, capsys):
        cfg1 = write_config(tmp_path, name="s1.json")
        assert main(["pretrain", "--config", cfg1, "--out", str(tmp_path / "s1")]) == 0
        ckpt1 = str(tmp_path / "s1" / "checkpoint.sfsl")

        cfg2 = write_config(tmp_path, name="s2.json",
                            stage={"stage": 2, "branch": "slow", "steps": 2,
                                   "init_checkpoint": ckpt1})
        assert main(["tune", "--config", cfg2, "--out", str(tmp_path / "s2")]) == 0

        assert main(["eval", "--config", cfg2, "--ckpt",
                     str(tmp_path / "s2" / "checkpoint.sfsl"),
                     "--out", str(tmp_path / "eval")]) == 0
        report = DecouplingReport.load(str(tmp_path / "eval" / "report.txt"))
        assert report.connector == "slot-slow"
        assert report.scenes == 3

        cfgp = write_config(tmp_path, name="pool.json", connector={"type": "pooling"})
        assert main(["train-baseline", "--config", cfgp, "--out", str(tmp_path / "pool")]) == 0
        assert main(["eval", "--config", cfgp, "--ckpt",
                     str(tmp_path / "pool" / "checkpoint.sfsl"),
                     "--out", str(tmp_path / "evalp")]) == 0

        capsys.readouterr()
        assert main(["compare", str(tmp_path / "eval" / "report.txt"),
                     str(tmp_path / "evalp" / "report.txt")]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split()[0] == "connector"
        assert any(line.startswith("slot-slow") for line in lines)
        assert any(line.startswith("pooling") for line in lines)

    def test_resume_flag(self, tmp_path):
        cfg_short = write_config(tmp_path, name="short.json", stage={"steps": 1})
        main(["pretrain", "--config", cfg_short, "--out", str(tmp_path / "short")])
        cfg_full = write_config(tmp_path, name="full.json", stage={"steps": 3})
        assert main(["pretrain", "--config", cfg_full, "--out", str(tmp_path / "resumed"),
                     "--resume", str(tmp_path / "short" / "checkpoint.sfsl")]) == 0
        main(["pretrain", "--config", cfg_full, "--out", str(tmp_path / "full")])
        assert (tmp_path / "resumed" / "checkpoint.sfsl").read_bytes() == (
            tmp_path / "full" / "checkpoint.sfsl"
        ).read_bytes()


class TestGenData:
    def test_writes_loadable_scene_containers(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data"),
                     "--count", "3"]) == 0
        files = sorted(os.listdir(tmp_path / "data"))
        scene_files = [f for f in files if f.startswith("scene_")]
        assert scene_files == ["scene_00000.sfsl", "scene_00001.sfsl", "scene_00002.sfsl"]
        tensors = load_checkpoint(str(tmp_path / "data" / "scene_00000.sfsl"))
        assert tensors["features"].shape == (6, 4, 4, 8)
        assert tensors["object_labels"].shape == (6, 4, 4)
        assert tensors["segment_labels"].shape == (4, 6)


class TestViz:
    def test_renders_masks_with_index(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")])
        cfg_both = write_config(tmp_path, name="both.json", stage={"branch": "both"})
        assert main(["viz", "--config", cfg_both, "--ckpt",
                     str(tmp_path / "s1" / "checkpoint.sfsl"),
                     "--out", str(tmp_path / "viz")]) == 0
        index = (tmp_path / "viz" / "index.txt").read_text().splitlines()
        # 2 frames x 2 slots + 4 positions x 2 slots
        assert len(index) == 2 * 2 + 4 * 2
        first = index[0].split()
        img = parse_pgm(str(tmp_path / "viz" / first[3]))
        assert img.shape == (4, 4)

    def test_pooling_has_no_masks(self, tmp_path):
        cfg = write_config(tmp_path, connector={"type": "pooling"})
        main(["train-baseline", "--config", cfg, "--out", str(tmp_path / "p")])
        assert main(["viz", "--config", cfg, "--ckpt",
                     str(tmp_path / "p" / "checkpoint.sfsl"),
                     "--out", str(tmp_path / "v")]) == 3
