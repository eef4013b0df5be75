import hashlib
import json
import os

import numpy as np
import pytest

from slotvid import training
from slotvid.checkpoint import load_checkpoint, save_checkpoint
from slotvid.cli import main
from slotvid.metrics import DecouplingReport

from test_checkpoint import MALFORMED, sealed
from test_metrics import parse_pgm


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

    def test_out_from_the_config_alone(self, tmp_path):
        cfg = write_config(tmp_path, out=str(tmp_path / "a"))
        assert main(["pretrain", "--config", cfg]) == 0
        eff = tmp_path / "a" / "effective-config.json"
        assert json.loads(eff.read_text())["out"] == str(tmp_path / "a")
        # the run's own effective config reproduces it, output directory included
        (tmp_path / "a" / "checkpoint.sfsl").rename(tmp_path / "first.sfsl")
        assert main(["pretrain", "--config", str(eff)]) == 0
        assert (tmp_path / "a" / "checkpoint.sfsl").read_bytes() == (tmp_path / "first.sfsl").read_bytes()

    @pytest.mark.parametrize("command, required", [("pretrain", True), ("viz", True), ("eval", False)])
    def test_out_help_says_whether_it_is_required(self, capsys, command, required):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("output directory (required)" in text) == required


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

    @pytest.mark.parametrize("dropped, kept", [("adam.v.", "adam.m."), ("adam.m.", "adam.v.")],
                             ids=["second", "first"])
    def test_resume_missing_adam_moment_exits_3(self, tmp_path, capsys, dropped, kept):
        # either moment without the other is refused; a lone second moment
        # once resumed with fresh moments and exit 0
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        tensors = load_checkpoint(str(tmp_path / "a" / "checkpoint.sfsl"))
        name = sorted(name for name in tensors if name.startswith(dropped))[0]
        assert kept + name[len(dropped):] in tensors
        del tensors[name]
        broken = str(tmp_path / "broken.sfsl")
        save_checkpoint(tensors, broken)
        capsys.readouterr()
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--resume", broken]) == 3
        assert name in capsys.readouterr().err

    def test_resume_adam_moments_without_count_exits_3(self, tmp_path, capsys):
        # moments without their step count once resumed with fresh moments
        # and an Adam count of 0, and exit 0
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        tensors = load_checkpoint(str(tmp_path / "a" / "checkpoint.sfsl"))
        assert any(name.startswith("adam.m.") for name in tensors)
        del tensors["meta.adam_t"]
        broken = str(tmp_path / "broken.sfsl")
        save_checkpoint(tensors, broken)
        capsys.readouterr()
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "b"),
                     "--resume", broken]) == 3
        assert "meta.adam_t" in capsys.readouterr().err
        # a checkpoint with neither moments nor count resumes with fresh ones
        save_checkpoint({k: v for k, v in tensors.items() if not k.startswith("adam.")}, broken)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "c"), "--resume", broken]) == 0

    @pytest.mark.parametrize("command, key, value", [("pretrain", "slow.wq", np.nan), ("eval", "slow.wq", np.nan),
                                                     ("pretrain", "adam.m.slow.wq", np.nan),
                                                     ("pretrain", "adam.v.slow.wq", np.inf)])
    def test_non_finite_checkpoint_tensor_exits_3(self, tmp_path, capsys, command, key, value):
        # one NaN in slow.wq resumed into "training diverged at step 2:
        # non-finite values in slot attention mask", and eval failed alike
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        tensors = load_checkpoint(str(tmp_path / "a" / "checkpoint.sfsl"))
        tensors[key] = tensors[key].copy()
        tensors[key].flat[0] = value
        broken = str(tmp_path / "broken.sfsl")
        save_checkpoint(tensors, broken)
        long_cfg = write_config(tmp_path, name="long.json", stage={"steps": 3})
        capsys.readouterr()
        if command == "pretrain":
            argv = ["pretrain", "--config", long_cfg, "--out", str(tmp_path / "b"), "--resume", broken]
        else:
            argv = ["eval", "--config", long_cfg, "--ckpt", broken]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert repr(key) in err and "non-finite" in err
        assert "diverged" not in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("meta.connector", np.zeros(0, dtype=np.float32)),
                                            ("meta.step", np.float32("nan"))])
    def test_malformed_metadata_exits_3(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        tensors = load_checkpoint(str(tmp_path / "a" / "checkpoint.sfsl"))
        broken = str(tmp_path / "broken.sfsl")
        save_checkpoint({**tensors, key: value}, broken)
        capsys.readouterr()
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "b"), "--resume", broken]) == 3
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("meta.step", -3.0), ("meta.step", 2.5), ("meta.adam_t", -1.0),
                                            ("meta.adam_t", 0.5)])
    def test_resume_counter_not_a_whole_number_exits_3(self, tmp_path, capsys, key, value):
        # a negative step trained extra steps, a fractional one was truncated,
        # and a negative Adam count diverged on a division by zero
        cfg = write_config(tmp_path, stage={"steps": 3})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        tensors = load_checkpoint(str(tmp_path / "a" / "checkpoint.sfsl"))
        broken = str(tmp_path / "broken.sfsl")
        save_checkpoint({**tensors, key: np.float32(value)}, broken)
        capsys.readouterr()
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "b"), "--resume", broken]) == 3
        assert f"{key!r} must be a whole number >= 0" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    def test_resume_past_the_stage_exits_3(self, tmp_path, capsys):
        # a 6-step checkpoint resumed for 3 steps trained nothing and wrote its
        # step-6 weights stamped meta.step = 3
        long_cfg = write_config(tmp_path, name="long.json", stage={"steps": 6})
        assert main(["pretrain", "--config", long_cfg, "--out", str(tmp_path / "a")]) == 0
        short_cfg = write_config(tmp_path, name="short.json", stage={"steps": 3})
        capsys.readouterr()
        assert main(["pretrain", "--config", short_cfg, "--out", str(tmp_path / "b"),
                     "--resume", str(tmp_path / "a" / "checkpoint.sfsl")]) == 3
        assert "at step 6, past the stage's 3 steps" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("code", [1.0, 2.0])
    def test_eval_checkpoint_of_another_nonlinearity_exits_3(self, tmp_path, capsys, code):
        # the codes older checkpoints gave the deleted relu and tanh MLPs
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        tensors = load_checkpoint(str(tmp_path / "a" / "checkpoint.sfsl"))
        old = str(tmp_path / "old.sfsl")
        save_checkpoint({**tensors, "meta.nonlinearity": np.float32(code), "meta.decoder_kind": np.float32(0.0)}, old)
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--ckpt", old, "--out", str(tmp_path / "eval")]) == 3
        err = capsys.readouterr().err
        assert "nonlinearity" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_eval_malformed_checkpoint_exits_3(self, tmp_path, capsys, case):
        # the CRC holds, so the tensor table parser must refuse it itself
        ckpt = tmp_path / "bad.sfsl"
        ckpt.write_bytes(sealed(MALFORMED[case]))
        assert main(["eval", "--config", write_config(tmp_path), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "eval")]) == 3
        assert "Traceback" not in capsys.readouterr().err


    # what each non-float field must be; a numeric string or a boolean would
    # run like the number but hash differently, so both are refused everywhere
    MUST_BE = {"stage": "1, 2 or 3", "steps": "an integer >= 0", "k_objects": "a [lo, hi] pair of integers",
               "k_events": "a [lo, hi] pair of integers", "extent": "a [lo, hi] pair of integers",
               "batch_size": "a positive integer", "log_every": "a positive integer",
               "n_train_scenes": "a positive integer", "slot_dim": "a positive integer",
               "qt_heads": "a positive integer", None: "an integer",
               # an integer path would reach open() as a file descriptor; 0 would read standard input
               "init_checkpoint": "a string path or null", "init_slow_checkpoint": "a string path or null",
               "init_fast_checkpoint": "a string path or null"}

    @pytest.mark.parametrize("section,key,value", [
        ("stage", "lr_max", "abc"), ("stage", "lr_min", [1]), ("stage", "head_lr", "fast"),
        ("stage", "grad_clip", {}), ("data", "sigma", "abc"),
        ("stage", "lr_max", "0.001"), ("stage", "lr_max", True), ("stage", "head_lr", True),
        ("data", "sigma", False), ("stage", "stage", True), ("stage", "steps", "3"),
        ("stage", "batch_size", True), ("stage", "log_every", 2.0), ("data", "n_train_scenes", "6"),
        ("data", "k_objects", [2, 4.5]), ("data", "k_events", ["2", 2]), ("data", "extent", [True, 2]),
        ("connector", "slot_dim", "8"), ("connector", "qt_heads", True),
        ("seed", None, True), ("seed", None, "11"), ("stage", "init_checkpoint", 0),
        ("stage", "init_slow_checkpoint", 5), ("stage", "init_fast_checkpoint", ["a.sfsl"]),
        # a seed is one 64-bit word of every generator's key, so -1 and 2**64 would alias others
        ("seed", None, -1), ("seed", None, 2**64),
    ])
    def test_non_numeric_value_exits_2(self, tmp_path, capsys, section, key, value):
        # key None: the value replaces the whole top-level field
        cfg = write_config(tmp_path, **{section: value if key is None else {key: value}})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        where = section if key is None else f"{section}.{key}"
        assert f"{where} must be {self.MUST_BE.get(key, 'a number')}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_more_events_than_frames_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, connector={"frames": 3}, data={"k_events": [4, 5]})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "data.k_events" in err and "connector.frames" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    # JSON spells inf as Infinity, and 1e400 parses to inf; either would make
    # the effective config invalid JSON, and a non-finite sigma would only fail
    # later, as a training error. 1e39 is finite, but inf in float32, where
    # the run computes; as sigma it failed at step 0 as "training diverged"
    @pytest.mark.parametrize("section,key,literal", [
        ("stage", "grad_clip", "1e400"), ("data", "sigma", "1e400"), ("stage", "lr_max", "NaN"),
        ("stage", "head_lr", "-Infinity"), ("stage", "lr_min", "1" + "0" * 400), ("data", "sigma", "1e39"),
        ("stage", "lr_max", "3.5e38"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, literal):
        cfg = write_config(tmp_path, **{section: {key: "LITERAL"}})
        with open(cfg, encoding="utf-8") as fh:
            text = fh.read().replace('"LITERAL"', literal)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key} must be a finite number" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_impossible_size_exits_3(self, tmp_path, capsys):
        # the temporal embedding table would be 10**12 x 32 float32, 116 TiB;
        # numpy refuses the request before allocating anything
        cfg = write_config(tmp_path, connector={"max_frames": 10**12})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Unable to allocate" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": 1, "out": "caf\xe9"}')
        assert main(["pretrain", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "is not UTF-8 text" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command,stage", [("pretrain", 2), ("tune", 3), ("joint", 1)])
    def test_stage_of_another_runner_exits_3(self, tmp_path, capsys, command, stage):
        # each runner trains its own stage's group, whatever stage.stage names
        init = write_config(tmp_path, name="init.json", stage={"steps": 1})
        assert main(["pretrain", "--config", init, "--out", str(tmp_path / "init")]) == 0
        ckpt = str(tmp_path / "init" / "checkpoint.sfsl")
        cfg = write_config(tmp_path, stage={"stage": stage, "branch": "slow", "init_checkpoint": ckpt,
                                            "init_slow_checkpoint": ckpt, "init_fast_checkpoint": ckpt})
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert f"stage.stage is {stage}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_joint_of_one_branch_exits_3(self, tmp_path, capsys):
        # stage 3 once trained both branches whatever stage.branch named, and
        # its effective config kept the default "slow", so eval scored the
        # run as slot-slow over the slow tokens alone
        init = write_config(tmp_path, name="init.json", stage={"steps": 1})
        assert main(["pretrain", "--config", init, "--out", str(tmp_path / "init")]) == 0
        ckpt = str(tmp_path / "init" / "checkpoint.sfsl")
        cfg = write_config(tmp_path, stage={"stage": 3, "init_slow_checkpoint": ckpt, "init_fast_checkpoint": ckpt})
        capsys.readouterr()
        assert main(["joint", "--config", cfg, "--out", str(tmp_path / "x")]) == 3
        assert "stage 3 trains stage.branch both, not slow" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_resume_from_another_stage_exits_3(self, tmp_path, capsys):
        # a stage-1 checkpoint once resumed stage 2 at its step count, with
        # the decoder's Adam moments; a checkpoint that names no stage resumes
        cfg1 = write_config(tmp_path, name="s1.json", stage={"steps": 1})
        assert main(["pretrain", "--config", cfg1, "--out", str(tmp_path / "s1")]) == 0
        ckpt = str(tmp_path / "s1" / "checkpoint.sfsl")
        cfg2 = write_config(tmp_path, name="s2.json", stage={"stage": 2, "branch": "slow", "init_checkpoint": ckpt})
        capsys.readouterr()
        assert main(["tune", "--config", cfg2, "--out", str(tmp_path / "x"), "--resume", ckpt]) == 3
        assert "checkpoint was written by stage 1, but this run trains stage 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()
        unstaged = str(tmp_path / "unstaged.sfsl")
        save_checkpoint({k: v for k, v in load_checkpoint(ckpt).items() if k != "meta.stage"}, unstaged)
        assert main(["tune", "--config", cfg2, "--out", str(tmp_path / "y"), "--resume", unstaged]) == 0

    @pytest.mark.parametrize("stage", [1, 2, 3])
    @pytest.mark.parametrize("branch", ["slow", "fast", "both"])
    def test_each_stage_trains_only_its_branches(self, tmp_path, capsys, monkeypatch, stage, branch):
        # stages 1 and 2 train one branch and stage 3 both; any other pair is
        # refused before a checkpoint is read
        init = write_config(tmp_path, name="init.json", stage={"steps": 1})
        assert main(["pretrain", "--config", init, "--out", str(tmp_path / "init")]) == 0
        ckpt = str(tmp_path / "init" / "checkpoint.sfsl")
        read, load = [], training.load_checkpoint
        monkeypatch.setattr(training, "load_checkpoint", lambda path: read.append(path) or load(path))
        cfg = write_config(tmp_path, stage={"stage": stage, "branch": branch, "steps": 1, "init_checkpoint": ckpt,
                                            "init_slow_checkpoint": ckpt, "init_fast_checkpoint": ckpt})
        command = {1: "pretrain", 2: "tune", 3: "joint"}[stage]
        capsys.readouterr()
        valid = (branch == "both") == (stage == 3)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "x")]) == (0 if valid else 3)
        if valid:
            assert len(read) == stage - 1  # stage 2 reads its init checkpoint, stage 3 one per branch
        else:
            assert f"stage {stage} trains stage.branch" in capsys.readouterr().err
            assert read == [] and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("scenes", ["0", "-2"])
    def test_eval_without_scenes_exits_2(self, tmp_path, capsys, scenes):
        # --scenes sets data.n_heldout_scenes, so the config check refuses it;
        # it once reached evaluation and exited 3
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--ckpt", str(tmp_path / "a" / "checkpoint.sfsl"),
                     "--scenes", scenes]) == 2
        assert "data.n_heldout_scenes must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["seed abc", "probe_acc nan?", "probe_acc nan", "probe_acc inf"])
    def test_compare_non_numeric_report_exits_3(self, tmp_path, line):
        good = "connector slot\nseed 1\nconfig_hash abc\nn_tokens 12\nscenes 3\nprobe_acc 0.5\n"
        key = line.split()[0]
        bad = "".join(ln + "\n" for ln in good.splitlines() if ln.split()[0] != key) + line + "\n"
        (tmp_path / "good.txt").write_text(good)
        (tmp_path / "bad.txt").write_text(bad)
        assert main(["compare", str(tmp_path / "good.txt"), str(tmp_path / "good.txt")]) == 0
        assert main(["compare", str(tmp_path / "good.txt"), str(tmp_path / "bad.txt")]) == 3


    @pytest.mark.parametrize("line", ["probe_acc. 0.5", "n_tokens -12", "scenes 0", "probe_acc 7.5", "spatial_ari 3",
                                      "slot_overlap_slow 7.5", "mask_entropy_fast -2", "seed -5"])
    def test_compare_out_of_range_report_exits_3(self, tmp_path, capsys, line):
        good = "connector slot\nseed 1\nconfig_hash abc\nn_tokens 12\nscenes 3\nprobe_acc 0.5\n"
        key = line.split()[0]
        (tmp_path / "bad.txt").write_text("".join(ln + "\n" for ln in good.splitlines() if ln.split()[0] != key)
                                          + line + "\n")
        assert main(["compare", str(tmp_path / "bad.txt")]) == 3
        assert key in capsys.readouterr().err

    def test_compare_takes_one_or_more_reports(self, tmp_path, capsys):
        (tmp_path / "good.txt").write_text("connector slot\nseed 1\nconfig_hash abc\nn_tokens 12\nscenes 3\n")
        assert main(["compare", str(tmp_path / "good.txt")]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["compare", "--help"])
        assert "one or more report files" in " ".join(capsys.readouterr().out.split())

    def test_compare_non_ascii_report_exits_3(self, tmp_path, capsys):
        good = "connector slot\nseed 1\nconfig_hash abc\nn_tokens 12\nscenes 3\n"
        (tmp_path / "good.txt").write_text(good)
        (tmp_path / "bad.txt").write_bytes(good.replace("slot", "sl\xf6t").encode("latin-1"))
        assert main(["compare", str(tmp_path / "good.txt"), str(tmp_path / "bad.txt")]) == 3
        assert "is not ASCII text" in capsys.readouterr().err


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

    def test_eval_reproduces_from_its_effective_config(self, tmp_path):
        # --scenes once reached the report but not effective-config.json, so a
        # re-run from that file scored the config's 3 scenes, not 2
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        ckpt = str(tmp_path / "run" / "checkpoint.sfsl")
        assert main(["eval", "--config", cfg, "--ckpt", ckpt, "--scenes", "2", "--out", str(tmp_path / "a")]) == 0
        eff = str(tmp_path / "a" / "effective-config.json")
        assert main(["eval", "--config", eff, "--ckpt", ckpt, "--out", str(tmp_path / "b")]) == 0
        report = (tmp_path / "a" / "report.txt").read_text()
        assert "\nscenes 2\n" in report
        assert (tmp_path / "b" / "report.txt").read_text() == report

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


class TestSceneCache:
    def test_only_the_training_stream_caches(self, tmp_path, monkeypatch):
        # training cycles through n_train_scenes indices; eval and viz read
        # each scene once, so their streams keep none
        from slotvid.synthetic import SceneStream

        streams, scene = [], SceneStream.scene

        def recording(self, index):
            if not any(stream is self for stream in streams):
                streams.append(self)
            return scene(self, index)

        monkeypatch.setattr(SceneStream, "scene", recording)
        cfg = write_config(tmp_path)
        ckpt = str(tmp_path / "s1" / "checkpoint.sfsl")
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        both = write_config(tmp_path, name="both.json", stage={"branch": "both"})
        assert main(["eval", "--config", both, "--ckpt", ckpt]) == 0
        assert main(["viz", "--config", both, "--ckpt", ckpt, "--out", str(tmp_path / "viz")]) == 0
        seen = [(s.tag, s.views, len(s._cache),
                 {(name, view.shape) for entry in s._cache.values() for name, view in entry.views.items()})
                for s in streams]
        # 3 steps of 2 scenes visit all 6 training scenes; the stage-1 slow
        # stream keeps the 2 sampled frames of each, [2, 4 * 4, 8], and
        # nothing else
        assert seen == [("train", ("slow",), 6, {("slow", (2, 16, 8))}), ("heldout", (), 0, set()),
                        ("heldout", (), 0, set())]


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

    def test_out_from_the_config_alone(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        viz_cfg = write_config(tmp_path, name="viz.json", out=str(tmp_path / "viz"))
        assert main(["viz", "--config", viz_cfg, "--ckpt", str(tmp_path / "s1" / "checkpoint.sfsl")]) == 0
        assert (tmp_path / "viz" / "index.txt").read_text().splitlines()

    def test_negative_scene_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        capsys.readouterr()
        assert main(["viz", "--config", cfg, "--ckpt", str(tmp_path / "s1" / "checkpoint.sfsl"),
                     "--scene", "-1", "--out", str(tmp_path / "viz")]) == 2
        assert "--scene must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "viz").exists()

    def test_scene_past_the_heldout_scenes_exits_2(self, tmp_path, capsys):
        # eval scores scenes 0..n_heldout_scenes-1; viz renders no other
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        capsys.readouterr()
        assert main(["viz", "--config", cfg, "--ckpt", str(tmp_path / "s1" / "checkpoint.sfsl"),
                     "--scene", "3", "--out", str(tmp_path / "viz")]) == 2
        err = capsys.readouterr().err
        assert "--scene 3" in err and "3 held-out scenes" in err
        assert not (tmp_path / "viz").exists()

    def test_scene_beyond_64_bits_exits_3(self, tmp_path, capsys):
        # the index is one 64-bit word of the scene generator's key, checked
        # once it is within a held-out stream that long
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        cfg = write_config(tmp_path, name="long.json", data={"n_heldout_scenes": 2**65})
        capsys.readouterr()
        assert main(["viz", "--config", cfg, "--ckpt", str(tmp_path / "s1" / "checkpoint.sfsl"),
                     "--scene", str(2**64), "--out", str(tmp_path / "viz")]) == 3
        err = capsys.readouterr().err
        assert "outside [0, 2**64)" in err and "Traceback" not in err
        assert not (tmp_path / "viz").exists()

    def test_pooling_has_no_masks(self, tmp_path):
        cfg = write_config(tmp_path, connector={"type": "pooling"})
        main(["train-baseline", "--config", cfg, "--out", str(tmp_path / "p")])
        assert main(["viz", "--config", cfg, "--ckpt",
                     str(tmp_path / "p" / "checkpoint.sfsl"),
                     "--out", str(tmp_path / "v")]) == 3


def _files_digest(directory, names):
    lines = []
    for name in sorted(names):
        data = (directory / name).read_bytes()
        lines.append(f"{name} {hashlib.sha256(data).hexdigest()}\n")
    return hashlib.sha256("".join(lines).encode("ascii")).hexdigest()[:16]


def _train_outputs(root):
    """Run every trainer at the tiny config; digest of each run's checkpoint and log."""
    def run(name, command, **sections):
        cfg = write_config(root, name=f"{name}.json", **sections)
        assert main([command, "--config", cfg, "--out", str(root / name)]) == 0
        return str(root / name / "checkpoint.sfsl")

    s1 = {b: run(f"stage1-{b}", "pretrain", stage={"branch": b}) for b in ("slow", "fast")}
    s2 = {b: run(f"stage2-{b}", "tune", stage={"stage": 2, "branch": b, "schedule": "cosine",
                                              "init_checkpoint": s1[b]}) for b in ("slow", "fast")}
    run("stage3", "joint", stage={"stage": 3, "branch": "both", "schedule": "cosine", "head_lr": 1e-2,
                                  "init_slow_checkpoint": s2["slow"], "init_fast_checkpoint": s2["fast"]})
    run("qt-both", "train-baseline", connector={"type": "query_transformer"}, stage={"branch": "both"})
    run("pooling", "train-baseline", connector={"type": "pooling"})
    return {p.name: _files_digest(p, ["checkpoint.sfsl", "train-log.txt"])
            for p in root.iterdir() if p.is_dir()}


@pytest.fixture(scope="module")
def train_digests(tmp_path_factory):
    return _train_outputs(tmp_path_factory.mktemp("golden-train"))


class TestGoldenOutputs:
    # sha256 of the rendered masks (PGMs and index.txt) and of the eval report
    # at the tiny config, for a stage-1 slot checkpoint and a trained query
    # transformer, both read with both branches; mask plumbing changes must
    # leave every byte in place
    VIZ = {"slot": "32ec8204ae9411a6", "query_transformer": "b40aa9cca195fc00"}
    REPORT = {"slot": "f8316104703d3586", "query_transformer": "f3489a10c769a15c"}
    # sha256 of checkpoint.sfsl and train-log.txt for every trainer at the
    # tiny config; the step loop's bookkeeping must leave every byte in place.
    # The query-transformer digests (qt-both, its report) date from the
    # input-space cross-attention read, whose float32 summation order differs
    # from the keys-and-values form; its rendered masks kept every byte. The
    # slot-chain digests (stage1-*, stage2-*, stage3, the slot report) date
    # from the decoder's folded one-head read and the deletion of the slot
    # norm's bias, which Adam moved on rounding noise. Every training digest
    # and both reports were re-taken when layer norm, the bias adds and grid
    # pooling began to take their sums as GEMMs, and the attention
    # temperature moved into the folded query weights: float32 summation
    # order, while the rendered masks kept every byte. All but pooling and
    # both reports were re-taken again when the cross- and self-attention
    # blocks became single nodes, whose backwards sum in their own order;
    # the rendered masks and the pooling run kept every byte. The slot-chain
    # digests (stage1-*, stage2-*, stage3, the slot report) were re-taken when
    # slot attention became one node with the input norm and the value weights
    # folded in: float32 order, while the rendered masks kept every byte. Every
    # training digest but pooling, and both reports, were re-taken when the
    # sigmoid became 1 / (1 + exp(-k x)) without a sign branch (last-bit
    # values) and the decoder's cross-attention moved its weight products
    # onto the slots (float32 order); the rendered masks and the pooling run
    # kept every byte. Every training digest and both reports were re-taken
    # when the constant checkpoint entries meta.nonlinearity and
    # meta.decoder_kind were dropped and the deleted MLP keys left the config
    # hash; every other tensor, every log and every other report line kept
    # every byte. Both reports were re-taken when the unused data.align key
    # left the config hash; only their config_hash line changed. Every
    # training digest but pooling, and both reports, were re-taken when the
    # blocks stopped keeping their norm's output and the ramp's
    # pre-activation: a weight adjoint LN(x)^T G is taken as gain * (xhat^T G)
    # + bias x colsum(G), and the ramp's derivative is read from the
    # activation (float32 order and rounding of the adjoints). The query
    # transformer's first layer also normalizes its 2 learned queries once,
    # shared by every set, where it normalized their B-fold copy; OpenBLAS
    # rounds those row sums differently at 2 rows than at 2B. The rendered
    # masks and the pooling run kept every byte. The stage1-fast, stage2-fast
    # and stage3 digests were re-taken when stage 1 fast began to train the
    # frame embedding fast_pos and to reconstruct the raw pooled series, not
    # the series plus that embedding; stage 2 fast and stage 3 start from its
    # checkpoint. Every other digest kept every byte
    TRAIN = {"stage1-slow": "2c0e37fc849d29ce", "stage1-fast": "f670981a33b65020",
             "stage2-slow": "e4166312bc914d64", "stage2-fast": "acc5eca73b426e64",
             "stage3": "d925c2c570538edd", "qt-both": "4ebe3c679660b288",
             "pooling": "950949bcfd27bbc9"}

    @pytest.mark.parametrize("run", list(TRAIN))
    def test_training_bytes_unchanged(self, train_digests, run):
        assert train_digests[run] == self.TRAIN[run]

    @pytest.mark.parametrize("kind", ["slot", "query_transformer"])
    def test_viz_and_eval_bytes_unchanged(self, tmp_path, kind):
        if kind == "slot":
            cfg = write_config(tmp_path, name="train.json", stage={"branch": "slow"})
            assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        else:
            cfg = write_config(tmp_path, name="train.json", connector={"type": kind},
                               stage={"branch": "both"})
            assert main(["train-baseline", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        both = write_config(tmp_path, name="both.json", connector={"type": kind},
                            stage={"branch": "both"})
        ckpt = str(tmp_path / "run" / "checkpoint.sfsl")
        assert main(["viz", "--config", both, "--ckpt", ckpt, "--out", str(tmp_path / "viz")]) == 0
        assert main(["eval", "--config", both, "--ckpt", ckpt, "--out", str(tmp_path / "eval")]) == 0
        images = [p.name for p in (tmp_path / "viz").iterdir() if p.name != "effective-config.json"]
        assert "index.txt" in images
        assert _files_digest(tmp_path / "viz", images) == self.VIZ[kind]
        assert _files_digest(tmp_path / "eval", ["report.txt"]) == self.REPORT[kind]
