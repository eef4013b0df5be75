import hashlib
import json
import os

import numpy as np
import pytest

from slotvid.checkpoint import load_checkpoint, save_checkpoint
from slotvid.cli import main
from slotvid.metrics import DecouplingReport, parse_pgm

from test_checkpoint import MALFORMED, sealed


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
    ])
    def test_non_numeric_value_exits_2(self, tmp_path, capsys, section, key, value):
        # key None: the value replaces the whole top-level field
        cfg = write_config(tmp_path, **{section: value if key is None else {key: value}})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        where = section if key is None else f"{section}.{key}"
        assert f"{where} must be {self.MUST_BE.get(key, 'a number')}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("scenes", ["0", "-2"])
    def test_eval_without_scenes_exits_3(self, tmp_path, capsys, scenes):
        cfg = write_config(tmp_path, stage={"steps": 1})
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--ckpt", str(tmp_path / "a" / "checkpoint.sfsl"),
                     "--scenes", scenes]) == 3
        assert "at least one scene" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["seed abc", "probe_acc nan?", "probe_acc nan", "probe_acc inf"])
    def test_compare_non_numeric_report_exits_3(self, tmp_path, line):
        good = "connector slot\nseed 1\nconfig_hash abc\nn_tokens 12\nscenes 3\nprobe_acc 0.5\n"
        key = line.split()[0]
        bad = "".join(ln + "\n" for ln in good.splitlines() if ln.split()[0] != key) + line + "\n"
        (tmp_path / "good.txt").write_text(good)
        (tmp_path / "bad.txt").write_text(bad)
        assert main(["compare", str(tmp_path / "good.txt"), str(tmp_path / "good.txt")]) == 0
        assert main(["compare", str(tmp_path / "good.txt"), str(tmp_path / "bad.txt")]) == 3


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


    def test_negative_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data"), "--count", "-2"]) == 2
        assert "--count must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    def test_zero_count_writes_no_scenes(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data"), "--count", "0"]) == 0
        assert os.listdir(tmp_path / "data") == ["effective-config.json"]


class TestSceneCache:
    def test_only_the_training_stream_caches(self, tmp_path, monkeypatch):
        # training cycles through n_train_scenes indices; eval, viz and
        # gen-data read each scene once, so their streams keep none
        from slotvid import training

        streams, original = [], training.SceneStream

        def recording(**fields):
            streams.append(original(**fields))
            return streams[-1]

        monkeypatch.setattr(training, "SceneStream", recording)
        cfg = write_config(tmp_path)
        ckpt = str(tmp_path / "s1" / "checkpoint.sfsl")
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        both = write_config(tmp_path, name="both.json", stage={"branch": "both"})
        assert main(["eval", "--config", both, "--ckpt", ckpt]) == 0
        assert main(["viz", "--config", both, "--ckpt", ckpt, "--out", str(tmp_path / "viz")]) == 0
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path / "data"), "--count", "2"]) == 0
        seen = [(s.tag, s.cache_entries, len(s._cache), {n: b.shape for n, b in s._blocks.items()}) for s in streams]
        # 3 steps of 2 scenes visit all 6 training scenes; the stage-1 slow
        # stream keeps the 2 sampled frames of each, [6, 2, 4 * 4, 8], and
        # nothing else
        assert seen == [("train", 6, 6, {"slow": (6, 2, 16, 8)}), ("heldout", 0, 0, {}), ("heldout", 0, 0, {}),
                        ("train", 0, 0, {})]


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

    def test_negative_scene_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["pretrain", "--config", cfg, "--out", str(tmp_path / "s1")]) == 0
        capsys.readouterr()
        assert main(["viz", "--config", cfg, "--ckpt", str(tmp_path / "s1" / "checkpoint.sfsl"),
                     "--scene", "-1", "--out", str(tmp_path / "viz")]) == 2
        assert "--scene must be >= 0" in capsys.readouterr().err
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
    REPORT = {"slot": "d17b384f658173f9", "query_transformer": "7347cd809658c529"}
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
    # left the config hash; only their config_hash line changed
    TRAIN = {"stage1-slow": "bcaf10750e1e20ff", "stage1-fast": "53b9305be1fbefa1",
             "stage2-slow": "e48ee705d8454fa3", "stage2-fast": "8ae8b1c7d4e0c629",
             "stage3": "33eadbfe80f6d2a1", "qt-both": "5094812b88fe1916",
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
