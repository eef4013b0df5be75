import hashlib
import json
from pathlib import Path

import pytest

from slotvid.config import (
    ConfigError,
    config_hash,
    default_config_dict,
    from_dict,
    load_config,
    write_effective_config,
)
from slotvid.connector import ConnectorConfig


class TestValidation:
    def test_defaults_load(self):
        rc = from_dict({})
        assert rc.connector.n_tokens == 192
        assert rc.stage.steps == 2000
        assert rc.stage.lr_max == 1e-4
        assert rc.stage.schedule == "constant"

    def test_stage_dependent_defaults(self):
        rc = from_dict({"stage": {"stage": 2, "branch": "fast", "init_checkpoint": "x.sfsl"}})
        assert rc.stage.steps == 1000
        assert rc.stage.lr_max == 2e-5
        assert rc.stage.schedule == "cosine"

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config key: outputs"):
            from_dict({"outputs": "runs"})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="connector.slots"):
            from_dict({"connector": {"slots": 8}})

    def test_bad_connector_type(self):
        with pytest.raises(ConfigError):
            from_dict({"connector": {"type": "transformer"}})

    @pytest.mark.parametrize("key, value", [("nonlinearity", "gelu-like"), ("mlp_hidden", 64)])
    def test_deleted_mlp_keys_are_unknown(self, key, value):
        # the MLP has one form, with hidden width 2 * slot_dim, and no key to set either
        with pytest.raises(ConfigError, match=f"unknown config key: connector.{key}"):
            from_dict({"connector": {key: value}})

    @pytest.mark.parametrize("value", [["relu"], {"relu": 1}])
    def test_unhashable_nonlinearity_is_a_config_error(self, value):
        # the deleted key is refused by name, whatever its value, never with a TypeError
        with pytest.raises(ConfigError, match="unknown config key: connector.nonlinearity"):
            from_dict({"connector": {"nonlinearity": value}})

    def test_deleted_align_key_is_unknown(self):
        # object anchors are drawn from every cell that fits; no lattice to set
        with pytest.raises(ConfigError, match="unknown config key: data.align"):
            from_dict({"data": {"align": 1}})

    def test_query_transformer_shape_is_a_connector_field(self):
        # qt_layers and qt_heads are declared once, with their defaults, in
        # ConnectorConfig; the default config and its hash are those of the
        # field set (the hash moved only when data.align was deleted)
        rc = from_dict({"connector": {"qt_layers": 1, "qt_heads": 2}})
        assert (rc.connector.qt_layers, rc.connector.qt_heads) == (1, 2)
        assert {k: default_config_dict()["connector"][k] for k in ("qt_layers", "qt_heads")} == {
            "qt_layers": 2, "qt_heads": 4}
        assert config_hash(from_dict({})) == "99aae8bca17f"
        # the run config checks the heads against the slot width; a slot-only
        # ConnectorConfig whose width the default heads do not divide still builds
        with pytest.raises(ConfigError, match="divisible by connector.qt_heads"):
            from_dict({"connector": {"slot_dim": 6}})
        assert ConnectorConfig(slot_dim=6).slot_dim == 6

    def test_bad_stride(self):
        with pytest.raises(ConfigError):
            from_dict({"connector": {"pool_stride": 5}})

    def test_bad_stage(self):
        with pytest.raises(ConfigError):
            from_dict({"stage": {"stage": 4}})

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
    def test_seed_outside_64_bits(self, seed):
        # the generators take a seed as one 64-bit word: -1 would draw what
        # 2**64 - 1 draws, and 2**70 what 0 draws
        with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            from_dict({"seed": seed})

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_bounds_accepted(self, seed):
        assert from_dict({"seed": seed}).seed == seed

    def test_more_events_than_frames(self):
        # each event after the first is a cut between two of the clip's frames
        with pytest.raises(ConfigError, match=r"data.k_events .*connector.frames \(3\)"):
            from_dict({"connector": {"frames": 3, "slow_frames": 2}, "data": {"k_events": [4, 5]}})
        rc = from_dict({"connector": {"frames": 4, "slow_frames": 2}, "data": {"k_events": [4, 5]}})
        assert rc.data.ranges.k_events == (4, 5)

    def test_every_default_materialized(self):
        rc = from_dict({})
        def no_nulls(node, path=""):
            if isinstance(node, dict):
                for k, v in node.items():
                    if k in ("init_checkpoint", "init_slow_checkpoint", "init_fast_checkpoint",
                             "out", "head_lr"):
                        continue
                    no_nulls(v, f"{path}.{k}")
            else:
                assert node is not None, path
        no_nulls(rc.effective)


class TestLoadAndHash:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 5, "data": {"n_train_scenes": 7}}))
        rc = load_config(str(path), {"seed": 9, "out": "runs/x", "data": {"n_heldout_scenes": 2}})
        assert rc.seed == 9
        assert rc.out == "runs/x"
        # an override merges into its section, keeping the file's other values
        assert (rc.data.n_train_scenes, rc.data.n_heldout_scenes) == (7, 2)
        with pytest.raises(ConfigError, match="data.n_heldout"):
            load_config(str(path), {"data": {"n_heldout": 2}})

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "missing.json"))

    def test_hash_ignores_seed_and_out(self):
        a = from_dict({"seed": 1, "out": "runs/a"})
        b = from_dict({"seed": 2, "out": "runs/b"})
        c = from_dict({"seed": 1, "connector": {"slot_dim": 32}})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_effective_config_round_trip(self, tmp_path):
        rc = from_dict({"connector": {"frames": 16}, "seed": 4})
        path = write_effective_config(rc, str(tmp_path))
        again = load_config(path)
        assert again.effective == rc.effective
        assert config_hash(again) == config_hash(rc)

    def test_default_dict_is_self_consistent(self):
        rc = from_dict(default_config_dict())
        assert rc.connector_kind == "slot"


# each config's effective-config.json sha256 and config_hash, taken before
# the config fields declared their own rules; the declarations must give
# every existing config the same document and the same identity, byte for byte
IDENTITY = {
    "defaults": ({}, "135d10f63745f5bce275032beda9d892e670f0b00f791ad12399110dba01ffa1", "99aae8bca17f"),
    "stage-1": ({"stage": {"stage": 1}},
                "135d10f63745f5bce275032beda9d892e670f0b00f791ad12399110dba01ffa1", "99aae8bca17f"),
    "stage-2": ({"stage": {"stage": 2, "branch": "fast", "init_checkpoint": "s1.sfsl"}},
                "dbc27bea50c9258aa4933370720cdbbd5f7aa976b75d8fee16bb444b38a0f67a", "a2c49f8060ef"),
    "stage-3": ({"stage": {"stage": 3, "branch": "both"}},
                "15e0d22eac43acb9dda439cad410bae43cfbc55aae469de370a9e0316740ed44", "7cf95e233695"),
    "slot": ({"connector": {"type": "slot"}},
             "135d10f63745f5bce275032beda9d892e670f0b00f791ad12399110dba01ffa1", "99aae8bca17f"),
    "pooling": ({"connector": {"type": "pooling"}},
                "75d4c4f013fdd0c563446cbd86d5fd8d98a8aec12f6f544123f2626910f0598b", "6442e9819288"),
    "query_transformer": ({"connector": {"type": "query_transformer"}},
                          "4505eb6bc02b385c1ade16e674997521c43023696e4167fb2e5c31cef44b88c9", "6533fc8c06b3"),
    # an integer where a float is declared is the float in the document: the
    # document of {"lr_max": 1.0, "sigma": 0.0}, whose row this is
    "int-for-float": ({"stage": {"lr_max": 1}, "data": {"sigma": 0}},
                      "aea368d93486a988c17d1925ebfeb621d3e6e600f2fcc464b1e4e8c7819bdfb6", "3fd28d2be9c0"),
    "head-lr": ({"stage": {"head_lr": 0.003}},
                "ddce5db530257650ad87b76a6c1f6a9eb25d5bc535d97688dd3c3763340a49e3", "07868babf00e"),
    "init-paths": ({"stage": {"stage": 3, "branch": "both", "init_checkpoint": "j.sfsl",
                              "init_slow_checkpoint": "s.sfsl", "init_fast_checkpoint": "f.sfsl"}},
                   "293365c51254f1213bdfa45bb6fb909985fc0dc9afca569c2b45e44faf45f8fe", "712a9f4d61b5"),
    "pairs": ({"data": {"k_objects": [1, 6], "k_events": [1, 1], "extent": [2, 7]}},
              "c866787e954351c14cb41a4575800b5b16f890c9be5baf483f48692d1dd495c5", "03dfcb15f084"),
    # seed and out enter the document but not the hash; the per-scene counts clamp
    "seed-out-clamps": ({"seed": 7, "out": "runs/x",
                         "connector": {"frames": 4, "slow_frames": 1, "grid_h": 8, "grid_w": 8},
                         "stage": {"frames_per_scene": 5, "positions_per_scene": 9}},
                        "4435f683d5f5384834d50b532ff46e6d88720c521dfd6cb3a6695ebdfe5829b5", "059c6bb2db3e"),
}


class TestConfigIdentity:
    @pytest.mark.parametrize("name", sorted(IDENTITY))
    def test_effective_config_and_hash_unchanged(self, tmp_path, name):
        doc, digest, short = IDENTITY[name]
        rc = from_dict(doc)
        with open(write_effective_config(rc, str(tmp_path)), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
        assert config_hash(rc) == short

    def test_spelling_of_a_number_leaves_the_identity(self, tmp_path):
        # equal configs are one config: 1 and 1.0 give one document and one hash
        docs = [{"stage": {"lr_max": 1, "grad_clip": 2}, "data": {"sigma": 0}},
                {"stage": {"lr_max": 1.0, "grad_clip": 2.0}, "data": {"sigma": 0.0}}]
        configs = [from_dict(doc) for doc in docs]
        assert configs[0] == configs[1]
        files = [Path(write_effective_config(rc, str(tmp_path / str(i)))).read_bytes() for i, rc in enumerate(configs)]
        assert files[0] == files[1] and configs[0].effective == configs[1].effective
        assert config_hash(configs[0]) == config_hash(configs[1])
