"""Run configuration: one JSON document controlling connector, data and stage.

Unknown keys anywhere in the document are a hard error, so typos cannot
silently fall back to defaults. Every run writes the fully materialized
effective configuration next to its outputs; re-running from that file
reproduces the run bit-exactly (same seed, same thread cap).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, fields

from .connector import ConnectorConfig
from .synthetic import SceneRanges


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


CONNECTOR_KINDS = ("slot", "pooling", "query_transformer")
SCHEDULES = ("constant", "cosine")
BRANCHES = ("slow", "fast", "both")
NONLINEARITY_NAMES = ("gelu-like", "relu", "tanh")

# stage-dependent defaults (applied when the user leaves the field null):
# feature-reconstruction pretraining runs longer at a higher rate; the two
# tuning stages share the lower rate with cosine annealing
_STAGE_STEPS = {1: 2000, 2: 1000, 3: 1000}
_STAGE_LR = {1: 1e-4, 2: 2e-5, 3: 2e-5}
_STAGE_SCHEDULE = {1: "constant", 2: "cosine", 3: "cosine"}


def default_config_dict() -> dict:
    return {
        "connector": {
            "type": "slot",
            **{f.name: f.default for f in fields(ConnectorConfig)},
            "qt_layers": 2,
            "qt_heads": 4,
        },
        "data": {
            "n_train_scenes": 512,
            "n_heldout_scenes": 50,
            "k_objects": [2, 4],
            "k_events": [2, 4],
            "sigma": 0.05,
            "n_object_ids": 6,
            "extent": [3, 5],
            "align": 1,
        },
        "stage": {
            "stage": 1,
            "branch": "slow",
            "steps": None,
            "batch_size": 8,
            "lr_max": None,
            "lr_min": 0.0,
            "head_lr": None,
            "schedule": None,
            "log_every": 50,
            "frames_per_scene": 2,
            "positions_per_scene": 4,
            "grad_clip": 1.0,
            "init_checkpoint": None,
            "init_slow_checkpoint": None,
            "init_fast_checkpoint": None,
        },
        "out": None,
        "seed": 0,
    }


@dataclass(frozen=True)
class DataConfig:
    n_train_scenes: int
    n_heldout_scenes: int
    ranges: SceneRanges


@dataclass(frozen=True)
class StageConfig:
    stage: int
    branch: str
    steps: int
    batch_size: int
    lr_max: float
    lr_min: float
    head_lr: float | None
    schedule: str
    log_every: int
    frames_per_scene: int
    positions_per_scene: int
    grad_clip: float
    init_checkpoint: str | None
    init_slow_checkpoint: str | None
    init_fast_checkpoint: str | None


@dataclass(frozen=True)
class RunConfig:
    connector_kind: str
    connector: ConnectorConfig
    qt_layers: int
    qt_heads: int
    data: DataConfig
    stage: StageConfig
    out: str | None
    seed: int
    effective: dict


def _merge(defaults: dict, user: dict, path: str = "") -> dict:
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _number(section: dict, where: str, key: str) -> float:
    """``float`` of a config value, as a ConfigError when it is not a number."""
    try:
        return float(section[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{where}.{key} must be a number, got {section[key]!r}") from None


def from_dict(user: dict) -> RunConfig:
    """Validate a raw config dict and materialize every default."""
    if not isinstance(user, dict):
        raise ConfigError("config root must be an object")
    merged = _merge(default_config_dict(), user)

    conn = merged["connector"]
    _require(conn["type"] in CONNECTOR_KINDS, f"connector.type must be one of {CONNECTOR_KINDS}")
    _require(conn["nonlinearity"] in NONLINEARITY_NAMES,
             f"connector.nonlinearity must be one of {NONLINEARITY_NAMES}")
    if conn["mlp_hidden"] is None:
        conn["mlp_hidden"] = 2 * int(conn["slot_dim"])
    # every connector field but the nonlinearity name is a positive integer
    int_keys = [f.name for f in fields(ConnectorConfig) if f.name != "nonlinearity"]
    for key in int_keys + ["qt_layers", "qt_heads"]:
        _require(isinstance(conn[key], int) and conn[key] > 0, f"connector.{key} must be a positive integer")
    _require(conn["slot_dim"] % conn["qt_heads"] == 0,
             "connector.slot_dim must be divisible by connector.qt_heads")

    stage = merged["stage"]
    _require(stage["stage"] in (1, 2, 3), "stage.stage must be 1, 2 or 3")
    _require(stage["branch"] in BRANCHES, f"stage.branch must be one of {BRANCHES}")
    if stage["steps"] is None:
        stage["steps"] = _STAGE_STEPS[stage["stage"]]
    if stage["lr_max"] is None:
        stage["lr_max"] = _STAGE_LR[stage["stage"]]
    if stage["schedule"] is None:
        stage["schedule"] = _STAGE_SCHEDULE[stage["stage"]]
    _require(stage["schedule"] in SCHEDULES, f"stage.schedule must be one of {SCHEDULES}")
    _require(isinstance(stage["steps"], int) and stage["steps"] >= 0, "stage.steps must be >= 0")
    for key in ("batch_size", "log_every", "frames_per_scene", "positions_per_scene"):
        _require(isinstance(stage[key], int) and stage[key] > 0, f"stage.{key} must be a positive integer")
    lr_max, lr_min, grad_clip = (_number(stage, "stage", key) for key in ("lr_max", "lr_min", "grad_clip"))
    head_lr = None if stage["head_lr"] is None else _number(stage, "stage", "head_lr")
    _require(lr_max >= 0.0 and lr_min >= 0.0, "learning rates must be >= 0")
    _require(head_lr is None or head_lr >= 0.0, "stage.head_lr must be >= 0")
    _require(grad_clip > 0.0, "stage.grad_clip must be > 0")

    data = merged["data"]
    for key in ("n_train_scenes", "n_heldout_scenes", "n_object_ids", "align"):
        _require(isinstance(data[key], int) and data[key] > 0, f"data.{key} must be a positive integer")
    for key in ("k_objects", "k_events", "extent"):
        val = data[key]
        _require(isinstance(val, (list, tuple)) and len(val) == 2, f"data.{key} must be a [lo, hi] pair")
    sigma = _number(data, "data", "sigma")
    _require(sigma >= 0.0, "data.sigma must be >= 0")

    _require(isinstance(merged["seed"], int), "seed must be an integer")
    _require(merged["out"] is None or isinstance(merged["out"], str), "out must be a string path")

    connector_cfg = ConnectorConfig(**{f.name: conn[f.name] for f in fields(ConnectorConfig)})
    try:
        connector_cfg.validate()
        ranges = SceneRanges(
            k_objects=tuple(data["k_objects"]),
            k_events=tuple(data["k_events"]),
            sigma=sigma,
            n_object_ids=int(data["n_object_ids"]),
            extent=tuple(data["extent"]),
            align=int(data["align"]),
        )
        ranges.validate()
    except Exception as exc:
        raise ConfigError(str(exc)) from exc

    stage_cfg = StageConfig(
        stage=stage["stage"],
        branch=stage["branch"],
        steps=int(stage["steps"]),
        batch_size=int(stage["batch_size"]),
        lr_max=lr_max,
        lr_min=lr_min,
        head_lr=head_lr,
        schedule=stage["schedule"],
        log_every=int(stage["log_every"]),
        frames_per_scene=min(int(stage["frames_per_scene"]), connector_cfg.slow_frames),
        positions_per_scene=min(int(stage["positions_per_scene"]), connector_cfg.n_positions),
        grad_clip=grad_clip,
        init_checkpoint=stage["init_checkpoint"],
        init_slow_checkpoint=stage["init_slow_checkpoint"],
        init_fast_checkpoint=stage["init_fast_checkpoint"],
    )
    merged["stage"]["frames_per_scene"] = stage_cfg.frames_per_scene
    merged["stage"]["positions_per_scene"] = stage_cfg.positions_per_scene

    return RunConfig(
        connector_kind=conn["type"],
        connector=connector_cfg,
        qt_layers=conn["qt_layers"],
        qt_heads=conn["qt_heads"],
        data=DataConfig(
            n_train_scenes=data["n_train_scenes"],
            n_heldout_scenes=data["n_heldout_scenes"],
            ranges=ranges,
        ),
        stage=stage_cfg,
        out=merged["out"],
        seed=merged["seed"],
        effective=merged,
    )


def load_config(path: str | None, seed: int | None = None, out: str | None = None) -> RunConfig:
    """Read a config file (or use defaults) with optional CLI overrides."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if seed is not None:
        raw = {**raw, "seed": seed}
    if out is not None:
        raw = {**raw, "out": out}
    return from_dict(raw)


def config_hash(rc: RunConfig) -> str:
    """Digest of the effective configuration, excluding seed and output path."""
    doc = copy.deepcopy(rc.effective)
    doc.pop("seed", None)
    doc.pop("out", None)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def write_effective_config(rc: RunConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effective-config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rc.effective, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
