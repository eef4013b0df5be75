"""Run configuration: one JSON document controlling connector, data and stage.

Unknown keys anywhere in the document are a hard error, so typos cannot
silently fall back to defaults. Every run writes the fully materialized
effective configuration next to its outputs; re-running from that file
reproduces the run bit-exactly (same seed, same thread cap).

Each field is declared once, with its default, in the dataclass that carries
it (``ConnectorConfig``, ``DataConfig`` with ``SceneRanges``, ``StageConfig``);
the defaults document is derived from those, and the dataclasses are built
back from the validated document.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np

from .connector import ConnectorConfig
from .synthetic import SceneRanges


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


CONNECTOR_KINDS = ("slot", "pooling", "query_transformer")
SCHEDULES = ("constant", "cosine")
BRANCHES = ("slow", "fast", "both")

# stage-dependent defaults (applied when the user leaves the field null):
# feature-reconstruction pretraining runs longer at a higher rate; the two
# tuning stages share the lower rate with cosine annealing
_STAGE_STEPS = {1: 2000, 2: 1000, 3: 1000}
_STAGE_LR = {1: 1e-4, 2: 2e-5, 3: 2e-5}
_STAGE_SCHEDULE = {1: "constant", 2: "cosine", 3: "cosine"}


@dataclass(frozen=True)
class StageConfig:
    """The stage section; a null ``steps``, ``lr_max`` or ``schedule`` takes the stage's default."""

    stage: int = 1
    branch: str = "slow"
    steps: int | None = None
    batch_size: int = 8
    lr_max: float | None = None
    lr_min: float = 0.0
    head_lr: float | None = None
    schedule: str | None = None
    log_every: int = 50
    frames_per_scene: int = 2
    positions_per_scene: int = 4
    grad_clip: float = 1.0
    init_checkpoint: str | None = None
    init_slow_checkpoint: str | None = None
    init_fast_checkpoint: str | None = None


@dataclass(frozen=True)
class DataConfig:
    """The data section: the scene counts here, the sampling ranges in ``SceneRanges``."""

    n_train_scenes: int = 512
    n_heldout_scenes: int = 50
    ranges: SceneRanges = SceneRanges()


@dataclass(frozen=True)
class RunConfig:
    connector_kind: str
    connector: ConnectorConfig
    data: DataConfig
    stage: StageConfig
    out: str | None
    seed: int
    effective: dict


def _defaults(cls, skip: tuple = ()) -> dict:
    """The field defaults of a config dataclass as JSON values (tuples become lists)."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


def default_config_dict() -> dict:
    return {
        "connector": {"type": "slot", **_defaults(ConnectorConfig)},
        "data": {**_defaults(DataConfig, skip=("ranges",)), **_defaults(SceneRanges)},
        "stage": _defaults(StageConfig),
        "out": None,
        "seed": 0,
    }


def _merge(defaults: dict, user, path: str = "") -> dict:
    """``user`` merged over ``defaults``, object by object; a key that ``defaults`` lacks is a ConfigError."""
    if not isinstance(user, dict):
        raise ConfigError(f"{path or 'config root'} must be an object")
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        out[key] = _merge(defaults[key], value, where) if isinstance(defaults[key], dict) else copy.deepcopy(value)
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_ints(section: dict, where: str, keys) -> None:
    for key in keys:
        _require(_is_int(section[key]) and section[key] > 0,
                 f"{where}.{key} must be a positive integer, got {section[key]!r}")


def _number(section: dict, where: str, key: str) -> float:
    """``float`` of a config value, as a ConfigError when it is not a finite number.

    JSON reads ``NaN`` and ``Infinity``, and ``1e400`` as inf; none of them
    would survive the effective config, which must be valid JSON again. The
    run computes in float32, so a value whose float32 cast overflows, such as
    ``1e39``, is refused too.
    """
    value = section[key]
    _require(isinstance(value, numbers.Real) and not isinstance(value, bool),
             f"{where}.{key} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    with np.errstate(over="ignore"):
        finite = bool(np.isfinite(np.float32(number)))
    _require(finite, f"{where}.{key} must be a finite number, got {value!r}")
    return number


def _build(cls, section: dict, **typed):
    """``cls`` from the section's values of its fields, ``typed`` taking precedence."""
    return cls(**{f.name: typed[f.name] if f.name in typed else section[f.name] for f in fields(cls)})


def from_dict(user: dict) -> RunConfig:
    """Validate a raw config dict and materialize every default."""
    merged = _merge(default_config_dict(), user)

    conn = merged["connector"]
    _require(conn["type"] in CONNECTOR_KINDS, f"connector.type must be one of {CONNECTOR_KINDS}")
    _positive_ints(conn, "connector", [f.name for f in fields(ConnectorConfig)])
    _require(conn["slot_dim"] % conn["qt_heads"] == 0,
             "connector.slot_dim must be divisible by connector.qt_heads")

    stage = merged["stage"]
    _require(_is_int(stage["stage"]) and stage["stage"] in (1, 2, 3), "stage.stage must be 1, 2 or 3")
    _require(stage["branch"] in BRANCHES, f"stage.branch must be one of {BRANCHES}")
    if stage["steps"] is None:
        stage["steps"] = _STAGE_STEPS[stage["stage"]]
    if stage["lr_max"] is None:
        stage["lr_max"] = _STAGE_LR[stage["stage"]]
    if stage["schedule"] is None:
        stage["schedule"] = _STAGE_SCHEDULE[stage["stage"]]
    _require(stage["schedule"] in SCHEDULES, f"stage.schedule must be one of {SCHEDULES}")
    _require(_is_int(stage["steps"]) and stage["steps"] >= 0, "stage.steps must be an integer >= 0")
    _positive_ints(stage, "stage", ("batch_size", "log_every", "frames_per_scene", "positions_per_scene"))
    floats = {key: _number(stage, "stage", key) for key in ("lr_max", "lr_min", "grad_clip")}
    floats["head_lr"] = None if stage["head_lr"] is None else _number(stage, "stage", "head_lr")
    _require(floats["lr_max"] >= 0.0 and floats["lr_min"] >= 0.0, "learning rates must be >= 0")
    _require(floats["head_lr"] is None or floats["head_lr"] >= 0.0, "stage.head_lr must be >= 0")
    _require(floats["grad_clip"] > 0.0, "stage.grad_clip must be > 0")
    for key in ("init_checkpoint", "init_slow_checkpoint", "init_fast_checkpoint"):
        _require(stage[key] is None or isinstance(stage[key], str),
                 f"stage.{key} must be a string path or null, got {stage[key]!r}")

    data = merged["data"]
    _positive_ints(data, "data", ("n_train_scenes", "n_heldout_scenes", "n_object_ids"))
    pairs = {}
    for key in ("k_objects", "k_events", "extent"):
        val = data[key]
        _require(isinstance(val, (list, tuple)) and len(val) == 2 and all(_is_int(v) for v in val),
                 f"data.{key} must be a [lo, hi] pair of integers, got {val!r}")
        pairs[key] = tuple(val)
    sigma = _number(data, "data", "sigma")
    _require(sigma >= 0.0, "data.sigma must be >= 0")

    _require(_is_int(merged["seed"]) and 0 <= merged["seed"] < 2**64,
             f"seed must be an integer in [0, 2**64), got {merged['seed']!r}")
    _require(merged["out"] is None or isinstance(merged["out"], str), "out must be a string path")

    connector_cfg = _build(ConnectorConfig, conn)
    ranges = _build(SceneRanges, data, sigma=sigma, **pairs)
    try:
        connector_cfg.validate()
        ranges.validate()
    except Exception as exc:
        raise ConfigError(str(exc)) from exc
    _require(ranges.k_events[0] <= connector_cfg.frames, f"data.k_events starts at {ranges.k_events[0]}"
             f" events, more than connector.frames ({connector_cfg.frames}) can hold")
    stage["frames_per_scene"] = min(stage["frames_per_scene"], connector_cfg.slow_frames)
    stage["positions_per_scene"] = min(stage["positions_per_scene"], connector_cfg.n_positions)

    return RunConfig(
        connector_kind=conn["type"],
        connector=connector_cfg,
        data=_build(DataConfig, data, ranges=ranges),
        stage=_build(StageConfig, stage, **floats),
        out=merged["out"],
        seed=merged["seed"],
        effective=merged,
    )


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a config file (or use defaults) with ``overrides``, a partial config
    document such as the CLI's flags, merged over it."""
    raw: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, over-long integers, deep nesting
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return from_dict(_merge(_merge(default_config_dict(), raw), overrides or {}))


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
