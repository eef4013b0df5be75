"""Run configuration: one JSON document controlling connector, data and stage.

Unknown keys anywhere in the document are a hard error, so typos cannot
silently fall back to defaults. Every run writes the fully materialized
effective configuration next to its outputs; re-running from that file
reproduces the run bit-exactly (same seed, same thread cap).

Each field is declared once, by ``_field``, in the dataclass that carries it:
``ConnectorConfig`` (the ``connector`` section), ``DataConfig`` with its
``SceneRanges`` (``data``), ``StageConfig`` (``stage``) and ``RunConfig``
(``seed`` and ``out``). The declaration gives the field's default, its kind
and range, its per-stage default where it has one, and whether it enters
``config_hash``; the defaults document, every per-field check and the hash
read it. Each dataclass checks its fields when it is built, so a config
object that exists is valid and nothing downstream checks it again. Only the
rules between fields are written by hand: those within one class in its
``__post_init__``, those across sections in ``from_dict``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np


class ConfigError(Exception):
    """Malformed or inconsistent run configuration."""


def _field(default, kind, ge=None, gt=None, bits=None, by_stage=None, hashed=True):
    """A config field with its one declaration.

    ``kind`` is ``int``, ``float``, ``str`` (a file path), ``tuple`` (a
    ``[lo, hi]`` pair of integers, ``ge <= lo <= hi``) or the tuple of values
    a choice allows. A number is ``>= ge`` or ``> gt``, and an integer of
    ``bits`` is below 2**bits. A field whose default is None may be null,
    except that a null field with ``by_stage`` takes its default for stage 1,
    2 or 3. ``hashed=False`` leaves the field out of ``config_hash``.
    """
    rule = dict(kind=kind, ge=ge, gt=gt, bits=bits, by_stage=by_stage, hashed=hashed)
    return dataclasses.field(default=default, metadata=rule)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _value(where: str, rule, value):
    """``value`` as a field declared by ``rule`` holds it, or a ConfigError naming the field ``where``.

    A float field holds a float and a pair a tuple. JSON reads ``NaN`` and
    ``Infinity``, and ``1e400`` as inf; none of them would survive the
    effective config, which must be valid JSON again. The run computes in
    float32, so a number whose float32 cast overflows, such as ``1e39``, is
    refused too.
    """

    def refuse(says: str):
        raise ConfigError(f"{where} must be {says}, got {value!r}")

    kind, ge, gt, bits = rule["kind"], rule["ge"], rule["gt"], rule["bits"]
    if isinstance(kind, tuple):  # a choice, of its own type: True is not stage 1
        if not any(type(value) is type(choice) and value == choice for choice in kind):
            refuse(", ".join(map(repr, kind[:-1])) + f" or {kind[-1]!r}")
    elif kind is str:
        if not isinstance(value, str):
            refuse("a string path or null")
    elif kind is tuple:
        if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_int, value))
                and ge <= value[0] <= value[1]):
            refuse(f"a [lo, hi] pair of integers with {ge} <= lo <= hi")
        return tuple(value)
    elif kind is int:
        if not (_is_int(value) and value >= ge and (bits is None or value < 2**bits)):
            refuse(f"an integer in [{ge}, 2**{bits})" if bits else "a positive integer" if ge == 1
                   else f"an integer >= {ge}")
    else:
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            refuse("a number")
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        with np.errstate(over="ignore"):
            if not np.isfinite(np.float32(number)):
                refuse("a finite number")
        if not (number > gt if gt is not None else number >= ge):
            refuse(f"> {gt:g}" if gt is not None else f">= {ge:g}")
        return number
    return value


def _check(cfg) -> None:
    """Check each declared field of the config dataclass ``cfg``, storing it as ``_value`` returns it."""
    for f in fields(cfg):
        if "kind" not in f.metadata:  # a nested config
            continue
        value = getattr(cfg, f.name)
        if value is None and f.metadata["by_stage"]:
            value = f.metadata["by_stage"][cfg.stage - 1]  # StageConfig declares and checks its stage first
        if value is not None or f.default is not None:
            value = _value(cfg.section + f.name, f.metadata, value)
        object.__setattr__(cfg, f.name, value)


@dataclass(frozen=True)
class ConnectorConfig:
    """The connector section: the connector's kind and its shape and capacity parameters."""

    section = "connector."

    type: str = _field("slot", ("slot", "pooling", "query_transformer"))
    frames: int = _field(32, int, ge=1)  # nominal clip length at 1 fps
    grid_h: int = _field(16, int, ge=1)
    grid_w: int = _field(16, int, ge=1)
    feat_dim: int = _field(32, int, ge=1)
    slow_frames: int = _field(8, int, ge=1)
    pool_stride: int = _field(4, int, ge=1)
    slots_per_frame: int = _field(8, int, ge=1)
    slots_per_position: int = _field(8, int, ge=1)
    slot_dim: int = _field(64, int, ge=1)
    out_dim: int = _field(64, int, ge=1)
    max_frames: int = _field(256, int, ge=1)
    iters_slow: int = _field(3, int, ge=1)
    iters_fast: int = _field(3, int, ge=1)
    qt_layers: int = _field(2, int, ge=1)  # query-transformer comparator: layers and heads per branch
    qt_heads: int = _field(4, int, ge=1)

    def __post_init__(self):
        _check(self)
        if self.grid_h % self.pool_stride or self.grid_w % self.pool_stride:
            raise ConfigError(f"connector.pool_stride {self.pool_stride} does not divide the "
                              f"connector.grid_h x grid_w grid {self.grid_h}x{self.grid_w}")
        if not self.slow_frames <= self.frames <= self.max_frames:
            raise ConfigError(f"need connector.slow_frames <= frames <= max_frames, got "
                              f"{self.slow_frames}/{self.frames}/{self.max_frames}")

    @property
    def n_positions(self) -> int:
        return (self.grid_h // self.pool_stride) * (self.grid_w // self.pool_stride)

    @property
    def n_slow_tokens(self) -> int:
        return self.slow_frames * self.slots_per_frame

    @property
    def n_fast_tokens(self) -> int:
        return self.n_positions * self.slots_per_position

    @property
    def n_tokens(self) -> int:
        return self.n_slow_tokens + self.n_fast_tokens


@dataclass(frozen=True)
class SceneRanges:
    """Sampling ranges for scene generation, fields of the data section."""

    section = "data."

    k_objects: tuple = _field((2, 4), tuple, ge=1)
    k_events: tuple = _field((2, 4), tuple, ge=1)
    sigma: float = _field(0.05, float, ge=0.0)
    n_object_ids: int = _field(6, int, ge=1)
    extent: tuple = _field((3, 5), tuple, ge=1)  # object side lengths, clipped to the grid

    def __post_init__(self):
        _check(self)
        if self.k_objects[1] > self.n_object_ids:  # a scene's objects have distinct ids
            raise ConfigError(f"data.k_objects ends at {self.k_objects[1]} objects, more than "
                              f"data.n_object_ids ({self.n_object_ids}) can tell apart")


@dataclass(frozen=True)
class DataConfig:
    """The data section: the scene counts here, the sampling ranges in ``SceneRanges``."""

    section = "data."

    n_train_scenes: int = _field(512, int, ge=1)
    n_heldout_scenes: int = _field(50, int, ge=1)
    ranges: SceneRanges = SceneRanges()

    __post_init__ = _check


@dataclass(frozen=True)
class StageConfig:
    """The stage section. A null ``steps``, ``lr_max`` or ``schedule`` takes its
    stage's default: feature-reconstruction pretraining runs longer at a
    higher rate; the two tuning stages share the lower rate with cosine
    annealing."""

    section = "stage."

    stage: int = _field(1, (1, 2, 3))
    branch: str = _field("slow", ("slow", "fast", "both"))
    steps: int | None = _field(None, int, ge=0, by_stage=(2000, 1000, 1000))
    batch_size: int = _field(8, int, ge=1)
    lr_max: float | None = _field(None, float, ge=0.0, by_stage=(1e-4, 2e-5, 2e-5))
    lr_min: float = _field(0.0, float, ge=0.0)
    head_lr: float | None = _field(None, float, ge=0.0)
    schedule: str | None = _field(None, ("constant", "cosine"), by_stage=("constant", "cosine", "cosine"))
    log_every: int = _field(50, int, ge=1)
    frames_per_scene: int = _field(2, int, ge=1)
    positions_per_scene: int = _field(4, int, ge=1)
    grad_clip: float = _field(1.0, float, gt=0.0)
    # a path reaches open(): an integer would be a file descriptor, 0 standard input
    init_checkpoint: str | None = _field(None, str)
    init_slow_checkpoint: str | None = _field(None, str)
    init_fast_checkpoint: str | None = _field(None, str)

    __post_init__ = _check


@dataclass(frozen=True)
class RunConfig:
    """A checked run: its three sections, and the output directory and seed,
    which do not change what the run computes."""

    section = ""

    connector: ConnectorConfig
    data: DataConfig
    stage: StageConfig
    out: str | None = _field(None, str, hashed=False)
    # the generators take a seed as one 64-bit word: -1 would draw what 2**64 - 1 draws
    seed: int = _field(0, int, ge=0, bits=64, hashed=False)

    __post_init__ = _check

    @property
    def effective(self) -> dict:
        """The effective document, read off the checked fields: equal configs have one document and one hash."""
        return _document(self)


# the document's sections, by name
_SECTIONS = {"connector": ConnectorConfig, "data": DataConfig, "stage": StageConfig}


def _declared(cls) -> list:
    """The declared fields of config class ``cls`` in its document order, a nested config's in its place."""
    return [g for f in fields(cls) if f.default is not dataclasses.MISSING
            for g in ([f] if "kind" in f.metadata else _declared(type(f.default)))]


def _document(cfg, hashed: bool = False) -> dict:
    """The document of config object ``cfg``: its declared fields by name (a pair as a list), a section
    under its name and a nested config's fields in its place; with ``hashed``, those that enter ``config_hash``."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if "kind" not in f.metadata:
            nested = _document(value, hashed)
            out.update({f.name: nested} if f.default is dataclasses.MISSING else nested)
        elif f.metadata["hashed"] or not hashed:
            out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def default_config_dict() -> dict:
    """The defaults document: each section's field defaults (tuples become lists), then ``out`` and ``seed``."""
    def defaults(cls):
        return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default for f in _declared(cls)}
    return {**{name: defaults(cls) for name, cls in _SECTIONS.items()}, **defaults(RunConfig)}


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


def _build(cls, section: dict):
    """``cls`` from its document section's values, a nested config's from the same section."""
    return cls(**{f.name: section[f.name] if "kind" in f.metadata else _build(type(f.default), section)
                  for f in fields(cls)})


def from_dict(user: dict) -> RunConfig:
    """Check a raw config document and materialize every default."""
    doc = _merge(default_config_dict(), user)
    connector = _build(ConnectorConfig, doc["connector"])
    if connector.slot_dim % connector.qt_heads:
        raise ConfigError("connector.slot_dim must be divisible by connector.qt_heads")
    data = _build(DataConfig, doc["data"])
    if data.ranges.k_events[0] > connector.frames:  # each event after the first is a cut between two frames
        raise ConfigError(f"data.k_events starts at {data.ranges.k_events[0]} events, more than "
                          f"connector.frames ({connector.frames}) can hold")
    stage = _build(StageConfig, doc["stage"])
    # a scene gives at most its sampled frames and its pooled positions
    clamped = {"frames_per_scene": min(stage.frames_per_scene, connector.slow_frames),
               "positions_per_scene": min(stage.positions_per_scene, connector.n_positions)}
    return RunConfig(connector, data, dataclasses.replace(stage, **clamped), doc["out"], doc["seed"])


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
    """Digest of the effective document (``RunConfig.effective``) without the fields declared ``hashed=False``."""
    blob = json.dumps(_document(rc, hashed=True), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def write_effective_config(rc: RunConfig, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "effective-config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rc.effective, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
