"""Synthetic feature-grid scenes with exact object and event ground truth.

Each scene paints K rectangular objects onto a T x H x W label grid. Objects
hold still within a temporal segment and jump at segment boundaries, so every
pooled position sees piecewise-constant content whose change points are the
scene's events. Features are the occupying object's fixed unit-norm embedding
plus isotropic noise: patches of one object are near-duplicates, which is the
property slot attention exploits.

Everything is a pure function of (seed, index); streams restart at any point.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import engine
from .connector import VideoFeatures

# namespace seed for the global id -> embedding table; fixed so identities
# mean the same thing across datasets and runs
_EMBED_SEED = 0x51D5


TASKS = ("object_count", "event_count", "occupancy")


class SceneError(Exception):
    """Invalid scene specification."""


@dataclass(frozen=True)
class SceneRanges:
    """Sampling ranges for scene generation (the data section of a run config)."""

    k_objects: tuple = (2, 4)
    k_events: tuple = (2, 4)
    sigma: float = 0.05
    n_object_ids: int = 6
    extent: tuple = (3, 5)  # object side lengths, clipped to the grid

    def validate(self) -> None:
        if not (1 <= self.k_objects[0] <= self.k_objects[1] <= self.n_object_ids):
            raise SceneError(f"bad object count range {self.k_objects}")
        if not (1 <= self.k_events[0] <= self.k_events[1]):
            raise SceneError(f"bad event count range {self.k_events}")
        if not (1 <= self.extent[0] <= self.extent[1]):
            raise SceneError(f"bad extent range {self.extent}")
        if self.sigma < 0:
            raise SceneError("noise sigma must be >= 0")


@dataclass(frozen=True)
class SceneSpec:
    """Fully determined description of one scene."""

    seed: int
    t: int
    h: int
    w: int
    d: int
    pool_stride: int
    k_objects: int
    object_ids: tuple  # K global ids, distinct, >= 1
    extents: tuple  # K (eh, ew) pairs
    boundaries: tuple  # segment start times, boundaries[0] == 0
    positions: tuple  # positions[seg][obj] = (row, col) top-left
    sigma: float

    def validate(self) -> None:
        if self.t < 1 or self.h < 1 or self.w < 1 or self.d < 1:
            raise SceneError("degenerate scene dims")
        if self.h % self.pool_stride or self.w % self.pool_stride:
            raise SceneError("pool stride must divide the grid")
        if len(self.object_ids) != self.k_objects or len(set(self.object_ids)) != self.k_objects:
            raise SceneError("object ids must be distinct and match k_objects")
        if self.boundaries[0] != 0 or list(self.boundaries) != sorted(set(self.boundaries)):
            raise SceneError("segment boundaries must start at 0 and increase")
        if self.boundaries[-1] >= self.t:
            raise SceneError("segment boundary beyond clip length")
        for seg in self.positions:
            for (r, c), (eh, ew) in zip(seg, self.extents):
                if not (0 <= r <= self.h - eh and 0 <= c <= self.w - ew):
                    raise SceneError("object extent leaves the grid")

    @property
    def n_segments(self) -> int:
        return len(self.boundaries)


@dataclass
class SceneTruth:
    """Oracle labels: per-patch object indices, per-position event segments and
    the scene's ``probe_labels``, read-only, which ``gen_scene`` fills in."""

    object_labels: np.ndarray  # [T, H, W] ints, 0 = background, else 1..K
    segment_labels: np.ndarray  # [M_d, T] ints, content class per pooled position
    object_ids: tuple  # local index i+1 -> global id object_ids[i]
    probe: Mapping = field(default_factory=dict)  # task -> probe label


def embedding_for_id(obj_id: int, d: int) -> np.ndarray:
    """Fixed unit-norm embedding for one global object id (0 = background)."""
    rng = engine.rng_for(_EMBED_SEED, "object-embedding", int(obj_id), int(d))
    vec = rng.standard_normal(d).astype(np.float32)
    return vec / np.float32(np.linalg.norm(vec))


def _paint_pattern(spec: SceneSpec, seg: int) -> np.ndarray:
    """Label grid for one segment; later objects overwrite earlier on overlap."""
    labels = np.zeros((spec.h, spec.w), dtype=np.int64)
    for obj in range(spec.k_objects):
        r, c = spec.positions[seg][obj]
        eh, ew = spec.extents[obj]
        labels[r : r + eh, c : c + ew] = obj + 1
    return labels


def _segment_of_frame(spec: SceneSpec) -> np.ndarray:
    bounds = np.asarray(spec.boundaries)
    return np.searchsorted(bounds, np.arange(spec.t), side="right") - 1


def make_scene_spec(
    rng: np.random.Generator,
    t: int,
    h: int,
    w: int,
    d: int,
    pool_stride: int,
    ranges: SceneRanges,
    seed: int = 0,
) -> SceneSpec:
    """Draw one scene specification; all K objects stay visible in every segment."""
    ranges.validate()
    k = int(rng.integers(ranges.k_objects[0], ranges.k_objects[1] + 1))
    ids = tuple(int(x) for x in rng.choice(np.arange(1, ranges.n_object_ids + 1), size=k, replace=False))
    ext_hi = min(ranges.extent[1], min(h, w))
    ext_lo = min(ranges.extent[0], ext_hi)
    extents = tuple(
        (int(rng.integers(ext_lo, ext_hi + 1)), int(rng.integers(ext_lo, ext_hi + 1)))
        for _ in range(k)
    )
    n_seg = int(rng.integers(ranges.k_events[0], min(ranges.k_events[1], t) + 1))
    if n_seg > 1:
        cuts = np.sort(rng.choice(np.arange(1, t), size=n_seg - 1, replace=False))
        boundaries = (0, *(int(c) for c in cuts))
    else:
        boundaries = (0,)

    def draw_anchor(span: int, ext: int) -> int:
        return int(rng.choice(np.arange(0, span - ext + 1)))

    positions = []
    for seg in range(n_seg):
        placed = None
        for _ in range(50):
            cand = tuple(
                (draw_anchor(h, extents[o][0]), draw_anchor(w, extents[o][1]))
                for o in range(k)
            )
            trial = np.zeros((h, w), dtype=np.int64)
            for o, (r, c) in enumerate(cand):
                trial[r : r + extents[o][0], c : c + extents[o][1]] = o + 1
            if len(np.unique(trial)) == k + 1:
                placed = cand
                break
        if placed is None:
            # deterministic diagonal fallback: strictly increasing anchors keep
            # every object's top-left corner visible even under heavy overlap
            step = max(1, k - 1)
            placed = tuple(
                (
                    round(o * (h - extents[o][0]) / step),
                    round(o * (w - extents[o][1]) / step),
                )
                for o in range(k)
            )
        positions.append(placed)

    spec = SceneSpec(
        seed=seed,
        t=t,
        h=h,
        w=w,
        d=d,
        pool_stride=pool_stride,
        k_objects=k,
        object_ids=ids,
        extents=extents,
        boundaries=boundaries,
        positions=tuple(positions),
        sigma=ranges.sigma,
    )
    spec.validate()
    return spec


def gen_scene(spec: SceneSpec) -> tuple[VideoFeatures, SceneTruth]:
    """Render features and exact truth for one scene specification."""
    spec.validate()
    seg_of = _segment_of_frame(spec)
    patterns = [_paint_pattern(spec, s) for s in range(spec.n_segments)]
    labels = np.stack([patterns[seg_of[t]] for t in range(spec.t)])  # [T, H, W]

    table = np.stack(
        [embedding_for_id(0, spec.d)]
        + [embedding_for_id(gid, spec.d) for gid in spec.object_ids]
    )  # [K+1, D]
    feats = np.ascontiguousarray(table[labels], dtype=np.float32)  # [T, H, W, D]
    if spec.sigma > 0:
        noise_rng = engine.rng_for(spec.seed, "scene-noise")
        feats += engine.normal(noise_rng, feats.shape, std=spec.sigma)

    # content class per pooled position: the per-label occupancy counts of the
    # block; identical content (object returning, say) keeps its class id
    s = spec.pool_stride
    hp, wp = spec.h // s, spec.w // s
    blocks = labels.reshape(spec.t, hp, s, wp, s).transpose(1, 3, 0, 2, 4)
    blocks = blocks.reshape(hp * wp, spec.t, s * s)
    counts = np.zeros((hp * wp, spec.t, spec.k_objects + 1), dtype=np.int32)
    pos_idx = np.arange(hp * wp)[:, None, None]
    t_idx = np.arange(spec.t)[None, :, None]
    np.add.at(counts, (pos_idx, t_idx, blocks), 1)
    seg_labels = np.zeros((hp * wp, spec.t), dtype=np.int64)
    for pos in range(hp * wp):
        seen: dict = {}
        for t in range(spec.t):
            key = counts[pos, t].tobytes()
            if key not in seen:
                seen[key] = len(seen)
            seg_labels[pos, t] = seen[key]

    truth = SceneTruth(object_labels=labels, segment_labels=seg_labels, object_ids=spec.object_ids)
    truth.probe = MappingProxyType(probe_labels(spec, truth))
    return VideoFeatures(feats), truth


def probe_labels(spec: SceneSpec, truth: SceneTruth) -> dict:
    """Classification labels answerable only from the clip content."""
    s = spec.pool_stride
    hp, wp = spec.h // s, spec.w // s
    region = (hp // 2) * wp + (wp // 2)
    t_q, h_q, w_q = spec.t // 2, spec.h // 2, spec.w // 2
    local = int(truth.object_labels[t_q, h_q, w_q])
    return {
        "object_count": spec.k_objects,
        "event_count": int(len(np.unique(truth.segment_labels[region]))),
        "occupancy": 0 if local == 0 else int(spec.object_ids[local - 1]),
    }


def probe_class_counts(ranges: SceneRanges) -> dict:
    """Logit widths per task for the given sampling ranges."""
    return {
        "object_count": ranges.k_objects[1] + 1,
        "event_count": ranges.k_events[1] + 2,
        "occupancy": ranges.n_object_ids + 1,
    }


class SceneViews(NamedTuple):
    """One scene as a stream with views returns it."""

    row: int  # its row in every view block; -1 past the cache budget
    views: dict | None  # its views past the cache budget, else None
    probe: Mapping  # its ``SceneTruth.probe``


@dataclass
class SceneStream:
    """Deterministic scene sequence: item i depends only on (seed, tag, i).

    Without ``views``, ``scene`` renders each scene afresh and returns
    (spec, features, truth); nothing outlives the caller's reference.

    With ``views``, a function of a clip's ``VideoFeatures`` to its views by
    name (``connector.clip_views``), the stream keeps what a training step
    reads and nothing else. The first ``cache_entries`` scenes it renders go
    into one preallocated scene-major block per view, each [cache_entries,
    ...], one row per scene; their grids, noise and label maps are then
    dropped, and each scene keeps only its row and probe labels. Training
    cycles through a fixed index set, so the steady state is all hits.
    ``scene`` returns ``SceneViews``; a scene past the budget is rendered
    again on every request and carries its own views. ``gather`` reads a
    batch's view from the blocks.
    """

    seed: int
    t: int
    h: int
    w: int
    d: int
    pool_stride: int
    ranges: SceneRanges
    tag: str = "train"
    cache_entries: int = 0
    views: Callable | None = field(default=None, repr=False, compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _blocks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def spec(self, index: int) -> SceneSpec:
        rng = engine.rng_for(self.seed, "scene", self.tag, index)
        scene_seed = int(rng.integers(0, 2**63 - 1))
        return make_scene_spec(
            rng, self.t, self.h, self.w, self.d, self.pool_stride, self.ranges, seed=scene_seed
        )

    def scene(self, index: int):
        """Scene ``index``: (spec, VideoFeatures, SceneTruth), or its ``SceneViews`` with ``views``."""
        hit = self._cache.get(index)
        if hit is not None:
            return hit
        spec = self.spec(index)
        feats, truth = gen_scene(spec)
        if self.views is None:
            return spec, feats, truth
        views = self.views(feats)
        row = len(self._cache)
        if row >= self.cache_entries:
            return SceneViews(-1, views, truth.probe)
        if not self._blocks:
            self._blocks = {name: np.empty((self.cache_entries,) + view.shape, dtype=np.float32)
                            for name, view in views.items()}
        for name, view in views.items():
            self._blocks[name][row] = view
        entry = self._cache[index] = SceneViews(row, None, truth.probe)
        return entry

    def gather(self, scenes, name: str, picks=None) -> np.ndarray:
        """View ``name`` of ``scenes``, this stream's ``SceneViews``, as one [B, ...] array.

        With ``picks`` [B, p], only the rows picks[b] of scene b's view, as
        [B, p, ...]. Where every scene has a row, this is one ``np.take`` from
        the view's block; otherwise each scene's view is stacked.
        """
        rows = np.array([scene.row for scene in scenes], dtype=np.intp)
        block = self._blocks.get(name)
        if rows.min() >= 0:
            if picks is None:
                return np.take(block, rows, axis=0)
            rows_of = block.reshape((-1,) + block.shape[2:])  # [cache_entries * groups, ...]
            return np.take(rows_of, rows[:, None] * block.shape[1] + picks, axis=0)
        views = [block[scene.row] if scene.row >= 0 else scene.views[name] for scene in scenes]
        if picks is not None:
            views = [view[pick] for view, pick in zip(views, picks)]
        return np.stack(views)
