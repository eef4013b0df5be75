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

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import engine
from .config import RunConfig, SceneRanges
from .connector import VideoFeatures, clip_views

# namespace seed for the global id -> embedding table; fixed so identities
# mean the same thing across datasets and runs
_EMBED_SEED = 0x51D5


TASKS = ("object_count", "event_count", "occupancy")


class SceneError(Exception):
    """Invalid scene specification."""


@dataclass(frozen=True)
class SceneSpec:
    """Fully determined description of one scene, checked when it is built."""

    seed: int
    t: int
    h: int
    w: int
    d: int
    pool_stride: int
    k_objects: int
    object_ids: tuple  # K global ids, distinct, >= 1: local label i+1 is object_ids[i]
    extents: tuple  # K (eh, ew) pairs
    boundaries: tuple  # segment start times, boundaries[0] == 0
    positions: tuple  # positions[seg][obj] = (row, col) top-left
    sigma: float

    def __post_init__(self):
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
    if t < ranges.k_events[0]:
        raise SceneError(f"{t} frames cannot hold {ranges.k_events[0]} events")
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

    return SceneSpec(
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


def gen_scene(spec: SceneSpec) -> tuple[VideoFeatures, SceneTruth]:
    """Render features and exact truth for one scene specification."""
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

    truth = SceneTruth(object_labels=labels, segment_labels=seg_labels)
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


# the most bytes of views a stream keeps
CACHE_BYTES = 512 << 20


class SceneViews(NamedTuple):
    """One scene as a stream with views returns it."""

    views: dict  # its views by name, as ``connector.clip_views`` returns them: read-only while it is cached
    probe: Mapping  # its ``SceneTruth.probe``


@dataclass
class SceneStream:
    """The scenes ``tag`` of the run ``rc``: item i depends only on the seed,
    the tag, i, the connector's clip shape and the data section's ranges.

    Without ``views``, ``scene`` renders each scene afresh and returns
    (spec, features, truth); nothing outlives the caller's reference.
    Evaluation and viz read their scenes so, each once.

    With ``views``, the names of the views a training step reads,
    ``scene`` returns ``SceneViews`` and the stream keeps what a step reads
    and nothing else: each scene's views as ``connector.clip_views`` derives
    them, made read-only, and its probe labels. Its grid, noise and label
    maps are dropped. It keeps as many scenes as ``CACHE_BYTES`` of their
    views hold, at most ``data.n_train_scenes``. Training cycles through
    those indices, so the steady state is all hits. A scene past the budget
    is rendered again on every request.
    """

    rc: RunConfig
    tag: str
    views: tuple = ()
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def spec(self, index: int) -> SceneSpec:
        cfg = self.rc.connector
        rng = engine.rng_for(self.rc.seed, "scene", self.tag, index)
        scene_seed = int(rng.integers(0, 2**63 - 1))
        return make_scene_spec(rng, cfg.frames, cfg.grid_h, cfg.grid_w, cfg.feat_dim, cfg.pool_stride,
                               self.rc.data.ranges, seed=scene_seed)

    def scene(self, index: int):
        """Scene ``index``: (spec, VideoFeatures, SceneTruth), or its ``SceneViews`` with ``views``."""
        hit = self._cache.get(index)
        if hit is not None:
            return hit
        spec = self.spec(index)
        feats, truth = gen_scene(spec)
        if not self.views:
            return spec, feats, truth
        views = clip_views(feats, self.rc.connector, self.views)
        # every scene's views have the first scene's shapes, so this is the first scene's budget
        budget = min(self.rc.data.n_train_scenes, CACHE_BYTES // sum(view.nbytes for view in views.values()))
        if len(self._cache) == budget:
            return SceneViews(views, truth.probe)  # past the budget
        for view in views.values():
            view.flags.writeable = False
        entry = self._cache[index] = SceneViews(views, truth.probe)
        return entry
