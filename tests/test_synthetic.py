import numpy as np
import pytest

from slotvid import engine
from slotvid.config import from_dict
from slotvid.engine import Value
from slotvid.slot_attention import SlotAttentionParams, forward_batch
from slotvid.synthetic import (
    SceneError,
    SceneRanges,
    SceneSpec,
    SceneStream,
    TASKS,
    embedding_for_id,
    gen_scene,
    make_scene_spec,
    probe_class_counts,
    probe_labels,
)


def small_stream(seed=0, tag="train", sigma=0.05, k_objects=(2, 4)):
    rc = from_dict({
        "connector": {"frames": 12, "grid_h": 8, "grid_w": 8, "feat_dim": 16, "pool_stride": 4},
        "data": {"k_objects": list(k_objects), "k_events": [2, 3], "sigma": sigma, "extent": [2, 2]},
        "seed": seed,
    })
    return SceneStream(rc, tag)


def static_spec(k=2, sigma=0.0):
    # one temporal segment, hand-placed objects
    return SceneSpec(
        seed=7,
        t=6,
        h=8,
        w=8,
        d=16,
        pool_stride=4,
        k_objects=k,
        object_ids=tuple(range(1, k + 1)),
        extents=tuple((2, 2) for _ in range(k)),
        boundaries=(0,),
        positions=(tuple((2 * i, 2 * i) for i in range(k)),),
        sigma=sigma,
    )


class TestGenScene:
    def test_zero_noise_patches_bit_identical(self):
        feats, truth = gen_scene(static_spec(k=2, sigma=0.0))
        labels = truth.object_labels[0]
        cells = np.argwhere(labels == 1)
        first = feats.grid[0, cells[0][0], cells[0][1]]
        for r, c in cells:
            assert np.array_equal(feats.grid[0, r, c], first)

    def test_two_objects_label_set(self):
        _, truth = gen_scene(static_spec(k=2))
        assert set(np.unique(truth.object_labels).tolist()) == {0, 1, 2}

    def test_intra_cosine_beats_inter_cosine(self):
        spec = static_spec(k=2, sigma=0.05)
        feats, truth = gen_scene(spec)
        labels = truth.object_labels[0].reshape(-1)
        frame = feats.grid[0].reshape(-1, spec.d).astype(np.float64)
        unit = frame / np.linalg.norm(frame, axis=1, keepdims=True)
        sims = unit @ unit.T
        same = []
        cross = []
        for i in range(len(labels)):
            for j in range(i + 1, len(labels)):
                if labels[i] == 1 and labels[j] == 1:
                    same.append(sims[i, j])
                elif {labels[i], labels[j]} == {1, 2}:
                    cross.append(sims[i, j])
        assert np.mean(same) > np.mean(cross)

    def test_embeddings_unit_norm_and_stable(self):
        for oid in range(4):
            e = embedding_for_id(oid, 16)
            assert abs(np.linalg.norm(e) - 1.0) < 1e-5
            np.testing.assert_array_equal(e, embedding_for_id(oid, 16))

    def test_segment_labels_partition_time(self):
        stream = small_stream(3)
        spec, _, truth = stream.scene(0)
        assert truth.segment_labels.shape == ((8 // 4) ** 2, spec.t)
        # constant within each ground-truth segment
        seg_of = np.searchsorted(np.asarray(spec.boundaries), np.arange(spec.t), side="right") - 1
        for pos in range(truth.segment_labels.shape[0]):
            for seg in range(spec.n_segments):
                vals = truth.segment_labels[pos][seg_of == seg]
                assert len(set(vals.tolist())) == 1

    def test_invalid_spec_rejected(self):
        spec = static_spec(k=2)
        with pytest.raises(SceneError):
            SceneSpec(**{**spec.__dict__, "boundaries": (0, 99)})


    def test_more_events_than_frames_rejected(self):
        ranges = SceneRanges(k_events=(4, 5))
        with pytest.raises(SceneError, match="3 frames cannot hold 4 events"):
            make_scene_spec(engine.rng_for(0, "spec"), 3, 8, 8, 16, 4, ranges)
        assert make_scene_spec(engine.rng_for(0, "spec"), 4, 8, 8, 16, 4, ranges).n_segments == 4


class TestProbeTasks:
    def test_object_count_equals_spec_field(self):
        spec = static_spec(k=2)
        _, truth = gen_scene(spec)
        assert probe_labels(spec, truth)["object_count"] == 2

    def test_static_scene_has_one_event(self):
        spec = static_spec(k=2)
        _, truth = gen_scene(spec)
        assert probe_labels(spec, truth)["event_count"] == 1

    def test_occupancy_matches_truth_lookup(self):
        stream = small_stream(5)
        for i in range(6):
            spec, _, truth = stream.scene(i)
            label = probe_labels(spec, truth)["occupancy"]
            local = truth.object_labels[spec.t // 2, spec.h // 2, spec.w // 2]
            want = 0 if local == 0 else spec.object_ids[local - 1]
            assert label == want

    def test_class_counts_cover_labels(self):
        ranges = SceneRanges()
        counts = probe_class_counts(ranges)
        stream = small_stream(6)
        for i in range(10):
            spec, _, truth = stream.scene(i)
            for task, label in probe_labels(spec, truth).items():
                assert 0 <= label < counts[task]


class TestStreams:
    def test_same_index_reproduces_scene(self):
        stream = small_stream(9)
        _, f1, t1 = stream.scene(4)
        _, f2, t2 = stream.scene(4)
        assert np.array_equal(f1.grid, f2.grid)
        assert np.array_equal(t1.object_labels, t2.object_labels)

    def test_adjacent_seeds_differ(self):
        a = small_stream(10).scene(0)[1].grid
        b = small_stream(11).scene(0)[1].grid
        assert not np.array_equal(a, b)

    def test_restartable_mid_stream(self):
        stream = small_stream(12)
        ordered = [stream.scene(i)[1].grid for i in range(5)]
        assert np.array_equal(stream.scene(3)[1].grid, ordered[3])

    def test_fresh_stream_rekeys_by_seed(self):
        # scenes depend on (seed, tag, index) only: a new stream object with the
        # same seed reproduces them, and another seed re-keys every index
        scenes = [small_stream(99).scene(i) for i in range(3)]
        again = small_stream(99)
        assert np.array_equal(scenes[1][1].grid, again.scene(1)[1].grid)
        other = small_stream(100)
        for i in range(3):
            assert not np.array_equal(scenes[i][1].grid, other.scene(i)[1].grid)

    def test_mean_object_count_near_range_midpoint(self):
        stream = small_stream(14, k_objects=(2, 4))
        ks = [stream.spec(i).k_objects for i in range(100)]
        assert abs(np.mean(ks) - 3.0) <= 0.5


class TestJointInvariants:
    def test_zero_noise_gives_identical_mask_rows(self):
        spec = static_spec(k=2, sigma=0.0)
        feats, truth = gen_scene(spec)
        params = SlotAttentionParams.create(engine.rng_for(20, "sa"), 3, spec.d, 8)
        frame = feats.grid[0].reshape(-1, spec.d)
        _, masks = forward_batch(Value(frame[None]), params)
        labels = truth.object_labels[0].reshape(-1)
        for lab in (0, 1, 2):
            rows = masks[0][labels == lab]
            assert np.abs(rows - rows[0]).max() < 1e-6

    def test_perfect_masks_score_ari_one(self):
        from slotvid.metrics import ari, hard_assign

        spec = static_spec(k=3)
        _, truth = gen_scene(spec)
        labels = truth.object_labels.reshape(len(truth.object_labels), -1)
        onehot = np.eye(4, dtype=np.float32)[labels]
        assert ari(hard_assign(onehot), labels).tolist() == [1.0] * len(labels)
