import math
import os

import numpy as np
import pytest

from slotvid.metrics import (
    DecouplingReport,
    MetricsError,
    ari,
    compare_table,
    hard_assign,
    mask_entropy,
    parse_pgm,
    render_masks,
    slot_overlap,
    write_pgm,
)


def pair_ari_oracle(pred, truth):
    """Brute-force pair counting over all C(n,2) pairs."""
    n = len(pred)
    tp = tn = fp = fn = 0
    for i in range(n):
        for j in range(i + 1, n):
            pred_same = pred[i] == pred[j]
            truth_same = truth[i] == truth[j]
            if pred_same and truth_same:
                tp += 1
            elif pred_same and not truth_same:
                fp += 1
            elif truth_same:
                fn += 1
            else:
                tn += 1
    denom = (tp + fn) * (fn + tn) + (tp + fp) * (fp + tn)
    if denom == 0:
        return 1.0
    return 2.0 * (tp * tn - fn * fp) / denom


def canonical_partitions(n, max_labels):
    """All restricted-growth label strings of length n using <= max_labels labels."""
    out = []

    def rec(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(min(used + 1, max_labels)):
            rec(prefix + [v], max(used, v + 1))

    rec([0], 1)
    return out


class TestHardAssign:
    def test_one_hot_rows(self):
        mask = np.eye(3, dtype=np.float32)[[2, 0, 1, 1]]
        np.testing.assert_array_equal(hard_assign(mask), [2, 0, 1, 1])

    def test_uniform_row_ties_to_lowest(self):
        assert hard_assign(np.full((1, 4), 0.25, dtype=np.float32))[0] == 0

    def test_simple_argmax(self):
        assert hard_assign(np.array([[0.2, 0.5, 0.3]], dtype=np.float32))[0] == 1


class TestAri:
    def test_identical_labels(self):
        assert ari([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == 1.0

    def test_single_cluster_vs_multi_is_zero(self):
        assert ari([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0

    def test_label_permutation_invariance(self):
        assert ari([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
        assert pair_ari_oracle([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_matches_pair_oracle_on_canonical_partitions(self):
        # exhaustive over canonical label strings; raw vectors reduce to these
        # by the relabeling invariance checked separately
        for n in range(2, 7):
            parts = canonical_partitions(n, 3)
            for p in parts:
                for t in parts:
                    assert ari(p, t) == pytest.approx(pair_ari_oracle(p, t), abs=1e-12)

    def test_relabeling_never_changes_score(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            pred = rng.integers(0, 3, size=n)
            truth = rng.integers(0, 3, size=n)
            relabel = rng.permutation(3)
            assert ari(pred, truth) == pytest.approx(ari(relabel[pred], truth), abs=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            score = ari(rng.integers(0, 3, size=n), rng.integers(0, 3, size=n))
            assert -0.5 - 1e-9 <= score <= 1.0 + 1e-9

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            ari([0, 1], [0, 1, 2])

    def test_too_short(self):
        with pytest.raises(MetricsError):
            ari([0], [0])


class TestSlotOverlap:
    def test_orthogonal_one_hot_columns(self):
        assert slot_overlap(np.eye(3, dtype=np.float32)) == 0.0

    def test_identical_columns(self):
        mask = np.tile(np.array([[0.5], [0.25]], dtype=np.float32), (1, 3))
        assert slot_overlap(mask) == pytest.approx(1.0, abs=1e-6)

    def test_cosine_formula_oracle(self):
        mask = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.float32)
        assert slot_overlap(mask) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)

    def test_needs_two_slots(self):
        with pytest.raises(MetricsError):
            slot_overlap(np.ones((3, 1), dtype=np.float32))


class TestMaskEntropy:
    def test_one_hot_rows_zero(self):
        assert mask_entropy(np.eye(4, dtype=np.float32)) == 0.0

    def test_uniform_rows_log_n(self):
        for n in (2, 3, 8):
            mask = np.full((5, n), 1.0 / n, dtype=np.float32)
            assert mask_entropy(mask) == pytest.approx(math.log(n), abs=1e-6)

    def test_half_half_closed_form(self):
        val = mask_entropy(np.array([[0.5, 0.5]], dtype=np.float64))
        assert val == pytest.approx(math.log(2.0), abs=1e-9)


class TestRendering:
    def test_uniform_eighth_pixels_are_31(self, tmp_path):
        mask = np.full((16, 8), 1.0 / 8.0, dtype=np.float32)
        names = render_masks([("slow", 0, mask, (4, 4))], str(tmp_path))
        assert len(names) == 8
        img = parse_pgm(os.path.join(tmp_path, names[0]))
        assert img.shape == (4, 4)
        assert (img == 31).all()

    def test_one_hot_pixels_are_binary(self, tmp_path):
        weights = np.zeros((4, 2), dtype=np.float32)
        weights[:2, 0] = 1.0
        weights[2:, 1] = 1.0
        names = render_masks([("slow", 3, weights, (2, 2))], str(tmp_path))
        for name in names:
            img = parse_pgm(os.path.join(tmp_path, name))
            assert set(np.unique(img).tolist()) <= {0, 255}

    def test_raster_order_matches_grid(self, tmp_path):
        weights = (np.arange(16, dtype=np.float32) / 15.0).reshape(16, 1)
        (name,) = render_masks([("slow", 1, weights, (4, 4))], str(tmp_path))
        raw = open(os.path.join(tmp_path, name), "rb").read()
        header = f"P5\n4 4\n255\n".encode()
        assert raw.startswith(header)
        payload = raw[len(header):]
        expect = np.floor(weights.reshape(-1) * 255.0).astype(np.uint8).tobytes()
        assert payload == expect

    def test_round_trip_recovers_quantized_weights(self, tmp_path):
        rng = np.random.default_rng(8)
        weights = rng.random((6, 3)).astype(np.float32)
        names = render_masks([("fast", 2, weights, (6, 1))], str(tmp_path))
        for slot, name in enumerate(names):
            img = parse_pgm(os.path.join(tmp_path, name))
            assert img.shape == (6, 1)
            want = np.floor(weights[:, slot] * 255.0).astype(np.uint8)
            np.testing.assert_array_equal(img[:, 0], want)

    def test_index_file_lists_every_image(self, tmp_path):
        masks = [
            ("slow", 0, np.full((4, 2), 0.5, dtype=np.float32), (2, 2)),
            ("fast", 5, np.full((3, 2), 0.5, dtype=np.float32), (3, 1)),
        ]
        names = render_masks(masks, str(tmp_path))
        lines = open(os.path.join(tmp_path, "index.txt")).read().splitlines()
        assert len(lines) == len(names) == 4
        assert lines[0].split() == ["slow", "0", "0", "slow_000_slot00.pgm"]
        assert lines[-1].split() == ["fast", "5", "1", "fast_005_slot01.pgm"]
        for name in names:
            assert os.path.exists(os.path.join(tmp_path, name))

    def test_rendering_is_deterministic(self, tmp_path):
        mask = np.full((4, 2), 0.3, dtype=np.float32)
        a = render_masks([("slow", 0, mask, (2, 2))], str(tmp_path / "a"))
        b = render_masks([("slow", 0, mask, (2, 2))], str(tmp_path / "b"))
        assert a == b
        for name in a:
            assert open(tmp_path / "a" / name, "rb").read() == open(tmp_path / "b" / name, "rb").read()

    def test_image_shape_must_match_rows(self, tmp_path):
        weights = np.full((4, 2), 0.5, dtype=np.float32)
        with pytest.raises(MetricsError):
            render_masks([("slow", 0, weights, (3, 3))], str(tmp_path))
        with pytest.raises(MetricsError):
            render_masks([("slow", 0, weights[None], (2, 2))], str(tmp_path))

    def test_corrupt_pgm_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        write_pgm(str(path), np.zeros((2, 2), dtype=np.uint8))
        data = path.read_bytes()
        path.write_bytes(data[:-1])
        with pytest.raises(MetricsError):
            parse_pgm(str(path))


class TestReports:
    def _report(self, connector="slot", **kw):
        base = dict(
            connector=connector,
            seed=7,
            config_hash="abc123",
            n_tokens=192,
            scenes=50,
            spatial_ari=0.8125,
            temporal_ari=0.7,
            slot_overlap_slow=0.11,
            slot_overlap_fast=0.2,
            mask_entropy_slow=0.5,
            mask_entropy_fast=0.6,
            probe_acc=0.66,
            probe_acc_per_task={"object_count": 0.9, "occupancy": 0.4},
        )
        base.update(kw)
        return DecouplingReport(**base)

    def test_text_round_trip(self, tmp_path):
        rep = self._report()
        path = tmp_path / "r.report"
        rep.save(str(path))
        back = DecouplingReport.load(str(path))
        assert back == rep

    def test_missing_fields_roundtrip_as_none(self):
        rep = self._report(connector="pooling", spatial_ari=None, temporal_ari=None,
                           slot_overlap_slow=None, slot_overlap_fast=None,
                           mask_entropy_slow=None, mask_entropy_fast=None)
        back = DecouplingReport.from_text(rep.to_text())
        assert back.spatial_ari is None and back.probe_acc == 0.66

    def test_compare_table_layout(self):
        table = compare_table([self._report("slot"), self._report("pooling", spatial_ari=None)])
        lines = table.splitlines()
        assert lines[0].split()[:3] == ["connector", "n_tokens", "spatial_ari"]
        assert lines[2].startswith("slot")
        assert lines[3].startswith("pooling")
        assert "-" in lines[3].split()

    def test_malformed_report_rejected(self):
        with pytest.raises(MetricsError):
            DecouplingReport.from_text("connector slot\nseed\n")

    @pytest.mark.parametrize("line", ["seed abc", "probe_acc nan?", "probe_acc.occupancy x", "scenes 2.5",
                                      "probe_acc nan", "spatial_ari inf", "probe_acc.occupancy -inf"])
    def test_non_numeric_value_rejected(self, line):
        key = line.split()[0]
        lines = [ln for ln in self._report().to_text().splitlines() if ln.split()[0] != key]
        with pytest.raises(MetricsError, match=key.replace(".", r"\.")):
            DecouplingReport.from_text("\n".join(lines + [line]) + "\n")
