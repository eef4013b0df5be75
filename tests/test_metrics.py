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
    render_masks,
    slot_overlap,
    write_pgm,
)


def parse_pgm(path: str) -> np.ndarray:
    """Read back a binary PGM written by ``metrics.write_pgm``."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise MetricsError(f"not a maxval-255 P5 file: {path}")
    w, h = (int(x) for x in parts[1].split())
    payload = parts[3]
    if len(payload) != w * h:
        raise MetricsError(f"truncated PGM payload in {path}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


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


def ari_reference(pred, truth):
    """One set's ARI by the single-set formula: a dict contingency table and
    exact integer pair sums."""
    cells, rows, cols = {}, {}, {}
    for p, t in zip(pred.tolist(), truth.tolist()):
        cells[(p, t)] = cells.get((p, t), 0) + 1
        rows[p] = rows.get(p, 0) + 1
        cols[t] = cols.get(t, 0) + 1
    index = sum(c * (c - 1) // 2 for c in cells.values())
    sum_rows = sum(c * (c - 1) // 2 for c in rows.values())
    sum_cols = sum(c * (c - 1) // 2 for c in cols.values())
    n = len(pred)
    expected = sum_rows * sum_cols / (n * (n - 1) // 2)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        return 1.0
    return float((index - expected) / (max_index - expected))


def overlap_reference(mask):
    """One set's mean pairwise column cosine, pair by pair."""
    cols = mask.astype(np.float64).T
    norms = np.linalg.norm(cols, axis=1)
    total, pairs = 0.0, 0
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            denom = norms[i] * norms[j]
            total += float(cols[i] @ cols[j] / denom) if denom > 0 else 0.0
            pairs += 1
    return total / pairs


def entropy_reference(mask):
    w = mask.astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, -w * np.log(w), 0.0)
    return float(terms.sum(axis=1).mean())


def random_masks(rng, sets, tokens, slots):
    w = rng.random((sets, tokens, slots)).astype(np.float32) ** 4
    return (w / w.sum(axis=2, keepdims=True)).astype(np.float32)


class TestHardAssign:
    def test_one_hot_rows(self):
        masks = np.eye(3, dtype=np.float32)[[[2, 0, 1, 1], [0, 0, 2, 1]]]
        np.testing.assert_array_equal(hard_assign(masks), [[2, 0, 1, 1], [0, 0, 2, 1]])

    def test_uniform_row_ties_to_lowest(self):
        assert hard_assign(np.full((2, 1, 4), 0.25, dtype=np.float32)).tolist() == [[0], [0]]

    def test_simple_argmax(self):
        assert hard_assign(np.array([[[0.2, 0.5, 0.3]]], dtype=np.float32)).tolist() == [[1]]

    def test_matches_per_set_argmax(self):
        masks = random_masks(np.random.default_rng(1), 7, 12, 5)
        want = np.stack([np.argmax(mask, axis=1) for mask in masks])
        np.testing.assert_array_equal(hard_assign(masks), want)


class TestAri:
    def test_identical_labels(self):
        assert ari([[0, 0, 1, 1, 2]], [[0, 0, 1, 1, 2]]).tolist() == [1.0]

    def test_single_cluster_vs_multi_is_zero(self):
        assert ari([[0, 0, 0, 0]], [[0, 0, 1, 1]]).tolist() == [0.0]

    def test_label_permutation_invariance(self):
        assert ari([[0, 0, 1, 1]], [[1, 1, 0, 0]]).tolist() == [1.0]
        assert pair_ari_oracle([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0

    def test_matches_pair_oracle_on_canonical_partitions(self):
        # exhaustive over canonical label strings, one stack per length;
        # raw vectors reduce to these by the relabeling invariance checked
        # separately
        for n in range(2, 7):
            pairs = [(p, t) for p in canonical_partitions(n, 3) for t in canonical_partitions(n, 3)]
            scores = ari([p for p, _ in pairs], [t for _, t in pairs])
            want = [pair_ari_oracle(p, t) for p, t in pairs]
            np.testing.assert_allclose(scores, want, rtol=0, atol=1e-12)

    def test_relabeling_never_changes_score(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            pred = rng.integers(0, 3, size=(4, n))
            truth = rng.integers(0, 3, size=(4, n))
            relabel = rng.permutation(3)
            np.testing.assert_allclose(ari(pred, truth), ari(relabel[pred], truth), rtol=0, atol=1e-12)

    def test_range_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            scores = ari(rng.integers(0, 3, size=(10, n)), rng.integers(0, 3, size=(10, n)))
            assert ((-0.5 - 1e-9 <= scores) & (scores <= 1.0 + 1e-9)).all()

    def test_sets_with_their_own_alphabets_match_the_oracle(self):
        # a label present in one set must not enter another set's table
        pred = np.array([[0, 0, 1, 1, 2, 2], [7, 7, 7, -4, -4, 9], [0, 1, 0, 1, 0, 1]])
        truth = np.array([[5, 5, 6, 6, 6, 6], [0, 0, 0, 1, 1, 1], [2**40, 2**40, 3, 3, -1, -1]])
        want = [pair_ari_oracle(p.tolist(), t.tolist()) for p, t in zip(pred, truth)]
        np.testing.assert_allclose(ari(pred, truth), want, rtol=0, atol=1e-12)
        for k in range(len(pred)):
            assert ari(pred[k:k + 1], truth[k:k + 1])[0] == ari(pred, truth)[k]

    @pytest.mark.parametrize("pred, truth, want", [
        ([0, 0, 0, 0], [3, 3, 3, 3], 1.0),  # one lump against one lump
        ([0, 1, 2, 3], [9, 8, 7, 6], 1.0),  # all singletons against all singletons
        ([0, 0, 0, 0], [0, 1, 2, 3], 0.0),  # one lump against all singletons
        ([0, 1, 2, 3], [5, 5, 5, 5], 0.0),  # a single truth class
        ([0, 0], [1, 2], 0.0),  # two tokens
        ([0, 1], [1, 0], 1.0),
        ([-3, -3, 2**50, 2**50], [-(2**40), -(2**40), 0, 0], 1.0),  # negative and large ids
    ], ids=["lump", "singletons", "lump-singletons", "one-truth-class", "two-tokens-0", "two-tokens-1",
            "negative-large-ids"])
    def test_degenerate_sets(self, pred, truth, want):
        assert pair_ari_oracle(pred, truth) == want
        # alone and beside a set with other labels
        assert ari([pred], [truth]).tolist() == [want]
        other = list(range(len(pred)))
        assert ari([other, pred], [[0] * len(pred), truth])[1] == want

    def test_bit_equal_to_the_per_set_formula(self):
        rng = np.random.default_rng(11)
        for sets, tokens, slots in ((64, 256, 8), (128, 32, 4), (5, 2, 2), (9, 17, 3)):
            pred = hard_assign(random_masks(rng, sets, tokens, slots))
            truth = rng.integers(-2, int(rng.integers(1, 6)), size=(sets, tokens))
            want = [ari_reference(p, t) for p, t in zip(pred, truth)]
            assert ari(pred, truth).tolist() == want

    def test_length_mismatch(self):
        with pytest.raises(MetricsError):
            ari([[0, 1]], [[0, 1, 2]])
        with pytest.raises(MetricsError):
            ari([[0, 1], [1, 0]], [[0, 1]])

    def test_labels_must_be_a_stack(self):
        with pytest.raises(MetricsError):
            ari([0, 1, 1], [0, 1, 1])
        with pytest.raises(MetricsError):
            ari(np.zeros((2, 2, 3), int), np.zeros((2, 2, 3), int))

    def test_too_short(self):
        with pytest.raises(MetricsError):
            ari([[0]], [[0]])


class TestSlotOverlap:
    def test_orthogonal_one_hot_columns(self):
        assert slot_overlap(np.eye(3, dtype=np.float32)[None]).tolist() == [0.0]

    def test_identical_columns(self):
        mask = np.tile(np.array([[0.5], [0.25]], dtype=np.float32), (1, 3))
        np.testing.assert_allclose(slot_overlap(np.stack([mask, mask])), [1.0, 1.0], atol=1e-6)

    def test_equal_columns_read_at_most_one(self):
        # unclamped, the cosine of equal random columns can round to
        # 1.0000000000000002, which a report would refuse to read back
        rng = np.random.default_rng(3)
        masks = np.repeat(rng.random((200, 7, 1), dtype=np.float32), 3, axis=2)
        assert slot_overlap(masks).max() <= 1.0

    def test_cosine_formula_oracle(self):
        mask = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=np.float32)
        np.testing.assert_allclose(slot_overlap(mask), [1.0 / math.sqrt(2.0)], atol=1e-6)

    def test_zero_column_pairs_score_zero(self):
        # slot 2 takes no token: its two pairs score 0, the third pair 1
        mask = np.array([[[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]], dtype=np.float32)
        np.testing.assert_allclose(slot_overlap(mask), [1.0 / 3.0], rtol=1e-15)

    def test_agrees_with_the_per_set_formula(self):
        rng = np.random.default_rng(12)
        for sets, tokens, slots in ((64, 256, 8), (128, 32, 4), (3, 5, 2)):
            masks = random_masks(rng, sets, tokens, slots)
            want = [overlap_reference(mask) for mask in masks]
            np.testing.assert_allclose(slot_overlap(masks), want, rtol=0, atol=1e-15)

    def test_needs_two_slots(self):
        with pytest.raises(MetricsError):
            slot_overlap(np.ones((2, 3, 1), dtype=np.float32))


class TestMaskEntropy:
    def test_one_hot_rows_zero(self):
        assert mask_entropy(np.eye(4, dtype=np.float32)[None]).tolist() == [0.0]

    def test_uniform_rows_log_n(self):
        for n in (2, 3, 8):
            masks = np.full((3, 5, n), 1.0 / n, dtype=np.float32)
            np.testing.assert_allclose(mask_entropy(masks), [math.log(n)] * 3, atol=1e-6)

    def test_half_half_closed_form(self):
        val = mask_entropy(np.array([[[0.5, 0.5]]], dtype=np.float64))
        np.testing.assert_allclose(val, [math.log(2.0)], atol=1e-9)

    def test_bit_equal_to_the_per_set_formula(self):
        rng = np.random.default_rng(13)
        for sets, tokens, slots in ((64, 256, 8), (128, 32, 4), (3, 5, 1)):
            masks = random_masks(rng, sets, tokens, slots)
            masks[0, 0] = 0.0
            assert mask_entropy(masks).tolist() == [entropy_reference(mask) for mask in masks]


@pytest.mark.parametrize("metric", [hard_assign, slot_overlap, mask_entropy])
@pytest.mark.parametrize("shape", [(4, 2), (2, 4, 2, 2), (4,)])
def test_masks_must_be_a_stack(metric, shape):
    with pytest.raises(MetricsError, match="sets, tokens, slots"):
        metric(np.full(shape, 0.5, dtype=np.float32))


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
        raw = (tmp_path / name).read_bytes()
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
        lines = (tmp_path / "index.txt").read_text().splitlines()
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
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

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

    @pytest.mark.parametrize("line", ["probe_acc. 0.5", "n_tokens -12", "n_tokens 0", "scenes 0", "probe_acc 7.5",
                                      "probe_acc -0.01", "probe_acc.occupancy 1.5", "spatial_ari 3",
                                      "slot_overlap_slow 7.5", "mask_entropy_fast -2", "seed -5",
                                      "temporal_ari -1.5", "slot_overlap_fast -0.1"])
    def test_out_of_range_value_rejected(self, line):
        # each was once read and printed by `slotvid compare`
        key = line.split()[0]
        lines = [ln for ln in self._report().to_text().splitlines() if ln.split()[0] != key]
        with pytest.raises(MetricsError, match=key.replace(".", r"\.")):
            DecouplingReport.from_text("\n".join(lines + [line]) + "\n")

    def test_range_ends_accepted(self):
        rep = self._report(n_tokens=1, scenes=1, probe_acc=0.0, probe_acc_per_task={"occupancy": 1.0})
        assert DecouplingReport.from_text(rep.to_text()) == rep
        rep = self._report(seed=2**64 - 1, spatial_ari=-1.0, temporal_ari=1.0, slot_overlap_slow=0.0,
                           slot_overlap_fast=1.0, mask_entropy_slow=0.0)
        assert DecouplingReport.from_text(rep.to_text()) == rep

    @pytest.mark.parametrize("line", ["spatial_arii 0.9", "probe_ac 0.5", "Seed 7"])
    def test_unknown_key_rejected(self, line):
        # a typo once vanished and `slotvid compare` printed the rest as whole
        with pytest.raises(MetricsError, match=line.split()[0]):
            DecouplingReport.from_text(self._report().to_text() + line + "\n")

    @pytest.mark.parametrize("line", ["spatial_ari 0.7", "seed 8", "probe_acc.occupancy 0.1"])
    def test_repeated_key_rejected(self, line):
        # a second line once overwrote the first
        key = line.split()[0]
        with pytest.raises(MetricsError, match=key.replace(".", r"\.")):
            DecouplingReport.from_text(self._report().to_text() + line + "\n")

    def test_any_task_name_allowed(self):
        rep = self._report(probe_acc_per_task={"new_task": 0.25, "occupancy": 0.5})
        assert DecouplingReport.from_text(rep.to_text()) == rep
