"""Decoupling metrics over attention masks, plus mask rendering and reports.

A mask is one set's [tokens, slots] weight matrix, a 2-D array sliced from
an aggregator's [sets, tokens, slots] output. Masks are read the way the eye
reads them: each input token goes to its strongest slot (argmax), and the
resulting partition is scored against ground truth with the adjusted Rand
index. Column overlap and row entropy quantify how much slots share tokens
and how concentrated each token's assignment is.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np


class MetricsError(Exception):
    """Invalid metric input or unreadable artifact."""


def _weights(mask) -> np.ndarray:
    arr = np.asarray(mask, dtype=np.float32)
    if arr.ndim != 2:
        raise MetricsError("mask must be a [tokens, slots] matrix")
    return arr


def hard_assign(mask) -> np.ndarray:
    """Argmax slot per input token; ties break toward the lowest slot index."""
    return np.argmax(_weights(mask), axis=1)


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def ari(pred, truth) -> float:
    """Adjusted Rand index from the contingency table of two labelings."""
    pred = [int(x) for x in np.asarray(pred).reshape(-1)]
    truth = [int(x) for x in np.asarray(truth).reshape(-1)]
    n = len(pred)
    if n != len(truth):
        raise MetricsError("label vectors differ in length")
    if n < 2:
        raise MetricsError("need at least two items")
    cells: dict = {}
    rows: dict = {}
    cols: dict = {}
    for p, t in zip(pred, truth):
        cells[(p, t)] = cells.get((p, t), 0) + 1
        rows[p] = rows.get(p, 0) + 1
        cols[t] = cols.get(t, 0) + 1
    index = sum(_comb2(c) for c in cells.values())
    sum_rows = sum(_comb2(c) for c in rows.values())
    sum_cols = sum(_comb2(c) for c in cols.values())
    expected = sum_rows * sum_cols / _comb2(n)
    max_index = 0.5 * (sum_rows + sum_cols)
    if max_index == expected:
        # both partitions trivial in the same way (all-singletons or one lump)
        return 1.0
    return float((index - expected) / (max_index - expected))


def slot_overlap(mask) -> float:
    """Mean pairwise cosine similarity between mask columns."""
    w = _weights(mask)
    n = w.shape[1]
    if n < 2:
        raise MetricsError("slot overlap needs at least two slots")
    cols = w.astype(np.float64).T
    norms = np.linalg.norm(cols, axis=1)
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            denom = norms[i] * norms[j]
            total += float(cols[i] @ cols[j] / denom) if denom > 0 else 0.0
            pairs += 1
    return total / pairs


def mask_entropy(mask) -> float:
    """Mean over rows of the natural-log entropy of the slot distribution."""
    w = _weights(mask).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, -w * np.log(w), 0.0)
    return float(terms.sum(axis=1).mean())


# -- mask rendering -------------------------------------------------------------------


def _quantize(column: np.ndarray) -> np.ndarray:
    pix = np.floor(column.astype(np.float64) * 255.0)
    return np.clip(pix, 0, 255).astype(np.uint8)


def write_pgm(path: str, image: np.ndarray) -> None:
    """Binary (P5) grayscale image, maxval 255, row-major payload."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise MetricsError("PGM image must be 2-D")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


def parse_pgm(path: str) -> np.ndarray:
    """Read back a binary PGM written by :func:`write_pgm`."""
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


def render_masks(masks, out_dir: str) -> list:
    """Write one PGM per slot per mask group plus a plain-text index.

    ``masks`` is a sequence of (branch, group_index, weights [M, N],
    image_shape), where the image shape lays the M rows out in raster order:
    (H, W) for a slow frame, (T, 1) for a fast position's time series. Weight
    1 maps to pixel 255 (floor quantization). Returns the written file names
    in index order; the index file itself is ``index.txt``.
    """
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for branch, group, mask, image_shape in masks:
        weights = _weights(mask)
        if int(np.prod(image_shape)) != weights.shape[0]:
            raise MetricsError(f"image shape {tuple(image_shape)} does not match {weights.shape[0]} mask rows")
        for slot in range(weights.shape[1]):
            name = f"{branch}_{group:03d}_slot{slot:02d}.pgm"
            write_pgm(os.path.join(out_dir, name), _quantize(weights[:, slot]).reshape(image_shape))
            entries.append((branch, group, slot, name))
    index_path = os.path.join(out_dir, "index.txt")
    with open(index_path, "w", encoding="ascii") as fh:
        for branch, group, slot, name in entries:
            fh.write(f"{branch} {group} {slot} {name}\n")
    return [name for *_ignored, name in entries]


# -- aggregate reports -------------------------------------------------------------------


_REPORT_SCALARS = (
    "spatial_ari",
    "temporal_ari",
    "slot_overlap_slow",
    "slot_overlap_fast",
    "mask_entropy_slow",
    "mask_entropy_fast",
    "probe_acc",
)


def _number(kind, key: str, text: str):
    try:
        value = kind(text)
    except ValueError:
        raise MetricsError(f"report value of {key} is not a number: {text!r}") from None
    if kind is float and not math.isfinite(value):  # float() reads nan and inf
        raise MetricsError(f"report value of {key} is not finite: {text!r}")
    return value


@dataclass
class DecouplingReport:
    """Aggregate decoupling and probe numbers for one trained connector."""

    connector: str
    seed: int
    config_hash: str
    n_tokens: int
    scenes: int
    spatial_ari: float | None = None
    temporal_ari: float | None = None
    slot_overlap_slow: float | None = None
    slot_overlap_fast: float | None = None
    mask_entropy_slow: float | None = None
    mask_entropy_fast: float | None = None
    probe_acc: float | None = None
    probe_acc_per_task: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [
            f"connector {self.connector}",
            f"seed {self.seed}",
            f"config_hash {self.config_hash}",
            f"n_tokens {self.n_tokens}",
            f"scenes {self.scenes}",
        ]
        for key in _REPORT_SCALARS:
            val = getattr(self, key)
            if val is not None:
                lines.append(f"{key} {val!r}")
        for task in sorted(self.probe_acc_per_task):
            lines.append(f"probe_acc.{task} {self.probe_acc_per_task[task]!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DecouplingReport":
        fields: dict = {}
        per_task: dict = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition(" ")
            if not value:
                raise MetricsError(f"malformed report line: {line!r}")
            if key.startswith("probe_acc."):
                per_task[key.split(".", 1)[1]] = _number(float, key, value)
            else:
                fields[key] = value
        try:
            return cls(
                connector=fields["connector"],
                seed=_number(int, "seed", fields["seed"]),
                config_hash=fields["config_hash"],
                n_tokens=_number(int, "n_tokens", fields["n_tokens"]),
                scenes=_number(int, "scenes", fields["scenes"]),
                probe_acc_per_task=per_task,
                **{key: _number(float, key, fields[key]) for key in _REPORT_SCALARS if key in fields},
            )
        except KeyError as exc:
            raise MetricsError(f"report missing required key: {exc}") from exc

    def save(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path: str) -> "DecouplingReport":
        try:
            with open(path, "r", encoding="ascii") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise MetricsError(f"report {path} is not ASCII text: {exc}") from exc
        return cls.from_text(text)


def compare_table(reports) -> str:
    """Side-by-side text table, one row per report."""
    cols = ("connector", "n_tokens", "spatial_ari", "temporal_ari", "overlap", "entropy", "probe_acc")

    def fmt(val, nd=4):
        if val is None:
            return "-"
        if isinstance(val, float):
            return f"{val:.{nd}f}"
        return str(val)

    def mean_opt(*vals):
        present = [v for v in vals if v is not None]
        return sum(present) / len(present) if present else None

    rows = [cols]
    for rep in reports:
        rows.append(
            (
                rep.connector,
                str(rep.n_tokens),
                fmt(rep.spatial_ari),
                fmt(rep.temporal_ari),
                fmt(mean_opt(rep.slot_overlap_slow, rep.slot_overlap_fast)),
                fmt(mean_opt(rep.mask_entropy_slow, rep.mask_entropy_fast)),
                fmt(rep.probe_acc),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(cols))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(len(cols))))
    return "\n".join(lines) + "\n"
