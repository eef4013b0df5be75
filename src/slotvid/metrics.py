"""Decoupling metrics over attention masks, plus mask rendering and reports.

A mask is one set's [tokens, slots] weight matrix; each metric scores a stack
of them, an aggregator's [sets, tokens, slots] output, and returns one value
per set. Each input token goes to its strongest slot (argmax), and each set's
partition is scored against its row of the [sets, tokens] ground truth with
the adjusted Rand index. Column overlap and row entropy quantify how much
slots share tokens and how concentrated each token's assignment is.

``DecouplingReport`` aggregates them per trained connector; its docstring
states the report's text format, which its fields declare.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields

import numpy as np


class MetricsError(Exception):
    """Invalid metric input or unreadable artifact."""


def _stack(masks) -> np.ndarray:
    arr = np.asarray(masks, dtype=np.float32)
    if arr.ndim != 3:
        raise MetricsError(f"masks must be a [sets, tokens, slots] stack, got shape {arr.shape}")
    return arr


def hard_assign(masks) -> np.ndarray:
    """Argmax slot per input token [sets, tokens]; ties break toward the lowest slot index."""
    return np.argmax(_stack(masks), axis=2)


def _comb2(x):
    return x * (x - 1) // 2


def ari(pred, truth) -> np.ndarray:
    """Adjusted Rand index of each set's two labelings, rows of [sets, tokens],
    from its contingency table. The pair sums are exact integers, and their
    product sum_rows * sum_cols stays exact in float64 up to 13,000 tokens."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    if pred.ndim != 2 or pred.shape != truth.shape:
        raise MetricsError(f"labels must be two [sets, tokens] stacks of one shape, got {pred.shape} and {truth.shape}")
    s, m = pred.shape
    if m < 2:
        raise MetricsError("need at least two items")
    p_vals, p = np.unique(pred, return_inverse=True)
    t_vals, t = np.unique(truth, return_inverse=True)
    n_p, n_t = len(p_vals), len(t_vals)
    cells = (np.arange(s)[:, None] * n_p + p.reshape(s, m)) * n_t + t.reshape(s, m)
    table = np.bincount(cells.ravel(), minlength=s * n_p * n_t).reshape(s, n_p, n_t)
    index = _comb2(table).sum(axis=(1, 2))
    sum_rows = _comb2(table.sum(axis=2)).sum(axis=1).astype(np.float64)
    sum_cols = _comb2(table.sum(axis=1)).sum(axis=1).astype(np.float64)
    expected = sum_rows * sum_cols / _comb2(m)
    max_index = 0.5 * (sum_rows + sum_cols)
    # both partitions trivial in the same way (all-singletons or one lump) score 1
    return np.divide(index - expected, max_index - expected, out=np.ones(s), where=max_index != expected)


def slot_overlap(masks) -> np.ndarray:
    """Mean pairwise cosine similarity between each set's mask columns; a pair
    with a zero column scores 0."""
    w = _stack(masks).astype(np.float64)
    n = w.shape[2]
    if n < 2:
        raise MetricsError("slot overlap needs at least two slots")
    gram = np.matmul(w.transpose(0, 2, 1), w)
    norms = np.linalg.norm(w, axis=1)
    i, j = np.triu_indices(n, 1)
    denom = norms[:, i] * norms[:, j]
    cosine = np.divide(gram[:, i, j], denom, out=np.zeros_like(denom), where=denom > 0)
    # equal columns can read a rounding step above 1 (1.0000000000000002),
    # which a report, whose overlap lies in [0, 1], would refuse to read back
    return np.minimum(cosine, 1.0).mean(axis=1)


def mask_entropy(masks) -> np.ndarray:
    """Mean over each set's rows of the natural-log entropy of the slot distribution."""
    w = _stack(masks).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0, -w * np.log(w), 0.0)
    return terms.sum(axis=2).mean(axis=1)


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
        weights = np.asarray(mask, dtype=np.float32)
        if weights.ndim != 2:
            raise MetricsError("mask must be a [tokens, slots] matrix")
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


def _line(kind, low=-math.inf, high=math.inf, **default):
    """A report field whose text reads as ``kind`` (``str``, ``int`` or
    ``float``) and whose number lies in the closed range [low, high]."""
    return field(metadata={"line": (kind, low, high)}, **default)


def _read(f, key: str, text: str):
    """The value of report line ``key`` by its field ``f``'s declaration."""
    kind, low, high = f.metadata["line"]
    if kind is str:
        return text
    try:
        value = kind(text)
    except ValueError:
        raise MetricsError(f"report value of {key} is not a number: {text!r}") from None
    if kind is float and not math.isfinite(value):  # float() reads nan and inf
        raise MetricsError(f"report value of {key} is not finite: {text!r}")
    if not low <= value <= high:
        raise MetricsError(f"report value of {key} is outside [{low:g}, {high:g}]: {text!r}")
    return value


# the field whose entries are the report's probe_acc.<task> lines
_PER_TASK, _TASK_KEY = "probe_acc_per_task", "probe_acc."


@dataclass
class DecouplingReport:
    """Aggregate decoupling and probe numbers for one trained connector.

    The report text is one ``<field> <value>`` line per field, in field order,
    with no line for a None value, and one ``probe_acc.<task> <value>`` line
    per entry of ``probe_acc_per_task``, tasks sorted. A value prints as its
    ``str``, a float's ``repr``. Each field declares how its text reads and
    the closed range of its value (``_line``); every task line reads by
    ``probe_acc_per_task``'s declaration.
    """

    connector: str = _line(str)
    seed: int = _line(int, 0, 2**64 - 1)  # the config's seed range
    config_hash: str = _line(str)
    n_tokens: int = _line(int, 1)
    scenes: int = _line(int, 1)
    spatial_ari: float | None = _line(float, -1.0, 1.0, default=None)
    temporal_ari: float | None = _line(float, -1.0, 1.0, default=None)
    slot_overlap_slow: float | None = _line(float, 0.0, 1.0, default=None)
    slot_overlap_fast: float | None = _line(float, 0.0, 1.0, default=None)
    mask_entropy_slow: float | None = _line(float, 0.0, default=None)
    mask_entropy_fast: float | None = _line(float, 0.0, default=None)
    probe_acc: float | None = _line(float, 0.0, 1.0, default=None)
    probe_acc_per_task: dict = _line(float, 0.0, 1.0, default_factory=dict)

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == _PER_TASK:
                lines += [f"{_TASK_KEY}{task} {value[task]}" for task in sorted(value)]
            elif value is not None:
                lines.append(f"{f.name} {value}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DecouplingReport":
        declared = {f.name: f for f in fields(cls)}
        per_task = declared.pop(_PER_TASK)
        read: dict = {}
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition(" ")
            if not value:
                raise MetricsError(f"malformed report line: {line!r}")
            is_task = key.startswith(_TASK_KEY)
            if not is_task and key not in declared:
                raise MetricsError(f"unknown report key: {key!r}")
            if key == _TASK_KEY:
                raise MetricsError(f"report key {key!r} names no task")
            if key in read:
                raise MetricsError(f"repeated report key: {key!r}")
            read[key] = _read(per_task if is_task else declared[key], key, value)
        for name, f in declared.items():
            if name not in read and f.default is MISSING:
                raise MetricsError(f"report missing required key: {name!r}")
        tasks = {key[len(_TASK_KEY):]: value for key, value in read.items() if key not in declared}
        return cls(**{key: value for key, value in read.items() if key in declared}, probe_acc_per_task=tasks)

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
