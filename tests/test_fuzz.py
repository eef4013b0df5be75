"""Property tests of the parsers of outside input: the checkpoint container,
the config file and document, the config dataclasses, and the report file.
Whatever bytes, text or JSON values they are given, the only exception that
may escape is the module's own error type, which the CLI maps to exit code 3
or 2."""

import json
import math
import os
import struct
import tempfile
import zlib
from dataclasses import fields

from hypothesis import given
from hypothesis import strategies as st

import numpy as np
import pytest

from slotvid.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from slotvid.config import (
    ConfigError,
    ConnectorConfig,
    DataConfig,
    SceneRanges,
    StageConfig,
    default_config_dict,
    from_dict,
    load_config,
)
from slotvid.metrics import DecouplingReport, MetricsError


def _valid_container() -> bytes:
    tensors = {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3), "s": np.array(1.5, dtype=np.float32),
               "é": np.zeros((0, 4), dtype=np.float32)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.sfsl")
        save_checkpoint(tensors, path)
        with open(path, "rb") as fh:
            return fh.read()


VALID = _valid_container()
BODY = VALID[12:-4]  # the tensor table, after magic, version and count

# a mutation of the table: overwrite, insert or delete a run of bytes, with
# integers planted as little-endian words so lengths, ranks and dims go wild
_edit = st.tuples(
    st.sampled_from(["overwrite", "insert", "delete"]),
    st.integers(0, len(BODY)),
    st.one_of(
        st.binary(min_size=1, max_size=12),
        st.integers(0, 2**32 - 1).map(lambda v: struct.pack("<I", v)),
        st.integers(0, 2**64 - 1).map(lambda v: struct.pack("<Q", v)),
    ),
)


def _mutate(body: bytes, edits) -> bytes:
    out = bytearray(body)
    for kind, at, data in edits:
        at = min(at, len(out))
        if kind == "overwrite":
            out[at : at + len(data)] = data
        elif kind == "insert":
            out[at:at] = data
        else:
            del out[at : at + len(data)]
    return bytes(out)


@given(edits=st.lists(_edit, min_size=1, max_size=4), count=st.one_of(st.just(3), st.integers(0, 2**32 - 1)))
def test_load_checkpoint_raises_only_checkpoint_error(edits, count):
    blob = b"SFSL" + struct.pack("<II", 1, count) + _mutate(BODY, edits)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)  # a valid CRC, so the parser is reached
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.sfsl")
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            tensors = load_checkpoint(path)
        except CheckpointError:
            return
    assert all(arr.dtype == np.float32 for arr in tensors.values())


# JSON values two levels deep: scalars, and lists and objects of scalars; the
# strings come from a small alphabet that spells the config's own words, so
# choice fields sometimes get a valid one
_text = st.text(alphabet="abcdefghilmnorstuwy-_. é\x00", max_size=10) | st.sampled_from(
    ["slot", "pooling", "query_transformer", "slow", "fast", "both", "constant", "cosine", "relu", "tanh"])
_scalar = st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | _text
_json = _scalar | st.lists(_scalar, max_size=3) | st.dictionaries(_text, _scalar, max_size=3)


def _section(fields):
    # any subset of the section's real keys, each with an arbitrary JSON value
    return st.fixed_dictionaries({}, optional={key: _json for key in fields})


_doc = st.fixed_dictionaries({}, optional={
    name: _section(fields) if isinstance(fields, dict) else _json for name, fields in default_config_dict().items()
})


@given(doc=_doc)
def test_from_dict_raises_only_config_error(doc):
    try:
        from_dict(doc)
    except ConfigError:
        pass


@given(doc=_json)
def test_from_dict_any_json_root(doc):
    try:
        from_dict(doc)
    except ConfigError:
        pass


# every field of the document, as (section, key), the top-level ones with key None
_FIELDS = [(name, key) for name, fields in default_config_dict().items() if isinstance(fields, dict)
           for key in fields] + [(name, None) for name, fields in default_config_dict().items()
                                 if not isinstance(fields, dict)]


# 1e39 is a finite float64 that overflows float32, the arithmetic of a run
@given(where=st.sampled_from(_FIELDS), value=st.sampled_from([math.nan, math.inf, -math.inf, 1e400, 1e39, -1e39]))
def test_from_dict_refuses_non_finite_numbers(where, value):
    section, key = where
    try:
        from_dict({section: value if key is None else {key: value}})
    except ConfigError:
        return
    raise AssertionError(f"{section}.{key} = {value} was accepted")


def _holds_kind(f, value) -> bool:
    """Whether ``value`` is of the kind that config field ``f`` declares, exactly:
    a float field holds a finite float, a pair a tuple of two integers."""
    kind = f.metadata["kind"]
    if value is None:
        return f.default is None and f.metadata["by_stage"] is None
    if isinstance(kind, tuple):
        return any(type(value) is type(choice) and value == choice for choice in kind)
    if kind is tuple:
        return type(value) is tuple and len(value) == 2 and all(type(v) is int for v in value)
    return type(value) is kind and (kind is not float or math.isfinite(value))


def _declared(cls):
    return [f for f in fields(cls) if "kind" in f.metadata]


# each config dataclass built directly, from any subset of its declared fields
# with arbitrary JSON values, or with near-valid ones so that some builds pass:
# the default, small numbers of either type, a bool and a pair given as a list
_near = st.sampled_from([1, 2, 4, 0, 0.5, 2.0, True, [1, 3]])


@pytest.mark.parametrize("cls", [ConnectorConfig, SceneRanges, StageConfig, DataConfig])
@given(data=st.data())
def test_config_dataclass_built_valid_or_refused(cls, data):
    kw = data.draw(st.fixed_dictionaries({}, optional={f.name: _json | _near | st.just(f.default)
                                                        for f in _declared(cls)}))
    try:
        cfg = cls(**kw)
    except ConfigError:
        return
    for f in _declared(cls):
        assert _holds_kind(f, getattr(cfg, f.name)), (f.name, getattr(cfg, f.name))


@pytest.mark.parametrize("build", [
    lambda: ConnectorConfig(qt_layers=True),  # a bool is not a layer count
    lambda: ConnectorConfig(iters_slow="3"),
    lambda: SceneRanges(sigma=float("nan")),
    lambda: StageConfig(stage=2, steps=-1),
    lambda: DataConfig(n_heldout_scenes=0),
], ids=["qt_layers-bool", "iters_slow-str", "sigma-nan", "steps-negative", "heldout-zero"])
def test_config_dataclass_refuses_invalid_field(build):
    with pytest.raises(ConfigError):
        build()


def _write_read(data: bytes, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(data)
        return read(path)


# a valid document's JSON (NaN and Infinity as JSON spells them), arbitrary
# bytes, or the two spliced, so the decoder, the parser and the validation
# are each reached
_doc_bytes = _doc.map(lambda doc: json.dumps(doc).encode("utf-8"))
_file_bytes = st.binary(max_size=64) | _doc_bytes | st.tuples(_doc_bytes, st.binary(min_size=1, max_size=8),
                                                                st.integers(0, 200)).map(
    lambda t: t[0][: t[2]] + t[1] + t[0][t[2]:])


@given(data=_file_bytes)
def test_load_config_raises_only_config_error(data):
    try:
        _write_read(data, load_config)
    except ConfigError:
        pass


# report text: lines of every key the report's fields declare (or other words) and values
_report_keys = [f.name for f in fields(DecouplingReport)] + ["probe_acc.occupancy", "probe_acc."]
_report_line = st.tuples(st.sampled_from(_report_keys) | st.text(max_size=6),
                         st.sampled_from(["1", "0.5", "nan", "slot", ""]) | st.text(max_size=6)).map(" ".join)
_report_text = st.text(max_size=40) | st.lists(_report_line, max_size=8).map("\n".join)


@given(text=_report_text)
def test_report_from_text_raises_only_metrics_error(text):
    try:
        DecouplingReport.from_text(text)
    except MetricsError:
        pass


@given(data=st.binary(max_size=64) | _report_text.map(lambda text: text.encode("utf-8")))
def test_report_load_raises_only_metrics_error(data):
    try:
        _write_read(data, DecouplingReport.load)
    except MetricsError:
        pass
