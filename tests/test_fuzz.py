"""Property tests of the parsers of outside input: the checkpoint container,
the config file and document, and the report file. Whatever bytes, text or
JSON values they are given, the only exception that may escape is the
module's own error type, which the CLI maps to exit code 3 or 2."""

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

from slotvid.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from slotvid.config import ConfigError, default_config_dict, from_dict, load_config
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
