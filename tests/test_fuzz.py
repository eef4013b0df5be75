"""Property tests of the two parsers of outside input: the checkpoint
container and the config document. Whatever bytes or JSON values they are
given, the only exception that may escape is the module's own error type,
which the CLI maps to exit code 3 or 2."""

import os
import struct
import tempfile
import zlib

from hypothesis import given
from hypothesis import strategies as st

import numpy as np

from slotvid.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from slotvid.config import ConfigError, default_config_dict, from_dict


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
