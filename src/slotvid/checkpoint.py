"""Bit-exact binary container for named float32 tensors.

Layout (all integers little-endian):

    magic "SFSL" | version u32 | tensor count u32
    per tensor: name length u32, UTF-8 name, rank u32, dims u64 each,
                raw little-endian float32 payload
    trailing CRC-32 (of every preceding byte)

Writes go to a temp file in the target directory and are renamed into place,
so a crashed writer never leaves a loadable partial file.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from typing import Mapping

import numpy as np

MAGIC = b"SFSL"
VERSION = 1


class CheckpointError(Exception):
    """Corrupt, incompatible or malformed container."""


def save_checkpoint(tensors: Mapping[str, np.ndarray], path: str) -> None:
    """Serialize named tensors; atomic replace on success."""
    names = list(tensors.keys())
    if len(set(names)) != len(names):
        raise CheckpointError("duplicate tensor names")
    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<II", VERSION, len(names))
    for name in names:
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        encoded = name.encode("utf-8")
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<Q", dim)
        blob += arr.tobytes()
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a container back; validates magic, version, CRC, name uniqueness
    and that every value is finite.

    Any malformed container, including one whose CRC holds over a table that
    does not parse or over a NaN or infinite value, raises ``CheckpointError``."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 12:
        raise CheckpointError(f"truncated checkpoint {path}")
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic in {path}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CheckpointError(f"CRC mismatch in {path}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported container version {version}")

    out: dict[str, np.ndarray] = {}
    offset = 12
    end = len(blob) - 4

    def take(nbytes: int, what: str) -> int:
        # every field is bounded against the bytes left, in Python ints
        nonlocal offset
        if nbytes > end - offset:
            raise CheckpointError(f"{what} overruns container in {path}")
        start, offset = offset, offset + nbytes
        return start

    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, take(4, "tensor table"))
        start = take(name_len, "tensor name")
        try:
            name = blob[start:offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8 in {path}") from exc
        (rank,) = struct.unpack_from("<I", blob, take(4, "tensor rank"))
        dims = struct.unpack_from(f"<{rank}Q", blob, take(8 * rank, "tensor dims"))
        size = math.prod(dims)
        arr = np.frombuffer(blob, dtype="<f4", count=size, offset=take(4 * size, "tensor payload"))
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r} in {path}")
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values in {path}")
        try:
            out[name] = arr.reshape(dims).astype(np.float32, copy=True)
        except ValueError as exc:  # an empty payload whose dims numpy cannot index
            raise CheckpointError(f"tensor {name!r} has unsupported dims {dims} in {path}") from exc
    if offset != end:
        raise CheckpointError(f"trailing bytes in {path}")
    return out
