import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from slotvid import engine
from slotvid.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def sample_tensors(seed=1):
    rng = engine.rng_for(seed, "ckpt")
    return {
        "a.weight": engine.normal(rng, (4, 3)),
        "a.bias": engine.normal(rng, (3,)),
        "scalar": np.array(4.0, dtype=np.float32),
        "deep.nested.name": engine.normal(rng, (2, 2, 2)),
    }


class TestRoundTrip:
    def test_bitwise_equal(self, tmp_path):
        path = str(tmp_path / "m.sfsl")
        tensors = sample_tensors()
        save_checkpoint(tensors, path)
        back = load_checkpoint(path)
        assert set(back) == set(tensors)
        for name, arr in tensors.items():
            assert back[name].dtype == np.float32
            assert back[name].tobytes() == np.asarray(arr, dtype=np.float32).tobytes()

    def test_empty_container(self, tmp_path):
        path = str(tmp_path / "empty.sfsl")
        save_checkpoint({}, path)
        assert load_checkpoint(path) == {}

    def test_save_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.sfsl"), str(tmp_path / "b.sfsl")
        save_checkpoint(sample_tensors(), a)
        save_checkpoint(sample_tensors(), b)
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestCorruption:
    def test_payload_bit_flip_detected(self, tmp_path):
        path = str(tmp_path / "m.sfsl")
        save_checkpoint(sample_tensors(), path)
        blob = bytearray(Path(path).read_bytes())
        blob[len(blob) // 2] ^= 0x40
        Path(path).write_bytes(blob)
        with pytest.raises(CheckpointError, match="CRC"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "m.sfsl")
        save_checkpoint({}, path)
        blob = bytearray(Path(path).read_bytes())
        blob[0] = ord("X")
        Path(path).write_bytes(blob)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = str(tmp_path / "m.sfsl")
        body = b"SFSL" + struct.pack("<II", 99, 0)
        body += struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        Path(path).write_bytes(body)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "m.sfsl")
        save_checkpoint(sample_tensors(), path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "missing.sfsl"))


def sealed(body: bytes) -> bytes:
    """A container of one version-1 tensor table ``body`` with its CRC."""
    blob = b"SFSL" + struct.pack("<II", 1, 1) + body
    return blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)


# tensor tables that pass the CRC check but not the parser, one per field
MALFORMED = {
    "name-not-utf8": struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 0) + b"\0" * 4,
    "name-past-end": struct.pack("<I", 1000) + b"ab",
    "rank-past-end": struct.pack("<I", 1) + b"w" + struct.pack("<I", 0xFFFFFFF0),
    "dims-overflow-int64": struct.pack("<I", 1) + b"w" + struct.pack("<IQQ", 2, 2**62, 8) + b"\0" * 8,
    "dims-past-end": struct.pack("<I", 1) + b"w" + struct.pack("<IQ", 3, 1),
    "empty-dims-numpy-cannot-index": struct.pack("<I", 1) + b"w" + struct.pack("<IQQ", 2, 0, 2**64 - 1),
}


class TestMalformedTable:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_raises_checkpoint_error(self, tmp_path, case):
        path = tmp_path / "m.sfsl"
        path.write_bytes(sealed(MALFORMED[case]))
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))


class TestAtomicity:
    def test_no_temp_files_left_after_save(self, tmp_path):
        path = str(tmp_path / "m.sfsl")
        save_checkpoint(sample_tensors(), path)
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".ckpt-")]
        assert leftovers == []

    def test_overwrite_keeps_old_on_failure(self, tmp_path):
        path = str(tmp_path / "m.sfsl")
        save_checkpoint(sample_tensors(1), path)
        good = Path(path).read_bytes()

        class Boom:
            def keys(self):
                return ["x"]

            def __getitem__(self, k):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            save_checkpoint(Boom(), path)
        assert Path(path).read_bytes() == good
