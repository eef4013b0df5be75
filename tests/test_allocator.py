"""The import-time allocator setting, ``slotvid._keep_freed_pages``."""

import ctypes
import types

import numpy as np
import pytest

import slotvid


def _no_libc(name):
    raise OSError("no C library")


def test_sets_both_thresholds(monkeypatch):
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    slotvid._keep_freed_pages()
    # M_TRIM_THRESHOLD to 1 GiB, M_MMAP_THRESHOLD to 32 MiB
    assert calls == [(-1, 1 << 30), (-3, 32 << 20)]


@pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(), _no_libc],
                         ids=["no-mallopt", "no-libc"])
def test_missing_mallopt_returns_quietly(monkeypatch, cdll):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert slotvid._keep_freed_pages() is None
    assert slotvid._keep_freed_pages() is None


def test_second_call_is_harmless():
    slotvid._keep_freed_pages()
    slotvid._keep_freed_pages()
    # large arrays still allocate, free and hold their values
    big = np.arange(1 << 22, dtype=np.float32)
    assert big[-1] == (1 << 22) - 1
    del big
