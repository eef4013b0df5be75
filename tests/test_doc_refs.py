"""Every dotted name a ``slotvid`` module quotes in double backticks resolves.

A quoted ``first.name[.attr]`` whose first part names a ``slotvid`` module,
or a name the quoting module binds at its top level, must resolve by import
and attribute lookup. A dataclass field counts, since a field with a
``default_factory`` is no class attribute. A rename or deletion that leaves
a docstring or comment pointing at the old name fails here.
"""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slotvid"
MODULES = sorted(path.stem for path in SRC.glob("*.py") if path.stem != "__init__")
REF = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)``")


def _resolves(obj, parts) -> bool:
    for i, part in enumerate(parts):
        if hasattr(obj, part):
            obj = getattr(obj, part)
        else:
            last = i == len(parts) - 1
            return last and dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}
    return True


def unresolved(module: str, source: str) -> list[str]:
    """The quoted references in ``source``, read as the text of ``slotvid.<module>``, that do not resolve."""
    namespace = vars(importlib.import_module(f"slotvid.{module}"))
    bad = []
    for ref in sorted(set(REF.findall(source))):
        first, *rest = ref.split(".")
        if first in MODULES:
            root = importlib.import_module(f"slotvid.{first}")
        elif first in namespace:
            root = namespace[first]
        else:
            continue  # a local name, a file name or another package's: nothing to import
        if not _resolves(root, rest):
            bad.append(ref)
    return bad


def test_checker_flags_a_leftover():
    source = ('"""``decoder.cross_attention`` gone, ``engine.cross_attention_block``,\n'
              "``SceneTruth.probe`` a field, ``SceneTruth.label`` none, ``cfg.qt_heads`` a local.\"\"\"\n")
    assert unresolved("synthetic", source) == ["SceneTruth.label", "decoder.cross_attention"]


@pytest.mark.parametrize("module", MODULES)
def test_quoted_references_resolve(module):
    assert unresolved(module, (SRC / f"{module}.py").read_text(encoding="utf-8")) == []
