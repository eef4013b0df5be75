"""Every name a ``slotvid`` module imports is used in that module.

A deletion that leaves an import behind, such as an engine op the module no
longer calls, fails here. ``ALLOWED`` holds the bindings kept on purpose:
the traced branch functions that the benchmark tracer requires ``training``
to hold.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slotvid"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
ALLOWED = {("training", "fast_branch_batch"), ("training", "slow_branch_batch")}


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_checker_flags_a_leftover():
    source = "import os\nfrom .engine import take, transpose\n\n\ndef f(a):\n    return take(a, os.sep)\n"
    assert unused_imports(source) == ["transpose"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    names = unused_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert [name for name in names if (module, name) not in ALLOWED] == []
