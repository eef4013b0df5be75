"""Every name a ``slotvid`` module imports is used in that module, and every
function and class it defines is named by some ``slotvid`` code.

A deletion that leaves an import behind, such as an engine op the module no
longer calls, fails here. ``ALLOWED`` holds the bindings kept on purpose:
the traced branch functions that the benchmark tracer requires ``training``
to hold.

Code that only tests run belongs with the tests, so a module-level function
or class that no ``src/`` code names outside its own definition fails too,
and so does a module-level constant that no ``src/`` code reads.
``UNCALLED`` holds the ones kept on purpose, each with its reason.

An option that no run sets is test-only code too: every defaulted parameter
of a module-level function, of a module-level class's ``__init__`` (such as
``Value.__init__``) and of its classmethods and staticmethods (such as
``DecoderParams.create``) must be passed by some ``src/`` call, by keyword
or by position. ``SET_OUTSIDE`` holds the ones that only a caller outside
``src/`` sets, each with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "slotvid"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))
ALLOWED = {("training", "fast_branch_batch"), ("training", "slow_branch_batch")}
UNCALLED = {
    # the chance level that ROADMAP item 2(c)'s probe gate compares probe accuracy against
    ("training", "majority_accuracy"),
    # the package version, read by whoever imports the package
    ("__init__", "__version__"),
}
SET_OUTSIDE = {
    # the CLI calls each trainer through a variable, runner(rc, out_dir=..., resume=...)
    *(f"training.{runner}({param})" for runner in ("run_stage1", "run_stage2", "run_stage3", "run_baseline")
      for param in ("out_dir", "resume")),
    # tests pass argv; the console script leaves it None, so argparse reads sys.argv
    "cli.main(argv)",
    # the benchmark harness tags each held-out request's scenes and scores one
    # scene per request; a run scores data.n_heldout_scenes
    "training.evaluate_model(tag)",
    "training.evaluate_model(n_scenes)",
}


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


def _named(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every identifier that code in ``tree`` names, outside the subtree ``skip``:
    as a ``Name``, as the attribute of an ``Attribute`` or as an imported name."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _defined(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function's or a class's,
    or each name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return []


def unreferenced(sources: dict[str, str]) -> list[str]:
    """The ``module.name`` of each module-level function, class and constant in
    ``sources`` (module name to text) that no code in them names outside its
    own definition; assigning a name does not name it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    named = {module: _named(tree) for module, tree in trees.items()}
    dead = set()
    for module, tree in trees.items():
        elsewhere = set().union(*(names for other, names in named.items() if other != module))
        for node in tree.body:
            for name in _defined(node):
                if name not in elsewhere and name not in _named(tree, skip=node):
                    dead.add(f"{module}.{name}")
    return sorted(dead)


def test_dead_code_checker_flags_a_leftover():
    # named by a call (take), an attribute (read), an import alone (traced)
    # or only inside its own definition (vsum), or not at all (Spare)
    sources = {
        "engine": "def take(a):\n    return a\n\n\ndef traced(a):\n    return a\n\n\n"
                  "def vsum(a):\n    return vsum(a)\n\n\nclass Spare:\n    pass\n",
        "connector": "from .engine import take, traced\n\n\ndef read(a):\n    return take(a)\n",
        "cli": "from . import connector\n\n\ndef main():\n    return connector.read(0)\n\n\nmain()\n",
    }
    assert unreferenced(sources) == ["engine.Spare", "engine.vsum"]


def test_dead_code_checker_flags_an_unread_constant():
    # read by a function (_SCALE), by another module (LIMIT) or by another
    # constant (_BASE), or only assigned: once (_BRANCH_VIEWS, _OTHER) or twice (_SPARE)
    sources = {
        "connector": "_BASE = 2\n_SCALE = _BASE * 2\nLIMIT: int = 8\n"
                     "_BRANCH_VIEWS = {'both': ('slow', 'fast')}\n_SPARE, _OTHER = 1, _BASE\n_SPARE = 3\n\n\n"
                     "def read(a):\n    return a * _SCALE\n",
        "cli": "from . import connector\n\n\ndef main():\n    return connector.read(connector.LIMIT)\n\n\nmain()\n",
    }
    assert unreferenced(sources) == ["connector._BRANCH_VIEWS", "connector._OTHER", "connector._SPARE"]


def test_every_definition_is_named():
    sources = {module: (SRC / f"{module}.py").read_text(encoding="utf-8") for module in MODULES}
    assert unreferenced(sources) == sorted(f"{module}.{name}" for module, name in UNCALLED)


def _bindings(module: str, tree: ast.AST) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """The names by which ``module`` calls ``slotvid`` functions: (local name to
    (module, function), for its own module-level definitions and the names it
    imports by ``from .x import y``; local name to module, for the modules it
    binds by ``from . import x``)."""
    names = {node.name: (module, node.name) for node in tree.body if hasattr(node, "name")}
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
            names.update({alias.asname or alias.name: (node.module, alias.name) for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.update({alias.asname or alias.name: alias.name for alias in node.names})
    return names, modules


def _options(module: str, tree: ast.AST) -> dict:
    """(module, callee) to {defaulted parameter: its position among the positional
    ones, None if keyword-only}, for each module-level function of ``tree``, each
    module-level class with its own ``__init__`` (the callee is the class) and
    each classmethod and staticmethod of such a class (``Class.method``)."""
    callees = []  # (callee, arguments, leading parameters the call does not pass)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            callees.append((node.name, node.args, 0))
        elif isinstance(node, ast.ClassDef):
            for f in node.body:
                if not isinstance(f, ast.FunctionDef):
                    continue
                decorators = {d.id for d in f.decorator_list if isinstance(d, ast.Name)}
                if f.name == "__init__":
                    callees.append((node.name, f.args, 1))  # self
                elif decorators & {"classmethod", "staticmethod"}:
                    callees.append((f"{node.name}.{f.name}", f.args, int("classmethod" in decorators)))  # cls
    options = {}
    for name, args, skip in callees:
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        params = {a.arg: i for i, a in enumerate(positional) if i >= first}
        params.update({a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None})
        if params:
            options[(module, name)] = params
    return options


def unset_options(sources: dict[str, str]) -> list[str]:
    """The ``module.function(parameter)`` of each defaulted parameter of a
    module-level function, or of a module-level class's ``__init__``,
    classmethods and staticmethods (``module.Class.method(parameter)``), that
    no call in ``sources`` (module name to text) passes, by keyword or by
    position. A call is resolved through the calling module's own definitions,
    ``from .x import y`` and ``from . import x``, and ``Class.method(...)``
    through the binding of ``Class``; a ``**`` argument passes every
    parameter."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    options = {}
    for module, tree in trees.items():
        options.update(_options(module, tree))
    passed = set()
    for module, tree in trees.items():
        names, modules = _bindings(module, tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                callee = names.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                callee = (modules[func.value.id], func.attr)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in names:
                owner, cls = names[func.value.id]
                callee = (owner, f"{cls}.{func.attr}")
            else:
                continue
            spread = any(k.arg is None for k in call.keywords)
            for param, pos in options.get(callee, {}).items():
                if spread or any(k.arg == param for k in call.keywords) or (pos is not None and pos < len(call.args)):
                    passed.add((callee, param))
    return sorted(f"{m}.{f}({p})" for (m, f), params in options.items() for p in params
                  if ((m, f), p) not in passed)


def test_options_checker_flags_a_leftover():
    # passed by position (take's indices), by keyword (vmean's axis), to the
    # class (Value's requires_grad), to a classmethod (Params.create's scale)
    # or a staticmethod (Params.norm's eps) through the class's binding,
    # through a module binding (connector's read), by ** (checkpoint's seal),
    # or only to another module's function of the same name (checkpoint's
    # take), or not at all
    sources = {
        "engine": "class Value:\n    def __init__(self, data, requires_grad=False):\n        self.data = data\n\n\n"
                  "class Params:\n    @classmethod\n    def create(cls, n, scale=1.0, layers=2):\n        return cls()\n\n"
                  "    @staticmethod\n    def norm(a, eps=1e-5):\n        return a\n\n\n"
                  "def take(a, indices=0, axis=0):\n    return a\n\n\n"
                  "def vmean(a, axis=None, keepdims=False):\n    return take(a, 1)\n",
        "connector": "from . import engine\nfrom .engine import Params, Value\n\n\n"
                     "def read(a, branch='both', scale=1):\n    Params.create(4, 0.5)\n    Params.norm(a, eps=0.1)\n"
                     "    return engine.vmean(Value(a, True), axis=1)\n",
        "checkpoint": "from . import connector as conn\n\n\n"
                      "def take(n, what, axis=0):\n    return n\n\n\n"
                      "def seal(n, what=None):\n    return n\n\n\n"
                      "take(4, 'table', axis=0)\nconn.read(0, 'slow')\nseal(1, **{})\n",
    }
    assert unset_options(sources) == ["connector.read(scale)", "engine.Params.create(layers)", "engine.take(axis)",
                                      "engine.vmean(keepdims)"]


def test_every_option_is_set():
    sources = {module: (SRC / f"{module}.py").read_text(encoding="utf-8") for module in MODULES}
    assert unset_options(sources) == sorted(SET_OUTSIDE)
