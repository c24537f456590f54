"""Every name a module of `sra` imports is used there, and every
function, class and method it defines is read somewhere in `sra`.

The one exception to the first is a name that `perfbench/test_tracer.py`
pins in its `COPIED` table: the benchmark's tracer patches that binding
site, so the import stays until the tracer no longer needs it.  Running
this file,

    python tests/test_imports.py

lists those imports, which are what to delete once it does.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sra"


def copied_pins():
    """(module, name) pairs pinned by the tracer test's `COPIED`, read
    from its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "test_tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COPIED" for t in node.targets
        ):
            copied = ast.literal_eval(node.value)
            return {(module, name) for name, modules in copied.items() for module in modules}
    raise AssertionError("perfbench/test_tracer.py defines no COPIED")


def unused_imports(path: Path):
    """Names path imports and never reads, `__future__` features aside."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {name: line for name, line in imported.items() if name not in used}


def pinned_unused():
    pins = copied_pins()
    return sorted(
        (path.stem, name)
        for path in SRC.glob("*.py")
        for name in unused_imports(path)
        if (path.stem, name) in pins
    )


def test_no_module_imports_a_name_it_never_uses():
    pins = copied_pins()
    dead = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in unused_imports(path).items()
        if (path.stem, name) not in pins
    ]
    assert not dead, dead


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from .core import Sra, dumps\n"
        "def f(S: Sra):\n"
        "    return os.sep\n"
    )
    assert unused_imports(module) == {"regex": 2, "dumps": 3}


def definitions(tree):
    """The name of each module-level function and class in tree, and of
    each method whose name is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item.name


def reads(tree):
    """The names tree reads: loaded names and attributes, and the names
    its imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]


def unread_definitions(paths):
    """module.name of each definition in paths that none of them reads."""
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    read = {name for tree in trees.values() for name in reads(tree)}
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name not in read
    )


def test_every_definition_is_read_somewhere_in_sra():
    assert unread_definitions(SRC.glob("*.py")) == []


def test_the_check_sees_an_unread_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from .core import Sra\n"
        "class A:\n"
        "    def __init__(self):\n"
        "        self.x = self.used()\n"
        "    def used(self):\n"
        "        return helper\n"
        "    def unused(self):\n"
        "        pass\n"
        "def helper():\n"
        "    pass\n"
        "def dead(S: Sra):\n"
        "    dead = A()\n"
        "class Dead:\n"
        "    pass\n"
    )
    assert unread_definitions([module]) == ["m.Dead", "m.dead", "m.unused"]


if __name__ == "__main__":
    for module, name in pinned_unused():
        print(f"sra.{module} imports {name} only for the tracer")
