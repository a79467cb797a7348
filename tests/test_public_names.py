"""Every public name in the package has a reader: the pipeline, the CLI or
the benchmark harness (``perfbench/``, its tests aside).  Every name a test
module imports from the package is used there."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def public_definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    """Public top-level functions and classes, and the public methods of
    every top-level class."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs += [
                member
                for member in node.body
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
            ]
    return defs


def unread_names(sources: dict[str, str], harness: str) -> list[str]:
    """``module:line name`` of each public definition in ``sources`` (module
    name to text) that no other source line and no harness line mentions as
    a whole word.  The definition's own lines do not count as a reader."""
    unread = []
    for module, text in sources.items():
        lines = text.splitlines()
        others = [other for name, other in sources.items() if name != module]
        for node in public_definitions(ast.parse(text)):
            outside = lines[: node.lineno - 1] + lines[node.end_lineno :]
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not word.search("\n".join([*outside, *others, harness])):
                unread.append(f"{module}:{node.lineno} {node.name}")
    return unread


def unused_package_imports(text: str) -> list[str]:
    """``line name`` of each name that ``text`` imports from ``ngramspec``
    and never loads: an unused import hides an untested public name."""
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ngramspec":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line} {name}" for name, line in imported.items() if name not in loaded]


def test_every_public_name_has_a_reader():
    sources = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "ngramspec").glob("*.py"))
    }
    harness = "\n".join(
        path.read_text(encoding="utf-8") for path in sorted((ROOT / "perfbench").glob("*.py"))
    )
    assert unread_names(sources, harness) == []


def test_unread_names_are_reported():
    module = (
        "def walk(n):\n"
        "    return walk(n - 1) if n else 0\n"  # read only by itself
        "\n"
        "class Box:\n"
        "    def open(self):\n"  # read by nobody
        "        return self.shut()\n"
        "\n"
        "    def shut(self):\n"
        "        return Box\n"
        "\n"
        "def _private():\n"
        "    pass\n"
    )
    assert unread_names({"m.py": module}, "") == ["m.py:1 walk", "m.py:4 Box", "m.py:5 open"]
    assert unread_names({"m.py": module}, "Box().open(); walk(3)") == []


def test_tests_use_every_name_they_import_from_the_package():
    unused = {
        path.name: found
        for path in sorted((ROOT / "tests").glob("*.py"))
        if (found := unused_package_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_unused_package_imports_are_reported():
    module = (
        "from ngramspec import cli, draft_tree\n"
        "from ngramspec.decode_loop import reset, run_decode as run\n"
        "from oracles import snapshot\n"
        "\n"
        "def test_x():\n"
        "    run(cli.main, 'reset')\n"  # a string is not a use
    )
    assert unused_package_imports(module) == ["1 draft_tree", "2 reset"]
