"""Static hygiene: no module under ``src/ipuq`` imports a name it never uses.

No linter ships with the project, so this walks each module's syntax tree
with the standard library alone.  A module-level import counts as used when
its bound name appears anywhere in the module or in the module's
``__all__`` (which is how the package ``__init__`` files re-export).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ipuq"


def _bound_names(node: ast.stmt) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [a.asname or a.name for a in node.names if a.name != "*"]
    return []


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level import the module never uses."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    return [
        (node.lineno, name)
        for node in tree.body
        for name in _bound_names(node)
        if name not in used
    ]


def test_no_unused_module_level_imports():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    unused = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.dom\n"
        "from typing import Any, Iterator\n"
        "__all__ = ['Any']\n"
        "print(os.sep, xml.dom)\n"
    )
    assert unused_imports(source) == [(2, "sys"), (4, "Iterator")]
