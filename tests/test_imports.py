"""Import hygiene.

Static: no module under ``src/ipuq`` imports a name it never uses, and none
imports an underscore name from another ``ipuq`` module.  No linter ships
with the project, so this walks each module's syntax tree with the standard
library alone.  A module-level import counts as used when its bound name
appears anywhere in the module.  Each public name has one home, the module
that defines it: the package ``__init__`` files hold only a docstring, and
no module's ``__all__`` lists a name the module imports.  Also static: no
``except ... as name:`` body in ``src/ipuq`` writes an attribute on
``name``, and only ``CandidateSet`` case-folds, so the package has one rule
for when two answers match.

Dynamic: every name in a module's ``__all__`` is bound once it is imported.
Importing ``ipuq.core`` or ``ipuq.metrics`` loads no ``ipuq`` module it does
not import itself.  Importing the package loads no network module; the
first mock server and the first HTTP request load them.  These checks run in
a fresh interpreter, since this test process has long since imported them.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ipuq"

NETWORK_MODULES = (
    "http.client", "http.server", "urllib.request", "ssl", "email", "socket", "socketserver",
)


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
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
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
    assert unused_imports(source) == [(2, "sys"), (4, "Any"), (4, "Iterator")]


def docstring_only(source: str) -> bool:
    """Whether ``source`` holds a docstring and nothing else."""
    body = ast.parse(source).body
    return (len(body) == 1 and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str))


def test_package_init_files_hold_only_a_docstring():
    """A name is imported from the module that defines it, never through a
    package, so a new public name is written once."""
    inits = sorted(SRC.rglob("__init__.py"))
    assert inits
    assert [str(p.relative_to(SRC.parent)) for p in inits
            if not docstring_only(p.read_text(encoding="utf-8"))] == []


def test_docstring_checker_accepts_only_a_lone_docstring():
    assert docstring_only('"""Doc."""\n')
    assert not docstring_only("")
    assert not docstring_only("x = 1\n")
    assert not docstring_only('"""Doc."""\nfrom .core import ConfigError\n')
    assert not docstring_only('"""Doc."""\n__all__ = []\n')


def exported_imports(source: str) -> list[str]:
    """The names in the module's ``__all__`` that a module-level import binds."""
    tree = ast.parse(source)
    imported = {name for node in tree.body for name in _bound_names(node)}
    return sorted(_exported(tree) & imported)


def test_no_module_exports_a_name_it_imports():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    foreign = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in modules
        for name in exported_imports(path.read_text(encoding="utf-8"))
    ]
    assert foreign == []


def test_exported_import_checker_flags_only_imported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .core import ConfigError, CandidateSet as Answers\n"
        "def f():\n"
        "    from .scores import entropy\n"
        "SCORE_FIELDS = ()\n"
        "__all__ = ['os', 'Answers', 'CandidateSet', 'entropy', 'SCORE_FIELDS', 'f']\n"
    )
    assert exported_imports(source) == ["Answers", "os"]


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every underscore name, dunders aside, that ``source``
    imports from a module of the ``ipuq`` package, at any depth."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ipuq")
        for alias in node.names
        if alias.name.startswith("_")
        and not (alias.name.startswith("__") and alias.name.endswith("__"))
    )


def test_no_private_names_imported_across_modules():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    private = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in private_imports(path.read_text(encoding="utf-8"))
    ]
    assert private == []


def test_private_checker_flags_only_underscore_names_from_the_package():
    source = (
        "from __future__ import annotations\n"
        "from .synth import _CAP, PUBLIC, __version__\n"
        "from ..core import _helper as helper\n"
        "from ipuq.mock import _agent\n"
        "from ipuqx import _other\n"
        "from os import _exit\n"
        "def f():\n"
        "    from . import _private\n"
    )
    assert private_imports(source) == [
        (2, "_CAP"), (3, "_helper"), (4, "_agent"), (8, "_private"),
    ]


def imported_modules(source: str, package: str) -> set[str]:
    """The absolute names of the modules ``source``, a module of ``package``,
    imports at any depth.  ``from m import n`` counts as ``m`` and as
    ``m.n``, since ``n`` may be a submodule."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[:len(parts) - node.level + 1]
                module = ".".join(base + [node.module] if node.module else base)
            else:
                module = node.module
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_the_elicitation_loop_does_not_score():
    """Scoring a payload is the campaign's record table's job alone, so no
    module of ``ipuq.elicit`` imports the score or MMI modules."""
    modules = sorted((SRC / "elicit").rglob("*.py"))
    assert modules
    scoring = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in modules
        for name in sorted(imported_modules(path.read_text(encoding="utf-8"), "ipuq.elicit"))
        if name in ("ipuq.mmi", "ipuq.scores")
    ]
    assert scoring == []


def test_module_checker_resolves_relative_imports():
    source = (
        "import ipuq.mmi\n"
        "from ..scores import entropy\n"
        "from . import client\n"
        "from .. import mmi\n"
        "from .parsing import ParseError\n"
        "def f():\n"
        "    from ipuq import core\n"
    )
    assert imported_modules(source, "ipuq.elicit") == {
        "ipuq.mmi", "ipuq.scores", "ipuq.scores.entropy", "ipuq.elicit", "ipuq.elicit.client",
        "ipuq.elicit.parsing", "ipuq.elicit.parsing.ParseError", "ipuq", "ipuq.core",
    }


def exception_attribute_writes(source: str) -> list[tuple[int, str]]:
    """(line, name) of every write to an attribute of ``name`` inside the body
    of an ``except ... as name:`` clause: an assignment, augmented or
    annotated, to ``name.attr`` anywhere in a target, or ``setattr(name, ...)``."""
    found = []
    for handler in ast.walk(ast.parse(source)):
        if not isinstance(handler, ast.ExceptHandler) or handler.name is None:
            continue
        for node in (n for stmt in handler.body for n in ast.walk(stmt)):
            if isinstance(node, ast.Assign):
                written = [a for t in node.targets for a in ast.walk(t)]
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                written = list(ast.walk(node.target))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "setattr" and node.args):
                written = [ast.Attribute(value=node.args[0])]
            else:
                continue
            found += [(node.lineno, handler.name) for a in written
                      if isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name)
                      and a.value.id == handler.name]
    return sorted(found)


def test_no_exception_carries_attributes_set_where_it_is_caught():
    """Billed attempts reach a record through the list each elicitation loop
    appends to, so no handler stows data on the exception it caught."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    writes = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in modules
        for line, name in exception_attribute_writes(path.read_text(encoding="utf-8"))
    ]
    assert writes == []


def test_exception_attribute_checker_flags_only_writes_on_the_caught_name():
    source = (
        "try:\n"
        "    pass\n"
        "except ValueError as exc:\n"
        "    exc.results = ()\n"
        "    other.results = exc.args\n"
        "    exc.count += 1\n"
        "    first, exc.second = 1, 2\n"
        "    if exc.args:\n"
        "        setattr(exc, 'note', 1)\n"
        "    log(exc.results)\n"
        "except KeyError:\n"
        "    exc.results = ()\n"
        "def f(exc):\n"
        "    exc.results = ()\n"
    )
    assert exception_attribute_writes(source) == [
        (4, "exc"), (6, "exc"), (7, "exc"), (9, "exc"),
    ]


def casefolds_outside(source: str, owner: str) -> list[int]:
    """Lines that name a ``casefold`` attribute (a call, or ``str.casefold``
    passed on) anywhere but inside the body of class ``owner``."""
    found = []

    def visit(node: ast.AST, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "casefold" and not inside:
                found.append(child.lineno)
            visit(child, inside or (isinstance(child, ast.ClassDef) and child.name == owner))

    visit(ast.parse(source), False)
    return sorted(found)


def test_only_the_candidate_set_folds_case():
    """Whether two answers match is the candidate set's decision alone: a
    second case-folding rule once labelled a lowered synthetic prediction
    correct under a case-sensitive set."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    folds = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in modules
        for line in casefolds_outside(path.read_text(encoding="utf-8"), "CandidateSet")
    ]
    assert folds == []


def test_casefold_checker_flags_only_folds_outside_the_owner():
    source = (
        "def f(a):\n"
        "    return a.strip().casefold()\n"
        "class CandidateSet:\n"
        "    def _key(self, a):\n"
        "        return a.casefold()\n"
        "    class Inner:\n"
        "        fold = str.casefold\n"
        "class Other:\n"
        "    keys = sorted(k, key=str.casefold)\n"
        "name = 'casefold'\n"
        "low = a.lower()\n"
    )
    assert casefolds_outside(source, "CandidateSet") == [2, 9]


def test_every_exported_name_is_bound():
    """Each name in a module's ``__all__`` exists once the module is imported,
    so deleting a definition cannot leave a dangling export."""
    dangling = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        dangling += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                     if not hasattr(module, name)]
    assert dangling == []


def test_star_import_of_the_client_binds_its_transport():
    from ipuq.elicit.client import HttpTransport

    namespace: dict = {}
    exec("from ipuq.elicit.client import *", namespace)
    assert namespace["HttpTransport"] is HttpTransport


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter with ``src`` on the path and
    no proxy settings, so a loopback request goes straight to its server."""
    env = {k: v for k, v in os.environ.items() if not k.lower().endswith("_proxy")}
    env["PYTHONPATH"] = str(SRC.parent)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


LOADED = f"print(sorted(m for m in {NETWORK_MODULES!r} if m in sys.modules))"


def test_importing_the_package_loads_no_network_module():
    code = f"import sys, ipuq, ipuq.campaign, ipuq.mock, ipuq.reporting, ipuq.cli\n{LOADED}\n"
    assert run_fresh(code) == "[]\n"


@pytest.mark.parametrize("module, loaded", [
    ("ipuq.core", ["ipuq", "ipuq.core"]),
    ("ipuq.metrics", ["ipuq", "ipuq.core", "ipuq.metrics"]),
])
def test_a_module_loads_only_the_package_modules_it_imports(module, loaded):
    code = f"import sys, {module}\nprint(sorted(m for m in sys.modules if m.startswith('ipuq')))\n"
    assert run_fresh(code) == f"{loaded}\n"


def test_first_mock_server_and_first_request_load_the_network_modules():
    code = f"""\
import sys
from ipuq.core import CandidateSet
from ipuq.elicit.client import HttpTransport, ModelEndpoint
from ipuq.elicit.prompts import PromptKind, render_prompt
from ipuq.mock import AgentConfig, MockScript, start_mock_server
{LOADED}
server, base_url = start_mock_server(MockScript(agent=AgentConfig()))
print("http.server" in sys.modules, "urllib.request" in sys.modules)
user = render_prompt(PromptKind.DEFINETTI, "Which?", CandidateSet(answers=("A", "b")))
reply = HttpTransport(timeout_s=10.0).send(ModelEndpoint(base_url, "m"), "sys", user)
server.shutdown()
server.server_close()
print(reply.output_tokens > 0)
{LOADED}
"""
    assert run_fresh(code).splitlines() == [
        "[]", "True False", "True", str(sorted(NETWORK_MODULES)),
    ]
