"""Checks on the repository's own files: no module imports a name it never
reads, the package defines no private name or method it never reads, and
the README's library quickstart runs as written."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import latprune

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "latprune").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by ``import`` and never reads, in order;
    ``from __future__ import ...`` binds none.  A dotted ``import a.b``
    binds ``a``.  A name read anywhere in the module counts as read."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_what_it_should():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from a import b, c as d\nfrom e import *\ndef f():\n    import g\n"
              "    return os, d\nb = 1\n")
    assert unused_imports(source) == ["j", "b", "g"]


def unread_definitions(sources: list[str]) -> list[str]:
    """The module-level private names and the non-dunder methods (as
    ``Class.name``) that `sources` define and none of them reads, in order.
    A read is a loaded name, a loaded attribute, a name imported from a
    module or a string equal to the name, so a table of names such as
    ``__init__._EXPORTS`` or ``cli._LAZY`` reads its entries."""
    trees = [ast.parse(source) for source in sources]
    read, defined = set(), []
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                read.add(n.id if isinstance(n, ast.Name) else n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(a.name for a in n.names)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                read.add(n.value)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(n, n) for n in names if n.startswith("_") and not n.startswith("__")]
            if isinstance(node, ast.ClassDef):
                defined += [(f"{node.name}.{m.name}", m.name) for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not (m.name.startswith("__") and m.name.endswith("__"))]
    return [shown for shown, name in defined if name not in read]


def test_the_package_defines_nothing_it_never_reads():
    assert unread_definitions([p.read_text(encoding="utf-8") for p in PACKAGE]) == []


def test_the_unread_definition_scan_finds_what_it_should():
    first = ("import a\nfrom b import _imported\n_kept = 1\n_lost: int = 2\n_x, y = 3, 4\n"
             "def _unused():\n    return _kept\nclass _Used:\n    def __init__(self): pass\n"
             "    def read(self): pass\n    def unread(self): pass\n    def _named(self): pass\n"
             "public = 5\n")
    second = "from m import _Used\n_Used().read()\nNAMES = ['_named']\na._lost = 6\n"
    assert unread_definitions([first, second]) == ["_lost", "_unused", "_Used.unread"]


def test_readme_quickstart_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    script = tmp_path / "quickstart.py"
    script.write_text(block, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(latprune.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("pruned structure for tiny_mixed\n")
