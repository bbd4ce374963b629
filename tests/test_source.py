"""Checks on the repository's own files: no module imports a name it never
reads, and the README's library quickstart runs as written."""

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
