"""What importing the package and running a command load.

A command loads only the modules it runs (see the package and CLI module
docstrings): ``check`` runs in ``latprune.cli`` and never loads
``latprune.stamped``, which holds the five commands that write stamped
outputs, and under ``python -m latprune.cli`` no command imports
``latprune.cli`` a second time.  Only the commands that solve or
synthesize load numpy:
``check``, ``extract`` and ``compare-latency-models`` read and check the
documents as standard-library float64 buffers, and none of them loads it.
Only the commands that load numpy, and a command whose documents hold at
least ``ORJSON_MIN_CHARS`` characters together, load ``orjson``
(``latprune.arch.load_json`` and ``dump_json`` import it only then): the
others read and write their documents with ``json``, and so never load
``zoneinfo`` either.  None loads ``numpy.ma`` unless numpy is loaded and a
bare ``import numpy`` loads it (numpy 1.x), none loads ``dataclasses`` (the
record classes are plain classes, see ``latprune.record``), none loads
``hashlib`` or OpenSSL's ``_hashlib`` unless ``numpy.random`` does (input
digests come from CPython's built-in SHA-256; only ``synth`` draws random
numbers), and the lazily resolved public names are the objects their home
modules define.
"""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latprune
from latprune.arch import ORJSON_MIN_CHARS
from latprune.cli import main

DATA = Path(__file__).parent.parent / "demos" / "data"
ARCH = str(DATA / "tiny_mixed.arch.json")


@functools.cache
def loaded_modules(code: str) -> frozenset[str]:
    """The latprune modules, hashlib, _hashlib, numpy, numpy.ma, orjson,
    zoneinfo and dataclasses loaded by a fresh interpreter after running
    `code`.  Each code runs once: the tests below read the same runs."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(latprune.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    modules = json.loads(run.stdout.splitlines()[-1])
    return frozenset(m for m in modules
                     if m.startswith("latprune")
                     or m in ("hashlib", "_hashlib", "numpy", "numpy.ma", "orjson", "zoneinfo",
                              "dataclasses"))


def test_import_loads_no_submodule():
    assert loaded_modules("import latprune") == {"latprune"}


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> Path:
    """tiny_mixed's synthesized documents, a solve report over them for
    ``extract``, and a one-chain architecture with tables and a trajectory
    over it for ``compare-latency-models``."""
    root = tmp_path_factory.mktemp("documents")
    assert main(["synth", "--arch", ARCH, "--seed", "0", "--out", str(root)]) == 0
    assert main(["solve", "--arch", ARCH, "--scores", str(root / "scores.json"),
                 "--lut", str(root / "lut.json"), "--budget-ms", "0.25",
                 "--out", str(root / "run")]) == 0
    chain = root / "chain"
    arch = {
        "name": "chain",
        "dims": [
            {"id": "stem", "role": "fixed_external", "option_count": 1, "group_size": 8,
             "max_elements": 8},
            {"id": "c1", "role": "conv_out", "option_count": 2, "group_size": 4, "max_elements": 8},
        ],
        "blocks": [{"id": 1, "kind": "cnn_chain", "removable": False, "input_ref": "stem",
                    "dims": ["c1"]}],
    }
    chain.mkdir()
    (chain / "arch.json").write_text(json.dumps(arch))
    assert main(["synth", "--arch", str(chain / "arch.json"), "--out", str(chain)]) == 0
    (chain / "trajectory.json").write_text(json.dumps({"steps": [{"c1": 1}]}))
    # tiny_mixed's scores padded with spaces to the size orjson decodes.
    scores = (root / "scores.json").read_text()
    (root / "large_scores.json").write_text(scores + " " * (ORJSON_MIN_CHARS - len(scores)))
    return root


COMMANDS = ["synth", "check", "solve", "sweep", "extract", "compare-latency-models"]
# What a solve and a sweep need besides the documents and the output directory.
FLAGS = {"solve": ["--budget-ms", "0.25"], "sweep": ["--budgets", "0.2,0.3"]}


def command_line(documents: Path, command: str, scores: str = "scores.json") -> list[str]:
    """`command` and its arguments on the tiny_mixed documents, its scores
    read from `scores` (the one-chain instance for
    ``compare-latency-models``), with the flags of `FLAGS`."""
    docs = ["--arch", ARCH, "--scores", str(documents / scores),
            "--lut", str(documents / "lut.json")]
    out = ["--out", str(documents / "out" / command)]
    chain = documents / "chain"
    args = {
        "synth": ["--arch", ARCH, *out],
        "check": docs,
        "solve": [*docs, *out],
        "sweep": [*docs, *out],
        "extract": [*docs, "--report", str(documents / "run" / "report.json"), *out],
        "compare-latency-models": [
            "--arch", str(chain / "arch.json"), "--lut", str(chain / "lut.json"),
            "--trajectory", str(chain / "trajectory.json"), *out],
    }[command]
    return [command, *args, *FLAGS.get(command, [])]


def modules_of_command(documents: Path, command: str, *extra: str,
                       scores: str = "scores.json") -> frozenset[str]:
    """`loaded_modules` of a process that runs `command_line` with `extra`."""
    code = (
        "from latprune.cli import main\n"
        f"assert main({[*command_line(documents, command, scores), *extra]!r}) == 0\n"
    )
    return loaded_modules(code)


@pytest.mark.parametrize("command, extra, unloaded", [
    ("synth", [], {"latprune.solver", "latprune.extract"}),
    ("check", [], {"latprune.solver", "latprune.extract", "latprune.stamped", "hashlib"}),
    ("sweep", [], {"latprune.extract"}),
    ("extract", [], {"latprune.solver"}),  # a saved plan is rechecked, not solved
])
def test_command_loads_only_what_it_runs(documents, command, extra, unloaded):
    loaded = modules_of_command(documents, command, *extra)
    assert "latprune.latency" in loaded
    assert not loaded & unloaded


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "check"])
def test_every_command_but_check_loads_the_stamped_commands(documents, command):
    assert "latprune.stamped" in modules_of_command(documents, command)


@pytest.mark.parametrize("command", COMMANDS)
def test_python_m_imports_no_second_cli(documents, command):
    """Under ``python -m latprune.cli`` the CLI runs as ``__main__``; a
    module that imported ``latprune.cli`` would compile and run it again,
    and ``-X importtime`` would list it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(latprune.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "latprune.cli",
         *command_line(documents, command)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()
                if line.startswith("import time:")]
    assert ("latprune.stamped" in imported) == (command != "check")
    assert "latprune.cli" not in imported


@pytest.mark.parametrize("command, extra", [
    ("solve", []),
    ("solve", ["--mode", "heuristic_only"]),
    ("sweep", []),
    ("extract", []),
], ids=["solve", "solve-heuristic_only", "sweep", "extract"])
def test_command_loads_numpy_ma_only_if_numpy_does(documents, command, extra):
    bare = "numpy.ma" in loaded_modules("import numpy")
    loaded = modules_of_command(documents, command, *extra)
    assert ("numpy.ma" in loaded) == (bare and "numpy" in loaded)


@pytest.mark.parametrize("command", COMMANDS)
def test_only_solving_and_synthesis_load_numpy(documents, command):
    loaded = modules_of_command(documents, command)
    assert "latprune.latency" in loaded
    assert ("numpy" in loaded) == (command in ("synth", "solve", "sweep"))


@pytest.mark.parametrize("command", COMMANDS)
def test_only_numpy_commands_load_orjson_on_small_documents(documents, command):
    loaded = modules_of_command(documents, command)
    assert "latprune.arch" in loaded
    numpy_command = command in ("synth", "solve", "sweep")
    assert ("orjson" in loaded) == numpy_command
    if not numpy_command:
        assert "zoneinfo" not in loaded


@pytest.mark.parametrize("command", ["check", "extract"])
def test_a_command_loads_orjson_once_its_documents_reach_the_minimum(documents, command):
    loaded = modules_of_command(documents, command, scores="large_scores.json")
    assert "numpy" not in loaded
    assert "orjson" in loaded


@pytest.mark.parametrize("sizes, loads", [
    ((ORJSON_MIN_CHARS - 1,), False),
    ((ORJSON_MIN_CHARS,), True),
    ((ORJSON_MIN_CHARS // 2, ORJSON_MIN_CHARS // 2 - 1), False),
    ((ORJSON_MIN_CHARS // 2, ORJSON_MIN_CHARS // 2), True),  # the process's total counts
], ids=["one-below", "one-at", "two-below", "two-at"])
def test_load_json_imports_orjson_once_a_process_decodes_its_minimum(sizes, loads):
    code = "from latprune.arch import load_json\n" + "".join(
        f"load_json('[]' + ' ' * {chars - 2}, 'doc')\n" for chars in sizes)
    assert ("orjson" in loaded_modules(code)) == loads


def test_dump_json_imports_orjson_only_once_numpy_is_loaded():
    dump = "from latprune.arch import dump_json\ndump_json({'a': [1.5]})\n"
    assert "orjson" not in loaded_modules(dump)
    assert "orjson" in loaded_modules(f"import numpy\n{dump}")


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_dataclasses(documents, command):
    loaded = modules_of_command(documents, command)
    assert "latprune.record" in loaded
    assert "dataclasses" not in loaded


@pytest.mark.skipif(
    not (importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")),
    reason="this interpreter has no built-in SHA-256 (_sha2 or _sha256), so "
           "input digests come from hashlib",
)
@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_openssl(documents, command):
    loaded = modules_of_command(documents, command)
    assert "latprune.cli" in loaded
    openssl = loaded & {"hashlib", "_hashlib"}
    if command == "synth":
        # Its generator's module, numpy.random, imports secrets and so hmac,
        # which loads both.
        assert openssl <= loaded_modules("import numpy.random")
    else:
        assert not openssl


@pytest.fixture
def fresh():
    """A new copy of the package module whose names are not resolved yet."""
    spec = importlib.util.find_spec("latprune")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLazyExports:
    def test_each_name_is_its_home_modules_object(self, fresh):
        for name in fresh.__all__:
            value = getattr(fresh, name)
            assert value is getattr(sys.modules[value.__module__], name), name
            assert fresh.__dict__[name] is value  # cached after the first access

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from latprune import *", namespace)
        assert set(latprune.__all__) <= set(namespace)

    def test_dir_lists_every_name_before_access(self, fresh):
        assert set(fresh.__all__) <= set(dir(fresh))

    def test_modules_resolve_as_attributes(self, fresh):
        assert fresh.solver is sys.modules["latprune.solver"]
        assert fresh.errors.ValidationError is latprune.ValidationError

    def test_unknown_name_raises_attribute_error_naming_it(self, fresh):
        with pytest.raises(AttributeError, match="no_such_name"):
            fresh.no_such_name
        assert not hasattr(latprune, "no_such_name")
