"""Digests of what a fixed list of CLI commands writes and prints.

The commands run through ``latprune.cli.main`` in one process, in a fresh
run directory, over ``benchmarks/gen.py``'s vit, resnet, chain and tiny
instances at data seed 0:

* ``check`` of each instance;
* ``solve`` then ``extract`` of each in modes ``branch_and_bound`` and
  ``heuristic_only``, and in ``exhaustive`` on tiny;
* a 6-budget ``sweep`` of each;
* ``synth`` on ``demos/data/tiny_mixed.arch.json``;
* ``compare-latency-models`` on the resnet instance, whose blocks are all
  ``cnn_chain``, over a three-step schedule.

Each line is ``<sha256>  <command>/<name>``: one per stamped output, and one
each for a command's exit code, standard output and standard error, with the
run directory written as ``$RUN``.  ``timing.json`` and ``manifest.json``
(wall times and input paths) are left out.  ``test_golden_outputs.py``
recomputes the list and compares it with ``golden/outputs.sha256``, and
recomputes each instance's lines again with the numpy-free commands
(``FRESH``) run in fresh interpreters: a process that has neither numpy nor
orjson loaded, and has decoded fewer than ``arch.ORJSON_MIN_CHARS``
characters, reads and writes with the ``json`` module, a path the
one-process list never takes.

Run:  PYTHONPATH=src python tests/golden_outputs.py   (rewrites the list)
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "outputs.sha256"
TINY_ARCH = ROOT / "demos" / "data" / "tiny_mixed.arch.json"
UNSTAMPED = ("timing.json", "manifest.json")
INSTANCES = ("vit", "resnet", "chain", "tiny")
# The commands that load no numpy (see test_imports.py).
FRESH = ("check", "extract", "compare-latency-models")

# Fraction of the dense latency each instance's solve runs at, as in the
# benchmark's workloads, and the sweep's fractions.
SOLVE_FRACTION = {"vit": 0.25, "resnet": 0.5, "chain": 0.8, "tiny": 0.5}
SWEEP_FRACTIONS = (0.2, 0.35, 0.5, 0.65, 0.8, 0.95)


def _gen():
    """benchmarks/gen.py, loaded from its file: the benchmark directory is
    not put on the import path."""
    spec = importlib.util.spec_from_file_location("gen", ROOT / "benchmarks" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def schedule(arch: dict) -> list[dict[str, int]]:
    """Three steps over a chain-only architecture document: every conv
    dimension dense (no width changes), then every first layer at half its
    options, then every second layer too."""
    dense = {d: 1 for b in arch["blocks"] for d in b["dims"]}
    dense |= {d["id"]: d["option_count"] for d in arch["dims"] if d["id"] in dense}
    half = {d: max(1, j // 2) for d, j in dense.items()}
    first = dense | {d: half[d] for d in dense if d.endswith("_c1")}
    second = first | {d: half[d] for d in dense if d.endswith("_c2")}
    return [dense, first, second]


def commands(run: Path, instances=INSTANCES) -> list[tuple[str, list[str]]]:
    """Write the inputs of `instances` under `run` and return (label, argv)
    of each command over them and of ``synth``, in the order they run."""
    gen = _gen()
    out: list[tuple[str, list[str]]] = []
    for key in instances:
        inst = gen.Instance(key, 0, 0)
        base = run / "inputs" / key
        base.mkdir(parents=True)
        for name, text in inst.documents().items():
            (base / f"{name}.json").write_text(text)
        problem = [f"--{n}={base / f'{n}.json'}" for n in ("arch", "scores", "lut")]
        out.append((f"check/{key}", ["check", *problem]))
        modes = ("branch_and_bound", "heuristic_only") + (("exhaustive",) if key == "tiny" else ())
        for mode in modes:
            solved = run / f"solve-{mode}" / key
            budget = repr(inst.budget(SOLVE_FRACTION[key]))
            out.append((f"solve-{mode}/{key}", ["solve", *problem, f"--budget-ms={budget}",
                                                f"--mode={mode}", f"--out={solved}"]))
            report = f"--report={solved / 'report.json'}"
            out.append((f"extract-{mode}/{key}", ["extract", report, *problem,
                                                  f"--out={run / f'extract-{mode}' / key}"]))
        budgets = ",".join(repr(inst.budget(f)) for f in SWEEP_FRACTIONS)
        out.append((f"sweep/{key}", ["sweep", *problem, f"--budgets={budgets}",
                                     f"--out={run / 'sweep' / key}"]))
        if key == "resnet":
            trajectory = base / "trajectory.json"
            trajectory.write_text(json.dumps({"steps": schedule(inst.arch)}))
            out.append(("compare-latency-models/resnet", [
                "compare-latency-models", problem[0], problem[2],
                f"--trajectory={trajectory}", f"--out={run / 'compare-latency-models' / key}"]))
    out.append(("synth/tiny_mixed", ["synth", f"--arch={TINY_ARCH}", "--seed=0",
                                     f"--out={run / 'synth' / 'tiny_mixed'}"]))
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of ``main(argv)``."""
    from latprune.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _in_fresh_interpreter(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of
    ``python -m latprune.cli ARGV`` over the imported package's source."""
    import latprune

    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(latprune.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-m", "latprune.cli", *argv], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    return done.returncode, done.stdout, done.stderr


def digest_lines(run: Path, instances=INSTANCES, fresh: bool = False) -> list[str]:
    """The digest list of the commands over `instances` run under the empty
    directory `run`; with `fresh`, each ``FRESH`` command runs in a fresh
    interpreter and every other in this process."""
    lines = []
    for label, argv in commands(run, instances):
        runner = _in_fresh_interpreter if fresh and argv[0] in FRESH else _in_process
        code, stdout, stderr = runner(argv)
        streams = {"exit": str(code), "stdout": stdout, "stderr": stderr}
        for name, text in streams.items():
            lines.append(f"{_sha(text.replace(str(run), '$RUN').encode())}  {label}/{name}")
        written = run / label
        for path in sorted(written.iterdir()) if written.is_dir() else ():
            if path.name not in UNSTAMPED:
                lines.append(f"{_sha(path.read_bytes())}  {label}/{path.name}")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as run:
        lines = digest_lines(Path(run))
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {GOLDEN}")


if __name__ == "__main__":
    main()
