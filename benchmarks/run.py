"""Benchmark for latprune: end-to-end CLI timings and a traced per-layer split.

Run from the repository root:

    python3 benchmarks/run.py --workload vit_search --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --report [--seed N] [--seconds S]
    python3 benchmarks/run.py --tail
    python3 benchmarks/run.py --write-reference

With ``--workload`` the benchmark is a single-process closed loop: one caller
runs each ``python -m latprune.cli`` process to completion before starting
the next.  It generates its inputs from ``--seed`` (see gen.py), then repeats
the workload's round of CLI processes for about ``--seconds`` seconds (at
least three rounds), each round preceded by one ``latprune check`` process
on the workload's documents, and checks every output (see gate.py).

* ``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median round
  wall time (spawn to exit, summed over the round's processes); ``setup_s``,
  the median ``check`` wall time; ``peak_rss_mb``, the median over rounds of
  the largest peak RSS of a round's processes.  Both times are scaled to a
  reference host speed by probes taken while each process runs (see
  speed.py); the raw wall times are printed beside them.  The benchmark and
  every process it starts run on one CPU, so ``--threads 2`` runs its two
  threads on that CPU.
* ``--trace 1`` repeats the rounds in process, calling ``latprune.cli.main``
  with spans around the library calls it makes, and reports per-layer self
  times, counts and probes.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``failed/attempted`` is the
fail ratio, counted per CLI invocation or sweep row.

``--report`` runs every workload in both modes and prints every metric with
its unit, ``fail_ratio`` with its base and each timing's sample count.
``--tail`` solves the ViT and chained instances once at data seeds 0-4 under
the default 60 s limit; it is not gated.  ``--write-reference`` regenerates
``reference.json`` from the library in this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
import gen
import speed
from spans import Tracer, run_cli
from workloads import WORKLOADS, Context, Solve, Sweep, cli_argv, solution_report

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "arch.parse_s": "s",
    "importance.parse_s": "s",
    "importance.vectors_s": "s",
    "latency.parse_s": "s",
    "solver.assemble_s": "s",
    "solver.solve_s": "s",
    "solver.nodes": "count",
    "solver.nodes_per_s": "1/s",
    "solver.solves": "count",
    "solver.repair_s": "s",
    "solver.dual_bound_us": "us",
    "extract.extract_s": "s",
    "extract.serialize_s": "s",
    "cli.self_s": "s",
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "latency.lut_bytes": "bytes",
    "importance.scores_bytes": "bytes",
    "extract.structure_bytes": "bytes",
}
REFERENCE_KEYS = ("budget_ms", "status", "importance", "latency_ms", "assignment")
SPANNED = ("arch.parse", "importance.parse", "importance.vectors", "latency.parse",
           "solver.assemble", "solver.solve", "extract.extract", "extract.serialize")

SETUP_REPEATS = 5  # at least this many `latprune check` processes per run; setup_s is their median
MIN_ROUNDS = 3  # rounds per run even when one round outlasts --seconds
CLI_ROUNDS_TRACED = 2  # untraced CLI rounds in a traced run, for cli.overhead_s
RUN_LIMIT_S = 170.0  # child processes are killed past this point of a run


@dataclass
class Proc:
    code: int
    wall: float
    rss_mb: float
    stdout: str
    scaled: float  # `wall` at the reference host speed (see speed.py)


@dataclass
class Outcome:
    """Failure lists per operation, plus run-level failures."""

    ops: list[list[str]] = field(default_factory=list)
    run: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.ops if f)

    @property
    def correct(self) -> bool:
        return not self.run and self.failed == 0

    def messages(self) -> list[str]:
        return self.run + [m for f in self.ops for m in f]


LAUNCH = Path(__file__).with_name("launch.py")


def spawn(argv: list[str], env: dict, log: Path, timeout: float) -> Proc:
    """Run one child to completion through launch.py; its wall time from
    spawn to exit and its own peak RSS.  The child is killed after `timeout`
    seconds; if the benchmark is interrupted, its whole process group is."""
    log.parent.mkdir(parents=True, exist_ok=True)
    timeout = max(timeout, 1.0)
    launcher = subprocess.Popen(
        [sys.executable, str(LAUNCH), repr(timeout), str(log), "--", *argv],
        stdout=subprocess.PIPE, env=env, start_new_session=True,
    )
    try:
        out, _ = launcher.communicate(timeout=timeout + 30)
    except BaseException:
        os.killpg(launcher.pid, signal.SIGKILL)
        launcher.wait()
        raise
    result = json.loads(out)
    return Proc(result["code"], result["wall_s"], result["maxrss_kb"] / 1024.0,
                log.read_text(errors="replace"), speed.scale(result["wall_s"], result["probes"]))


def _done(t0: float, seconds: float, walls: list[float]) -> bool:
    """Stop once MIN_ROUNDS are done and another round would end past
    `seconds`, so a run measures about `seconds` and rarely more."""
    elapsed = time.perf_counter() - t0
    return len(walls) >= MIN_ROUNDS and elapsed + elapsed / len(walls) > seconds


class Runner:
    def __init__(self, lp, root: Path, name: str, seed: int) -> None:
        self.start = time.perf_counter()
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = root / ".bench_work" / f"{name}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.ctx = Context(lp, self.work, seed, gate.load_reference())
        self.outcome = Outcome()
        self.layer_share: list[float] = []  # share of a traced round inside library spans
        self._spawned = 0

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def spawn(self, argv: list[str]) -> Proc:
        self._spawned += 1
        return spawn(argv, self.env, self.work / "logs" / f"{self._spawned}.log", self.remaining())

    def prepare(self) -> None:
        for step in self.workload.steps:
            self.outcome.run += step.prepare(self.ctx)
        self.spawn(cli_argv("--help"))  # warm-up: byte-compile and fill the page cache

    def setup_time(self) -> tuple[float, float]:
        """Wall time, raw and scaled, of one `latprune check` process on the
        set-up documents."""
        p = self.spawn(cli_argv("check", *self.ctx.docs(self.workload.setup).args()))
        if p.code != 0 or not p.stdout.rstrip().endswith("OK"):
            self.outcome.run.append(f"set-up check failed: exit {p.code}: {p.stdout[-300:]}")
        return p.wall, p.scaled

    def _verify(self, step, out: Path, stdout: str) -> list[list[str]]:
        try:
            return step.verify(self.ctx, out, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [[f"outputs unreadable: {exc!r}"]] * step.ops

    def _outs(self, kind: str) -> list[Path]:
        outs = [self.work / kind / f"step{k}" for k in range(len(self.workload.steps))]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        return outs

    def _record(self, k: int, step, code: int, stdout: str, out: Path, digests: list) -> None:
        """Gate one step's result and count its operations."""
        failures = gate.check_exit(code)
        if failures:
            ops = [failures + [stdout[-300:]]] * step.ops
        else:
            ops = self._verify(step, out, stdout)
        self._check_stamps(k, out, ops, digests)
        self.outcome.ops += ops

    def cli_round(self, digests: list) -> tuple[float, float, float]:
        """One round of CLI processes; returns (wall s, scaled wall s, peak RSS MB)."""
        wall, scaled, rss = 0.0, 0.0, 0.0
        outs = self._outs("out")
        for k, step in enumerate(self.workload.steps):
            p = self.spawn(step.argv(self.ctx, outs[k], outs))
            wall += p.wall
            scaled += p.scaled
            rss = max(rss, p.rss_mb)
            self._record(k, step, p.code, p.stdout, outs[k], digests)
        return wall, scaled, rss

    def _check_stamps(self, k: int, out: Path, ops: list[list[str]], digests: list) -> None:
        got = gate.digest_outputs(out) if out.exists() else {}
        if len(digests) <= k:
            digests.append(got)
            return
        mismatch = gate.compare_digests(got, digests[k])
        if mismatch:
            ops[:] = [f + mismatch for f in ops]

    def measure(self, seconds: float) -> dict[str, float]:
        self.prepare()
        # Set-up samples are spread over the run, one before each round, so
        # that they do not all land in one slow or fast spell of the host.
        setup, walls, rsses, digests = [], [], [], []
        t0 = time.perf_counter()
        while self.remaining() > 0:
            setup.append(self.setup_time())
            wall, scaled, rss = self.cli_round(digests)
            walls.append((wall, scaled))
            rsses.append(rss)
            if _done(t0, seconds, walls):
                break
        while len(setup) < SETUP_REPEATS and self.remaining() > 0:
            setup.append(self.setup_time())
        for name, samples, what in (("wall_s", walls, "rounds"), ("setup_s", setup, "check processes")):
            for label, k in (("raw", 0), ("scaled", 1)):
                values = [v[k] for v in samples]
                print(f"{name} {label}: median {statistics.median(values):.4f} s over n={len(values)} "
                      f"{what}: " + " ".join(f"{v:.4f}" for v in values))
        return {
            "wall_s": statistics.median(v[1] for v in walls),
            "setup_s": statistics.median(v[1] for v in setup),
            "peak_rss_mb": statistics.median(rsses),
        }

    def traced_round(self, digests: list) -> tuple[float, dict[str, float], Tracer]:
        """One round of in-process `latprune.cli.main` calls with spans;
        returns (wall, per-layer sample, tracer)."""
        outs = self._outs("traced")
        tr = Tracer()
        counts: dict[str, float] = defaultdict(float)
        wall = 0.0
        for k, step in enumerate(self.workload.steps):
            t = time.perf_counter()
            code, stdout = self._run_cli(tr, step.argv(self.ctx, outs[k], outs)[3:], counts)
            wall += time.perf_counter() - t
            self._record(k, step, code, stdout, outs[k], digests)
        selfs = tr.self_times()
        sample = {f"{name}_s": selfs.get(name, 0.0) for name in SPANNED}
        sample["arch.parse_s"] += selfs.get("arch.validate", 0.0)  # `check` validates shapes
        sample["cli.self_s"] = sum(v for k, v in selfs.items() if k.startswith("cli."))
        sample["solver.nodes"] = counts["nodes"]
        sample["solver.solves"] = counts["solves"]
        sample["extract.structure_bytes"] = counts["structure_bytes"]
        self.layer_share.append(1.0 - sample["cli.self_s"] / wall)
        return wall, sample, tr

    @staticmethod
    def _run_cli(tr: Tracer, args: list[str], counts: dict) -> tuple[int, str]:
        try:
            return run_cli(tr, args, counts)
        except (Exception, SystemExit):  # an operation failure, not a benchmark crash
            return 1, "latprune.cli.main raised:\n" + traceback.format_exc()

    def probes(self) -> dict[str, float]:
        """repair_heuristic and dual_bound timed outside the traced rounds,
        and the extract layer on sweep plans, which the sweep never extracts.

        A probe whose function has left the public API reads 0 (ROADMAP
        item 2 may remove dual_bound)."""
        lp = self.ctx.lp
        tr = Tracer()
        counts: dict[str, float] = defaultdict(float)
        for step in self.workload.steps:
            if isinstance(step, Sweep):
                for args in step.extract_args(self.ctx, self.work / "probe"):
                    code, stdout = self._run_cli(tr, args, counts)
                    if code != 0:
                        self.outcome.run.append(f"extract probe: exit {code}: {stdout[-300:]}")
        selfs = tr.self_times()
        out = {"extract.extract_s": selfs.get("extract.extract", 0.0),
               "extract.serialize_s": selfs.get("extract.serialize", 0.0),
               "extract.structure_bytes": counts["structure_bytes"]}
        if not (hasattr(lp, "repair_heuristic") and hasattr(lp, "dual_bound")):
            return {**out, "solver.repair_s": 0.0, "solver.dual_bound_us": 0.0}
        problems = []  # (problem, solver threads of the step that solves it)
        for step in self.workload.steps:
            if isinstance(step, (Solve, Sweep)):
                p = self.ctx.problem(step.key)
                problems += [(lp.assemble(p.arch, p.vectors, p.tables, b), step.threads)
                             for b in step.budgets(self.ctx)]

        def dense(arch):
            return lp.Assignment(
                omega={d: arch.dims[d].option_count for b in arch.blocks for d in b.dims},
                kappa={b.id: 1 for b in arch.blocks if b.removable},
            )

        repairs = []
        for _ in range(3):
            total = 0.0
            for problem, _threads in problems:
                start = dense(problem.arch)
                t = time.perf_counter()
                lp.repair_heuristic(problem, start)
                total += time.perf_counter() - t
            repairs.append(total)
        # The root multiplier fit evaluates dual_bound over a range of prices;
        # probe around importance-per-ms of the dense plan, with the thread
        # count the workload solves with.
        first, threads = problems[0]
        top = sum(float(np.max(v.values)) for v in first.vectors.values())
        lam0 = top / lp.constraint_value(dense(first.arch), first.tables, first.arch)
        calls = []
        for lam in np.geomspace(lam0 / 16, lam0 * 16, 64):
            t = time.perf_counter()
            lp.dual_bound(first, float(lam), threads=threads)
            calls.append(time.perf_counter() - t)
        return {**out, "solver.repair_s": statistics.median(repairs),
                "solver.dual_bound_us": statistics.median(calls) * 1e6}

    def measure_traced(self, seconds: float) -> dict[str, float]:
        self.prepare()
        startup = [self.spawn([sys.executable, "-c", "import latprune.cli"]).wall
                   for _ in range(SETUP_REPEATS)]
        digests: list = []
        cli_walls = [self.cli_round(digests)[0] for _ in range(CLI_ROUNDS_TRACED)]
        digests = []
        walls, samples = [], defaultdict(list)
        t0 = time.perf_counter()
        while self.remaining() > 0:
            wall, sample, tracer = self.traced_round(digests)
            walls.append(wall)
            for key, value in sample.items():
                samples[key].append(value)
            if _done(t0, seconds, walls):
                break
        tracer.write(self.work.parent / f"spans-{self.name}-seed{self.ctx.seed}.json")
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        solve_s = metrics["solver.solve_s"]
        metrics["solver.nodes_per_s"] = metrics["solver.nodes"] / solve_s if solve_s > 0 else 0.0
        for key, value in self.probes().items():
            metrics[key] = metrics.get(key, 0.0) + value
        metrics["cli.startup_s"] = statistics.median(startup)
        metrics["cli.overhead_s"] = statistics.median(cli_walls) - statistics.median(walls)
        docs = self.ctx.docs(self.workload.setup)
        metrics["latency.lut_bytes"] = docs.lut.stat().st_size
        metrics["importance.scores_bytes"] = docs.scores.stat().st_size
        print(f"traced in-process round: median {statistics.median(walls):.4f} s over n={len(walls)}; "
              f"library spans cover {min(self.layer_share):.2%}-{max(self.layer_share):.2%} of it, "
              f"the rest is CLI plumbing (cli.self_s); "
              f"CLI process round median {statistics.median(cli_walls):.4f} s over n={len(cli_walls)}")
        return {key: metrics[key] for key in PER_LAYER}

    def run(self, seconds: float, trace: bool) -> dict:
        print(f"env: nproc={os.cpu_count()} python={platform.python_version()} numpy={np.__version__}")
        print(f"workload {self.name} seed {self.ctx.seed}: {self.workload.why}")
        try:
            metrics = self.measure_traced(seconds) if trace else self.measure(seconds)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        units = PER_LAYER if trace else END_TO_END
        out = self.outcome
        print(f"fail_ratio: {out.failed}/{len(out.ops)} operations failed"
              f"{'' if not out.run else f'; {len(out.run)} run-level check(s) failed'}")
        for message in out.messages()[:20]:
            print(f"FAIL {message}", file=sys.stderr)
        return {
            "correct": out.correct,
            "attempted": len(out.ops),
            "failed": out.failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
        }


def report(lp, root: Path, seed: int, seconds: float) -> bool:
    ok = True
    rows = []
    for name in WORKLOADS:
        for trace in (False, True):
            result = Runner(lp, root, name, seed).run(seconds, trace)
            ok = ok and result["correct"]
            rows.append((name, "fail_ratio",
                         f"{result['failed']}/{result['attempted']}", "failed/attempted"))
            rows += [(name, k, f"{m['value']:.6g}", m["unit"]) for k, m in result["metrics"].items()]
    print()
    for row in rows:
        print("{:<14} {:<26} {:>14} {}".format(*row))
    return ok


def tail(lp) -> None:
    cases = [(step.key, step.fraction) for name in ("vit_search", "chain_search")
             for step in WORKLOADS[name].steps]
    for key, fraction in cases:
        for data_seed in range(5):
            inst = gen.Instance(key, data_seed, 0)
            docs = inst.documents()
            arch = lp.parse_architecture(docs["arch"])
            vectors = lp.build_all_vectors(arch, lp.parse_scores(docs["scores"]))
            problem = lp.assemble(arch, vectors, lp.parse_lut(docs["lut"]), inst.budget(fraction))
            t = time.perf_counter()
            solution = lp.solve(problem)
            print(json.dumps({"instance": key, "data_seed": data_seed, "status": solution.status,
                              "solver.nodes": solution.node_count,
                              "solver.solve_s": time.perf_counter() - t}), flush=True)


def write_reference(lp, root: Path) -> None:
    ctx = Context(lp, root / ".bench_work" / f"reference-{os.getpid()}", 0, {})
    try:
        plans: dict[str, dict[float, dict]] = defaultdict(dict)
        for workload in WORKLOADS.values():
            for step in workload.steps:
                for budget in step.budgets(ctx):
                    if budget in plans[step.key]:
                        continue
                    p = ctx.problem(step.key)
                    s = lp.solve(lp.assemble(p.arch, p.vectors, p.tables, budget))
                    plan = solution_report(s, budget)
                    plans[step.key][budget] = {k: plan[k] for k in REFERENCE_KEYS}
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    doc = {key: list(by_budget.values()) for key, by_budget in plans.items()}
    gate.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--report", action="store_true")
    mode.add_argument("--tail", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Run the benchmark, and so every process it starts, on one CPU: the
    # speed probes (speed.py) then see the CPU the measured program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    root = Path.cwd()
    if not (root / "src" / "latprune" / "__init__.py").is_file():
        print(f"error: no src/latprune under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import latprune as lp

    if args.tail:
        tail(lp)
        return 0
    if args.write_reference:
        write_reference(lp, root)
        return 0
    if args.report:
        return 0 if report(lp, root, args.seed, args.seconds) else 1
    result = Runner(lp, root, args.workload, args.seed).run(args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
