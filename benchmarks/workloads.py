"""The benchmark's workloads.

A workload is a fixed sequence of steps, each one ``latprune`` CLI command
(``solve``, ``sweep``, ``check`` or ``extract``).  One round runs the steps in
order; the end-to-end run times rounds of real CLI processes, and the traced
run calls ``latprune.cli.main`` in process for each step, with spans around
the library calls the command makes (see spans.run_cli), so the same checks
apply to the files it writes.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import gen


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


@dataclass
class Problem:
    """The library and one parsed instance, for rechecks and probes."""

    lp: object
    arch: object
    vectors: dict
    tables: object


class Docs:
    """One generated instance: its documents on disk and, parsed by the
    library, the arrays the rechecks evaluate against."""

    def __init__(self, lp, key: str, seed: int, work: Path) -> None:
        self.inst = gen.Instance(key, 0, seed)
        documents = self.inst.documents()
        base = work / "inputs" / key
        self.arch, self.scores, self.lut = (base / f"{k}.json" for k in ("arch", "scores", "lut"))
        self.lut_b64 = base / "lut_b64.json"
        for path, text in (
            (self.arch, documents["arch"]),
            (self.scores, documents["scores"]),
            (self.lut, documents["lut"]),
            (self.lut_b64, gen.lut_document(self.inst.tables, base64_payload=True)),
        ):
            _write(path, text)
        arch = lp.parse_architecture(documents["arch"])
        vectors = lp.build_all_vectors(arch, lp.parse_scores(documents["scores"]))
        self.problem = Problem(lp, arch, vectors, lp.parse_lut(documents["lut"]))

    def args(self, b64: bool = False) -> list[str]:
        lut = self.lut_b64 if b64 else self.lut
        return ["--arch", str(self.arch), "--scores", str(self.scores), "--lut", str(lut)]

    def budget(self, fraction: float) -> float:
        return self.inst.budget(fraction)


class Context:
    """Per-run state: the library, the work directory, the seed, the
    reference and the generated instances (made on first use)."""

    def __init__(self, lp, work: Path, seed: int, reference: dict) -> None:
        self.lp = lp
        self.work = work
        self.seed = seed
        self.reference = reference
        self._docs: dict[str, Docs] = {}

    def docs(self, key: str) -> Docs:
        if key not in self._docs:
            self._docs[key] = Docs(self.lp, key, self.seed, self.work)
        return self._docs[key]

    def problem(self, key: str) -> Problem:
        return self.docs(key).problem

    def plan(self, key: str, budget: float) -> dict:
        return gate.expected_plan(self.reference, key, budget)

    def reference_report(self, key: str, budget: float) -> Path:
        """The reference plan at `budget`, written as a solve report."""
        path = self.work / "inputs" / key / f"reference_report_{budget!r}.json"
        if not path.exists():
            plan = self.plan(key, budget)
            report = {**plan, "bound": plan["importance"], "gap": 0.0, "node_count": 0, "message": ""}
            _write(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
        return path


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "latprune.cli", *args]


def solution_report(solution, budget: float) -> dict:
    """The report ``latprune solve`` writes for `solution`, unstamped."""
    from latprune.cli import _solution_report

    return _solution_report(solution, budget, "")


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


class Solve:
    """``latprune solve`` at `fraction` of the dense latency."""

    def __init__(self, key: str, fraction: float, threads: int, oracle: bool = False) -> None:
        self.key, self.fraction, self.threads, self.oracle = key, fraction, threads, oracle
        self.ops = 1

    def budgets(self, ctx: Context) -> list[float]:
        return [ctx.docs(self.key).budget(self.fraction)]

    def prepare(self, ctx: Context) -> list[str]:
        budget = self.budgets(ctx)[0]
        plan = ctx.plan(self.key, budget)
        failures = gate.recheck(ctx.problem(self.key), plan, budget)
        if self.oracle:
            lp, p = ctx.lp, ctx.problem(self.key)
            exact = lp.solve_exhaustive(lp.assemble(p.arch, p.vectors, p.tables, budget))
            got = solution_report(exact, budget)
            failures += [f"oracle: {f}" for f in gate.compare_plan(got, plan)]
        return failures

    def argv(self, ctx: Context, out: Path, steps_out: list[Path]) -> list[str]:
        return cli_argv(
            "solve", *ctx.docs(self.key).args(), "--budget-ms", repr(self.budgets(ctx)[0]),
            "--threads", str(self.threads), "--out", str(out),
        )

    def verify(self, ctx: Context, out: Path, stdout: str) -> list[list[str]]:
        d = ctx.docs(self.key)
        budget = self.budgets(ctx)[0]
        want = ctx.plan(self.key, budget)
        report = json.loads((out / "report.json").read_text())
        structure = json.loads((out / "structure.json").read_text())
        return [
            gate.compare_plan(report, want)
            + gate.recheck(ctx.problem(self.key), report, budget)
            + gate.check_structure(structure, want, d.inst.arch, d.inst.scores)
        ]


class Sweep:
    """``latprune sweep`` over `fractions` of the dense latency; each row is
    one operation."""

    def __init__(self, key: str, fractions: tuple[float, ...], threads: int) -> None:
        self.key, self.fractions, self.threads = key, fractions, threads
        self.ops = len(fractions)

    def budgets(self, ctx: Context) -> list[float]:
        return [ctx.docs(self.key).budget(f) for f in self.fractions]

    def prepare(self, ctx: Context) -> list[str]:
        problem = ctx.problem(self.key)
        return [f for b in self.budgets(ctx) for f in gate.recheck(problem, ctx.plan(self.key, b), b)]

    def argv(self, ctx: Context, out: Path, steps_out: list[Path]) -> list[str]:
        budgets = ",".join(repr(b) for b in self.budgets(ctx))
        return cli_argv(
            "sweep", *ctx.docs(self.key).args(), "--budgets", budgets,
            "--threads", str(self.threads), "--out", str(out),
        )

    def verify(self, ctx: Context, out: Path, stdout: str) -> list[list[str]]:
        budgets = self.budgets(ctx)
        rows = gate.read_sweep_rows((out / "sweep.csv").read_text())
        if [r["budget_ms"] for r in rows] != budgets:
            return [["sweep.csv rows do not match the requested budgets"]] * self.ops
        return [gate.compare_row(r, ctx.plan(self.key, r["budget_ms"])) for r in rows]

    def extract_args(self, ctx: Context, out: Path) -> list[list[str]]:
        """The sweep extracts nothing; these ``latprune extract`` commands,
        one per row's reference plan, probe the extract layer instead."""
        return [
            ["extract", "--report", str(ctx.reference_report(self.key, budget)),
             *ctx.docs(self.key).args(), "--out", str(out)]
            for budget in self.budgets(ctx)
        ]


class Check:
    """``latprune check`` on an instance's documents."""

    def __init__(self, key: str, b64: bool = False) -> None:
        self.key, self.b64 = key, b64
        self.ops = 1

    def budgets(self, ctx: Context) -> list[float]:
        return []

    def prepare(self, ctx: Context) -> list[str]:
        return []

    def argv(self, ctx: Context, out: Path, steps_out: list[Path]) -> list[str]:
        return cli_argv("check", *ctx.docs(self.key).args(self.b64))

    def verify(self, ctx: Context, out: Path, stdout: str) -> list[list[str]]:
        lines = stdout.strip().splitlines()
        return [[] if lines and lines[-1] == "OK" else [f"check output {stdout[-200:]!r}"]]


class Extract:
    """``latprune extract`` of a saved report: the committed reference plan
    (`report_step` None) or the report an earlier step of the round wrote."""

    def __init__(self, key: str, fraction: float, report_step: int | None = None) -> None:
        self.key, self.fraction, self.report_step = key, fraction, report_step
        self.ops = 1

    def budgets(self, ctx: Context) -> list[float]:
        return [ctx.docs(self.key).budget(self.fraction)]

    def _report(self, ctx: Context, steps_out: list[Path]) -> Path:
        if self.report_step is not None:
            return steps_out[self.report_step] / "report.json"
        return ctx.reference_report(self.key, ctx.docs(self.key).budget(self.fraction))

    def prepare(self, ctx: Context) -> list[str]:
        budget = ctx.docs(self.key).budget(self.fraction)
        if self.report_step is None:
            self._report(ctx, [])
        return gate.recheck(ctx.problem(self.key), ctx.plan(self.key, budget), budget)

    def argv(self, ctx: Context, out: Path, steps_out: list[Path]) -> list[str]:
        return cli_argv(
            "extract", "--report", str(self._report(ctx, steps_out)),
            *ctx.docs(self.key).args(), "--out", str(out),
        )

    def verify(self, ctx: Context, out: Path, stdout: str) -> list[list[str]]:
        d = ctx.docs(self.key)
        want = ctx.plan(self.key, d.budget(self.fraction))
        structure = json.loads((out / "structure.json").read_text())
        return [gate.check_structure(structure, want, d.inst.arch, d.inst.scores)]


@dataclass(frozen=True)
class Workload:
    why: str
    setup: str  # instance whose documents `latprune check` loads in set-up
    steps: tuple


RESNET_FRACTIONS = tuple(float(f) for f in np.linspace(0.05, 0.95, 16))

WORKLOADS = {
    "vit_search": Workload(
        why="ViT-B-12 solve at 0.25x dense, 1 thread: branch-and-bound search is most of the time",
        setup="vit",
        steps=(Solve("vit", 0.25, threads=1),),
    ),
    "resnet_sweep": Workload(
        why="ResNet50 g32 sweep of 16 budgets, 2 threads: per-budget assemble, root fit and repair",
        setup="resnet",
        steps=(Sweep("resnet", RESNET_FRACTIONS, threads=2),),
    ),
    "chain_search": Workload(
        why="chained-input mixed instance at 0.8x dense: coupled blocks and the relaxed-input bound",
        setup="chain",
        steps=(Solve("chain", 0.8, threads=1),),
    ),
    "cli_roundtrip": Workload(
        why="short check, extract and tiny solve processes: start-up, parsers, extract and writers",
        setup="vit",
        steps=(
            Check("vit"),
            Check("vit", b64=True),
            Extract("vit", 0.25),
            Solve("tiny", 0.5, threads=1, oracle=True),
            Extract("tiny", 0.5, report_step=3),
        ),
    ),
}
