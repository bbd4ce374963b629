"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from latprune import (
    Assignment,
    LatencyModelParams,
    LatencyTable,
    constraint_value,
    estimation_error,
    linear_channel_cost,
    replay_trajectory,
    solve,
    solve_exhaustive,
    synth_lut,
)
from latprune.cli import main
from latprune.solver import assemble

from conftest import (
    BlockSpec,
    conv_dim,
    make_arch,
    random_architecture,
    random_problem,
    random_tables,
    resnet50_like_problem,
    trunk_dim,
)
from oracles import embed_decomposed, joint_constraint_value

DATA = Path(__file__).parent.parent / "demos" / "data"


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {name}: PASS", flush=True)


def test_oracle_equivalence_300_instances():
    with criterion("oracle-equivalence"):
        rng = np.random.default_rng(20240501)
        started = time.perf_counter()
        solved = 0
        for i in range(300):
            problem, _ = random_problem(
                rng,
                signed_scores=(i % 5 == 0),
                max_blocks=3,
                max_layers=3,
                max_options=5,
                state_cap=100_000,
                chained_cap=10_000,
            )
            oracle = solve_exhaustive(problem)
            sol = solve(problem)
            assert sol.status == oracle.status, f"instance {i}: status diverged"
            if oracle.status == "optimal":
                assert sol.importance == oracle.importance, (
                    f"instance {i}: objective {sol.importance} != {oracle.importance}"
                )
                recheck = constraint_value(sol.assignment, problem.tables, problem.arch)
                assert recheck <= problem.budget, f"instance {i}: infeasible answer"
                solved += 1
        elapsed = time.perf_counter() - started
        assert solved >= 150, "suite drew too few feasible instances"
        assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s (limit 60s)"


def test_feasibility_soundness_ten_thousand_solves():
    with criterion("feasibility-soundness"):
        rng = np.random.default_rng(777)
        solves = 0
        violations = 0
        while solves < 10_000:
            problem, _ = random_problem(
                rng,
                signed_scores=(solves % 7 == 0),
                max_blocks=2,
                state_cap=400,
                chained_cap=400,
            )
            budgets = problem.budget * np.array([0.4, 1.0, 1.8])
            for budget in budgets:
                p = assemble(problem.arch, problem.vectors, problem.tables, float(budget))
                for mode, solver in (
                    ("branch_and_bound", lambda q: solve(q)),
                    ("exhaustive", solve_exhaustive),
                ):
                    sol = solver(p)
                    solves += 1
                    if sol.status != "infeasible":
                        recheck = constraint_value(sol.assignment, p.tables, p.arch)
                        if recheck > p.budget:
                            violations += 1
        assert solves >= 10_000
        assert violations == 0, f"{violations} feasibility violations in {solves} solves"


def test_decomposition_equivalence_100_instances():
    with criterion("decomposition-equivalence"):
        rng = np.random.default_rng(4242)
        checked = 0
        for _ in range(100):
            arch = random_architecture(rng, allow_chain=False, state_cap=3000)
            tables = random_tables(arch, rng)
            full = {b.id: embed_decomposed(arch, b, tables) for b in arch.blocks}
            asg = Assignment(
                omega={
                    d: int(rng.integers(1, arch.dims[d].option_count + 1))
                    for b in arch.blocks
                    for d in b.dims
                },
                kappa={b.id: int(rng.integers(0, 2)) for b in arch.blocks if b.removable},
            )
            decomposed = constraint_value(asg, tables, arch)
            joint = joint_constraint_value(asg, full, arch)
            scale = max(abs(decomposed), abs(joint), 1e-30)
            assert abs(joint - decomposed) / scale <= 1e-12
            checked += 1
        assert checked == 100


def test_linear_model_error_properties():
    with criterion("linear-model-error-analysis"):
        rng = np.random.default_rng(31337)
        # Error within its triangle bound on 1000 random monotone tables.
        for _ in range(1000):
            rows, cols = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            data = np.cumsum(np.cumsum(rng.random((rows, cols)), axis=0), axis=1)
            table = LatencyTable(
                block_id=1, part="conv_layer", layer=1, axes=("a", "b"), data=data
            )
            p_prev = int(rng.integers(1, rows + 1))
            p_hat = int(rng.integers(1, p_prev + 1))
            j = int(rng.integers(1, cols + 1))
            eps, bound = estimation_error(table, p_prev, p_hat, j)
            assert eps <= bound + 1e-12

            # Telescoping: marginal costs sum back to the row entry.
            total = sum(linear_channel_cost(table, p_prev, k) for k in range(1, cols + 1))
            assert total == pytest.approx(float(data[p_prev - 1, cols - 1]), rel=1e-9)

        # A tiled table punishes the stale-row model while the two-axis
        # lookup stays exact.
        dims = [trunk_dim("t", 16), conv_dim("c1", 4, group=4, max_elements=16),
                conv_dim("c2", 4, group=4, max_elements=16)]
        blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1", "c2"),
                            removable=False, input_ref="t")]
        arch = make_arch(dims, blocks)
        tables = synth_lut(
            arch,
            LatencyModelParams(unit_cost=1e-3, overhead=0.01, tile=8, spatial=1.0),
            seed=0,
            noise=0.0,
        )
        steps = [{"c1": 2, "c2": 2}, {"c1": 1, "c2": 1}]
        report = replay_trajectory(steps, tables, arch)
        assert any(step["gap"] > 0 for step in report)
        for step, cfg in zip(report, steps):
            asg = Assignment(omega=dict(cfg))
            exact = float(tables.get(1, "conv_layer", 1).data[0, cfg["c1"] - 1]) + float(
                tables.get(1, "conv_layer", 2).data[cfg["c1"] - 1, cfg["c2"] - 1]
            )
            assert step["true_ms"] == pytest.approx(exact, rel=1e-12)
            assert step["true_ms"] == constraint_value(asg, tables, arch)


def test_solve_time_target_resnet50_shape():
    with criterion("resnet50-shape-solve-time"):
        problem, _ = resnet50_like_problem(seed=0, budget_fraction=0.5)
        assert len(problem.arch.blocks) == 16
        assert len(problem.arch.dims) == 53
        started = time.perf_counter()
        sol = solve(problem, time_limit=60.0)
        elapsed = time.perf_counter() - started
        assert sol.status == "optimal", f"status {sol.status} after {elapsed:.1f}s"
        assert elapsed < 60.0, f"solve took {elapsed:.1f}s (limit 60s)"
        recheck = constraint_value(sol.assignment, problem.tables, problem.arch)
        assert recheck <= problem.budget


def test_budget_monotonicity_20_instances():
    with criterion("budget-monotonicity"):
        rng = np.random.default_rng(909)
        for i in range(20):
            problem, _ = random_problem(rng, state_cap=20_000, chained_cap=5_000)
            lo = 0.25 * problem.budget + 1e-9
            hi = 2.5 * problem.budget
            best_so_far = None
            for budget in np.linspace(lo, hi, 10):
                p = assemble(problem.arch, problem.vectors, problem.tables, float(budget))
                sol = solve(p)
                if sol.status == "infeasible":
                    assert best_so_far is None, f"instance {i}: feasibility not monotone"
                    continue
                if best_so_far is not None:
                    assert sol.importance >= best_so_far, (
                        f"instance {i}: importance dropped from {best_so_far} "
                        f"to {sol.importance} as the budget grew"
                    )
                best_so_far = sol.importance


def test_cli_determinism_across_thread_counts(tmp_path):
    with criterion("cli-determinism"):
        inputs = tmp_path / "inputs"
        code = main(
            [
                "synth", "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--seed", "0", "--unit-cost", "1e-4", "--overhead", "0.01",
                "--tile", "8", "--spatial", "1.0", "--noise", "0.02",
                "--out", str(inputs),
            ]
        )
        assert code == 0
        snapshots = []
        for name, threads in (("run_t1", "1"), ("run_t1_again", "1"), ("run_t8", "8")):
            out = tmp_path / name
            code = main(
                [
                    "solve",
                    "--arch", str(DATA / "tiny_mixed.arch.json"),
                    "--scores", str(inputs / "scores.json"),
                    "--lut", str(inputs / "lut.json"),
                    "--budget-ms", "0.25",
                    "--threads", threads,
                    "--out", str(out),
                ]
            )
            assert code == 0
            snapshots.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                    if p.name != "timing.json"
                }
            )
        assert snapshots[0] == snapshots[1], "rerun with identical inputs diverged"
        assert snapshots[0] == snapshots[2], "thread count changed the reports"
