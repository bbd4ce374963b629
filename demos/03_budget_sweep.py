"""Trace the importance/latency frontier by sweeping the budget.

Solving the same instance across a ladder of budgets yields the Pareto data
the accuracy-vs-speed plots are made of.  Optimal importance can only grow
with the budget, and whole blocks drop out as it tightens.  The problem is
assembled once, and ``solve_budgets`` solves every budget in one call: the
budgets share the block frontiers and LP bound, and their merges run side by
side in one pass under one deadline (the time limit times the number of
budgets).  Each answer equals a separate ``solve`` of that budget.

Run:  python3 demos/03_budget_sweep.py
"""

from pathlib import Path

import numpy as np

import latprune as lp

arch = lp.parse_architecture((Path(__file__).parent / "data" / "tiny_mixed.arch.json").read_text())
scores = lp.synth_scores(arch, seed=0)
vectors = lp.build_all_vectors(arch, scores)
tables = lp.synth_lut(
    arch, lp.LatencyModelParams(unit_cost=1e-4, overhead=0.01, tile=8, spatial=1.0),
    seed=0, noise=0.02,
)

dense = lp.Assignment(
    omega={d: arch.dims[d].option_count for b in arch.blocks for d in b.dims},
    kappa={b.id: 1 for b in arch.blocks if b.removable},
)
dense_ms = lp.constraint_value(dense, tables, arch)

print(f"{'budget ms':>10} {'status':>12} {'importance':>12} {'latency ms':>11} {'blocks kept':>12}")
base = lp.assemble(arch, vectors, tables, dense_ms)
budgets = [float(fraction * dense_ms) for fraction in np.linspace(0.04, 1.0, 12)]
previous = None
for budget, solution in zip(budgets, lp.solve_budgets(base, budgets)):
    if solution.status == "infeasible":
        print(f"{budget:>10.4f} {'infeasible':>12}")
        continue
    kept = sum(
        1 for b in arch.blocks if solution.assignment.kappa_of(b) == 1
    )
    print(
        f"{budget:>10.4f} {solution.status:>12} {solution.importance:>12.3f} "
        f"{solution.latency:>11.4f} {kept:>9}/{len(arch.blocks)}"
    )
    if previous is not None:
        assert solution.importance >= previous - 1e-12, "frontier must be nondecreasing"
    previous = solution.importance

print("\nthe same data lands in sweep.csv via:")
print("  latprune sweep --arch ... --scores ... --lut ... "
      "--budgets 0.1,0.2,0.4,0.8 --out runs/sweep")
