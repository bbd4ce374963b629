"""End-to-end walkthrough: describe a network, price it, solve, extract.

Builds a small mixed CNN/transformer architecture in code, draws synthetic
saliency scores and latency tables, solves for the best plan under a few
budgets, and prints the extracted structures.

Run:  python3 demos/01_build_and_solve.py
"""

from pathlib import Path

import latprune as lp

# ----------------------------------------------------------------------------
# 1. The architecture: two conv chains off a fixed stem, one transformer
#    block.  Block 2 and the transformer may be removed outright.
# ----------------------------------------------------------------------------
arch = lp.parse_architecture((Path(__file__).parent / "data" / "tiny_mixed.arch.json").read_text())
print(f"architecture {arch.name!r}: {len(arch.blocks)} blocks, "
      f"{len(arch.dims)} dimensions, "
      f"{lp.subnetwork_count(arch):,} candidate structures")

# ----------------------------------------------------------------------------
# 2. Inputs the optimizer consumes: per-element scores and latency tables.
#    Real deployments measure tables on the target device and score elements
#    from a trained model; here both are synthesized deterministically.
# ----------------------------------------------------------------------------
scores = lp.synth_scores(arch, seed=0)
vectors = lp.build_all_vectors(arch, scores)
params = lp.LatencyModelParams(unit_cost=1e-4, overhead=0.01, tile=8, spatial=1.0)
tables = lp.synth_lut(arch, params, seed=0, noise=0.02)

dense = lp.Assignment(
    omega={d: arch.dims[d].option_count for b in arch.blocks for d in b.dims},
    kappa={b.id: 1 for b in arch.blocks if b.removable},
)
dense_ms = lp.constraint_value(dense, tables, arch)
print(f"dense latency: {dense_ms:.4f} ms\n")

# ----------------------------------------------------------------------------
# 3. Solve under a loose and a tight budget.  The tight one forces a whole
#    block out of the network.
# ----------------------------------------------------------------------------
for budget in (0.6 * dense_ms, 0.12 * dense_ms):
    problem = lp.assemble(arch, vectors, tables, budget)
    solution = lp.solve(problem, time_limit=30.0)
    print(f"budget {budget:.4f} ms -> {solution.status}, "
          f"importance {solution.importance:.3f}, latency {solution.latency:.4f} ms, "
          f"{solution.node_count} nodes")

    structure = lp.extract_structure(solution.assignment, arch, vectors, tables, scores)
    text, _ = lp.summarize(structure)
    print("  " + text.replace("\n", "\n  ").rstrip() + "\n")

# ----------------------------------------------------------------------------
# 4. The same flow is available from the command line:
#      latprune synth --arch demos/data/tiny_mixed.arch.json --seed 0 --out /tmp/in
#      latprune solve --arch demos/data/tiny_mixed.arch.json \
#          --scores /tmp/in/scores.json --lut /tmp/in/lut.json \
#          --budget-ms 0.25 --out /tmp/run
# ----------------------------------------------------------------------------
print("CLI equivalent: see the comment block at the end of this script.")
