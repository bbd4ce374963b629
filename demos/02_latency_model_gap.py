"""Why two-axis latency tables beat the stale-row linear model.

Iterative pruning schemes price the j-th output channel of a layer by
differencing one row of the layer's latency table: the row picked by the
input width remembered from the *previous* pruning step.  When the previous
layer is pruned in the same step, that row is stale and every marginal cost
is misestimated.  This script replays an aggressive schedule against a tiled
cost surface and prints the misestimation alongside its analytic bound.

Run:  python3 demos/02_latency_model_gap.py
"""

import numpy as np

import latprune as lp
from latprune.arch import ArchitectureSpec, BlockSpec, DimensionSpec

# A two-layer chain: 16 channels per layer, prunable in steps of 4.
dims = [
    DimensionSpec(id="stem", role="fixed_external", option_count=1, group_size=16, max_elements=16),
    DimensionSpec(id="c1", role="conv_out", option_count=4, group_size=4, max_elements=16),
    DimensionSpec(id="c2", role="conv_out", option_count=4, group_size=4, max_elements=16),
]
blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1", "c2"), removable=False, input_ref="stem")]
arch = ArchitectureSpec(name="chain", blocks=tuple(blocks), dims={d.id: d for d in dims})
arch.validate()

# Tile quantization (effective widths round up to multiples of 8) gives the
# cost surface plateaus, which is where single-row estimates go wrong.
params = lp.LatencyModelParams(unit_cost=1e-3, overhead=0.01, tile=8, spatial=1.0)
tables = lp.synth_lut(arch, params, seed=0, noise=0.0)

print("layer-2 latency table (rows: input option, cols: output option):")
print(np.array_str(tables.get(1, "conv_layer", 2).data, precision=4), "\n")

# Prune both layers at every step: each step invalidates the next layer's
# remembered input width.
schedule = lp.PruneTrajectory(steps=(
    {"c1": 3, "c2": 3},
    {"c1": 2, "c2": 2},
    {"c1": 1, "c2": 1},
))
report = lp.replay_trajectory(schedule, tables, arch)

print(f"{'step':>4} {'true ms':>10} {'linear ms':>10} {'gap ms':>10}")
for step in report:
    print(f"{step.step:>4} {step.true_ms:>10.4f} {step.linear_ms:>10.4f} {step.gap:>10.4f}")

worst = max(report, key=lambda s: s.gap)
print(f"\nper-layer marginal-cost error vs analytic bound (step {worst.step}):")
for dim_id, eps, bound in worst.layer_errors:
    print(f"  {dim_id}: epsilon {eps:.4f} <= bound {bound:.4f}")

# The misestimated step remembers input option 4 for layer 2 while the true
# width has dropped to option 2; channel-by-channel costs diverge even where
# the final option's marginal happens to agree.
table2 = tables.get(1, "conv_layer", 2)
print("\nlayer-2 marginal cost per output option (stale row 4 vs true row 2):")
for j in range(1, 5):
    eps, bound = lp.estimation_error(table2, 4, 2, j)
    stale = lp.linear_channel_cost(table2, 4, j)
    true = lp.linear_channel_cost(table2, 2, j)
    print(f"  option {j}: stale {stale:.4f} true {true:.4f} "
          f"epsilon {eps:.4f} <= bound {bound:.4f}")

# A schedule that never touches an input width has zero gap by construction.
lazy = lp.PruneTrajectory(steps=({"c1": 4, "c2": 3}, {"c1": 4, "c2": 1}))
gaps = [step.gap for step in lp.replay_trajectory(lazy, tables, arch)]
print(f"\nlast-layer-only schedule gaps: {gaps} (inputs never change)")
