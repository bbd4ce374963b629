"""Desk-scale stress test on a ResNet50-shaped instance.

Sixteen bottleneck blocks in four stages, 53 conv dimensions with channel
grouping 32, trunk widths pinned by the residual connections, twelve blocks
removable.  The exact solver proves optimality in well under a minute on a
laptop-class CPU at every pruning ratio, and the plans it returns thin the
early stages first and start dropping whole blocks as the budget tightens.

Run:  python3 demos/04_resnet50_shape.py
"""

import time

import latprune as lp
from latprune.arch import ArchitectureSpec, BlockSpec, DimensionSpec

# --- build the shape: stages of (blocks, mid width, trunk width) -------------
stages = [(3, 64, 256), (4, 128, 512), (6, 256, 1024), (3, 512, 2048)]
dims = [DimensionSpec(id="stem", role="fixed_external", option_count=1,
                      group_size=64, max_elements=64)]
blocks = []
prev_trunk = "stem"
block_id = 0
for s, (n_blocks, mid, out) in enumerate(stages, start=1):
    trunk = f"t{s}"
    dims.append(DimensionSpec(id=trunk, role="fixed_external", option_count=1,
                              group_size=out, max_elements=out))
    for i in range(1, n_blocks + 1):
        block_id += 1
        base = f"s{s}b{i}"
        layer_dims = [
            DimensionSpec(id=f"{base}_c1", role="conv_out", option_count=mid // 32,
                          group_size=32, max_elements=mid),
            DimensionSpec(id=f"{base}_c2", role="conv_out", option_count=mid // 32,
                          group_size=32, max_elements=mid),
            DimensionSpec(id=f"{base}_c3", role="conv_out", option_count=1,
                          group_size=out, max_elements=out),
        ]
        dims.extend(layer_dims)
        blocks.append(BlockSpec(
            id=block_id, kind="cnn_chain",
            dims=tuple(d.id for d in layer_dims),
            removable=(i > 1),
            input_ref=prev_trunk if i == 1 else trunk,
        ))
    prev_trunk = trunk

arch = ArchitectureSpec(name="resnet50_shape", blocks=tuple(blocks),
                        dims={d.id: d for d in dims})
arch.validate()
print(f"{len(arch.blocks)} blocks, {len(arch.dims)} dimensions, "
      f"{lp.subnetwork_count(arch):.3e} candidate structures")

# --- synthetic scores and tables ---------------------------------------------
scores = lp.synth_scores(arch, seed=0)
vectors = lp.build_all_vectors(arch, scores)
tables = lp.synth_lut(arch, lp.LatencyModelParams(), seed=0, noise=0.02)
dense = lp.Assignment(
    omega={d: arch.dims[d].option_count for b in arch.blocks for d in b.dims},
    kappa={b.id: 1 for b in arch.blocks if b.removable},
)
dense_ms = lp.constraint_value(dense, tables, arch)
print(f"dense latency {dense_ms:.3f} ms\n")

# --- prove optimality across pruning ratios -----------------------------------
print(f"{'keep ratio':>10} {'status':>9} {'wall s':>7} {'nodes':>6} "
      f"{'removed blocks':>15} {'latency ms':>11}")
for keep in (0.5, 0.3, 0.15, 0.08):
    problem = lp.assemble(arch, vectors, tables, keep * dense_ms)
    t0 = time.perf_counter()
    sol = lp.solve(problem, time_limit=60.0)
    wall = time.perf_counter() - t0
    removed = [b for b, v in sorted(sol.assignment.kappa.items()) if v == 0]
    print(f"{keep:>10.2f} {sol.status:>9} {wall:>7.2f} {sol.node_count:>6} "
          f"{str(removed):>15} {sol.latency:>11.3f}")

# --- width profile of the tightest plan ---------------------------------------
structure = lp.extract_structure(sol.assignment, arch, vectors, tables, scores)
print("\nwidth profile at keep ratio 0.08 (mid-conv widths per block):")
for block in structure["blocks"]:
    if not block["kept"]:
        print(f"  block {block['block_id']:>2}: removed")
    else:
        widths = " ".join(f"{d['kept_count']:>4}" for d in block["dims"])
        print(f"  block {block['block_id']:>2}: {widths}")
