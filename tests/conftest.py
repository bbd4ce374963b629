"""Shared builders for randomized test instances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import settings

from latprune import (
    ArchitectureSpec,
    Assignment,
    BlockSpec,
    DimensionSpec,
    LatencyTable,
    TableSet,
    build_all_vectors,
    constraint_value,
)
from latprune.latency import block_latency
from latprune.solver import PruningProblem, assemble

# `--hypothesis-profile=ci` prints a `@reproduce_failure` blob with each
# falsifying example, so a failure seen only in CI can be replayed locally.
settings.register_profile("ci", print_blob=True)


@pytest.fixture
def folds(monkeypatch) -> list:
    """The folds of scores into importance vectors from here on, one entry
    per call of ``importance._fold`` or ``_fold_numpy`` (which one runs
    depends on whether the process has numpy loaded; this one has)."""
    from latprune import importance

    calls = []
    for name in ("_fold", "_fold_numpy"):
        def spy(*args, fold=getattr(importance, name)):
            calls.append(fold.__name__)
            return fold(*args)
        monkeypatch.setattr(importance, name, spy)
    return calls


def make_arch(dims: list[DimensionSpec], blocks: list[BlockSpec], name="test") -> ArchitectureSpec:
    arch = ArchitectureSpec(name=name, blocks=tuple(blocks), dims={d.id: d for d in dims})
    arch.validate()
    return arch


def conv_dim(dim_id: str, options: int, group: int = 1, max_elements: int | None = None) -> DimensionSpec:
    if max_elements is None:
        max_elements = options * group
    return DimensionSpec(
        id=dim_id,
        role="conv_out",
        option_count=options,
        group_size=group,
        max_elements=max_elements,
    )


def trunk_dim(dim_id: str, width: int = 4) -> DimensionSpec:
    return DimensionSpec(
        id=dim_id,
        role="fixed_external",
        option_count=1,
        group_size=width,
        max_elements=width,
    )


def tf_dims(prefix: str, options: dict[str, int]) -> list[DimensionSpec]:
    return [
        DimensionSpec(
            id=f"{prefix}_{role}",
            role=role,
            option_count=options[role],
            group_size=1,
            max_elements=options[role],
        )
        for role in ("emb", "head", "qk", "v", "mlp")
    ]


def random_architecture(
    rng: np.random.Generator,
    max_blocks: int = 3,
    max_layers: int = 3,
    max_options: int = 5,
    allow_chain: bool = True,
    state_cap: int = 200_000,
    chained_cap: int = 20_000,
    feed_any_layer: bool = False,
) -> ArchitectureSpec:
    """Mixed cnn/transformer instance with bounded enumeration size.  A chain
    may read the last layer of the chain before it; with `feed_any_layer`,
    most chains read any layer of any earlier permanent chain instead."""
    for _ in range(200):
        n_blocks = int(rng.integers(1, max_blocks + 1))
        dims = [trunk_dim("trunk", width=int(rng.integers(2, 9)))]
        blocks = []
        total_states = 1
        chained = False
        prev_cnn_last: tuple[int, str] | None = None  # (block index, last dim id)
        fed: list[str] = []  # the layers of the permanent chains so far
        for b in range(1, n_blocks + 1):
            kind = "cnn_chain" if rng.random() < 0.6 else "transformer"
            removable = bool(rng.random() < 0.5)
            if kind == "transformer":
                options = {
                    role: int(rng.integers(1, 4))
                    for role in ("emb", "head", "qk", "v", "mlp")
                }
                block_dims = tf_dims(f"b{b}", options)
                dims.extend(block_dims)
                blocks.append(
                    BlockSpec(
                        id=b,
                        kind="transformer",
                        dims=tuple(d.id for d in block_dims),
                        removable=removable,
                    )
                )
                states = math.prod(options.values())
            else:
                n_layers = int(rng.integers(1, max_layers + 1))
                layer_dims = []
                for i in range(1, n_layers + 1):
                    options = int(rng.integers(1, max_options + 1))
                    group = int(rng.integers(1, 3))
                    max_elements = options * group - int(rng.integers(0, group))
                    layer_dims.append(
                        conv_dim(f"b{b}_c{i}", options, group, max_elements)
                    )
                dims.extend(layer_dims)
                input_ref = "trunk"
                if feed_any_layer:
                    if fed and rng.random() < 0.7:
                        input_ref = fed[int(rng.integers(len(fed)))]
                        chained = True
                elif allow_chain and prev_cnn_last is not None and rng.random() < 0.4:
                    producer_idx, producer_dim = prev_cnn_last
                    if not blocks[producer_idx].removable:
                        input_ref = producer_dim
                        chained = True
                blocks.append(
                    BlockSpec(
                        id=b,
                        kind="cnn_chain",
                        dims=tuple(d.id for d in layer_dims),
                        removable=removable,
                        input_ref=input_ref,
                    )
                )
                states = math.prod(d.option_count for d in layer_dims)
                prev_cnn_last = (b - 1, layer_dims[-1].id)
                fed += [] if removable else [d.id for d in layer_dims]
            total_states *= states + (1 if removable else 0)
        if total_states <= (chained_cap if chained else state_cap):
            return make_arch(dims, blocks, name=f"rand{rng.integers(10**9)}")
    raise AssertionError("failed to draw a bounded instance")


def random_scores(arch: ArchitectureSpec, rng: np.random.Generator, signed: bool = False):
    out = {}
    for dim in arch.dims.values():
        if signed:
            values = rng.normal(0.0, 1.0, dim.max_elements)
        else:
            values = rng.random(dim.max_elements)
        out[dim.id] = values
    return out


def random_tables(arch: ArchitectureSpec, rng: np.random.Generator, scale: float = 1.0) -> TableSet:
    """Random nonnegative tables (not necessarily monotone)."""
    tables = TableSet()
    for block in arch.blocks:
        for part, layer, dims in arch.parts(block):
            tables.add(
                LatencyTable(
                    block_id=block.id,
                    part=part,
                    layer=layer,
                    axes=tuple(d.id for d in dims),
                    data=scale * rng.random(tuple(d.option_count for d in dims)),
                )
            )
    return tables


def integer_problem(rng, arch):
    """Integer scores in [-1, 3] and latencies in [0, 3]: many exact ties."""
    raw = {
        d.id: rng.integers(-1, 4, d.max_elements).astype(float)
        for d in arch.dims.values()
    }
    tables = TableSet()
    for table in random_tables(arch, rng):
        tables.add(LatencyTable(block_id=table.block_id, part=table.part, axes=table.axes,
                                data=np.floor(4 * table.data), layer=table.layer))
    return assemble(arch, build_all_vectors(arch, raw), tables, 1.0)


def dense_assignment(arch: ArchitectureSpec) -> Assignment:
    return Assignment(
        omega={d: arch.dims[d].option_count for b in arch.blocks for d in b.dims},
        kappa={b.id: 1 for b in arch.blocks if b.removable},
    )


def minimal_assignment(arch: ArchitectureSpec) -> Assignment:
    return Assignment(
        omega={d: 1 for b in arch.blocks for d in b.dims},
        kappa={b.id: 1 for b in arch.blocks if b.removable},
    )


def dense_start_repair(problem: PruningProblem) -> Assignment | None:
    """Greedy repair from the dense plan: while over budget, take the step
    (drop a removable block, or one option off a dimension) that loses the
    least importance per millisecond saved, pricing every step again after
    each one.  None when no step saves latency and the plan is still over."""
    arch = problem.arch
    asg = dense_assignment(arch)
    readers = {d: [] for d in problem.dim_order}
    owner = {d: block for block in arch.blocks for d in block.dims}
    for block in arch.blocks:
        if block.kind == "cnn_chain" and block.input_ref in readers:
            readers[block.input_ref].append(block)

    def kept_latency(blocks):
        return sum(block_latency(asg, problem.tables, arch, b) for b in blocks if asg.kappa_of(b) == 1)

    while constraint_value(asg, problem.tables, arch) > problem.budget:
        best = None
        for order, block in enumerate(arch.blocks):
            if block.removable and asg.kappa[block.id] == 1:
                saved = block_latency(asg, problem.tables, arch, block)
                lost = sum(float(problem.vectors[d].values[asg.omega[d] - 1]) for d in block.dims)
                if saved > 0 and (best is None or (lost / saved, lost, order) < best[:3]):
                    best = (lost / saved, lost, order, "kappa", block.id)
        for order, d in enumerate(problem.dim_order, start=len(arch.blocks)):
            block, j = owner[d], asg.omega[d]
            if asg.kappa_of(block) == 1 and j > 1:
                affected = [block] + readers[d]
                before = kept_latency(affected)
                asg.omega[d] = j - 1
                saved = before - kept_latency(affected)
                asg.omega[d] = j
                vec = problem.vectors[d].values
                lost = float(vec[j - 1]) - float(vec[j - 2])
                if saved > 0 and (best is None or (lost / saved, lost, order) < best[:3]):
                    best = (lost / saved, lost, order, "omega", d)
        if best is None:
            return None
        _, _, _, kind, key = best
        if kind == "kappa":
            asg.kappa[key] = 0
            for d in arch.blocks[key - 1].dims:
                asg.omega[d] = 1
        else:
            asg.omega[key] -= 1
    return asg


def pick_budget(arch, tables, rng: np.random.Generator) -> float:
    """Budget somewhere between the all-min and all-max kept latencies."""
    hi = constraint_value(dense_assignment(arch), tables, arch)
    lo = constraint_value(minimal_assignment(arch), tables, arch)
    frac = float(rng.choice([-0.2, 0.05, 0.25, 0.5, 0.75, 0.95, 1.1]))
    return max(lo + frac * (hi - lo), 1e-6)


def random_problem(
    rng: np.random.Generator,
    signed_scores: bool = False,
    budget: float | None = None,
    **arch_kwargs,
) -> tuple[PruningProblem, dict]:
    arch = random_architecture(rng, **arch_kwargs)
    raw = random_scores(arch, rng, signed=signed_scores)
    vectors = build_all_vectors(arch, raw)
    tables = random_tables(arch, rng)
    if budget is None:
        budget = pick_budget(arch, tables, rng)
    return assemble(arch, vectors, tables, budget), raw


def resnet50_like_architecture() -> ArchitectureSpec:
    """16 bottleneck blocks in 4 stages, 53 conv dimensions, grouping 32.

    The residual trunk widths (stem plus one per stage) are fixed_external;
    each block holds two prunable mid convs (width/32 options) and a final
    conv pinned to the trunk width.  The first block of each stage carries
    the downsample and stays, the other twelve are removable.
    """
    stages = [(3, 64, 256), (4, 128, 512), (6, 256, 1024), (3, 512, 2048)]
    dims: list[DimensionSpec] = [
        DimensionSpec(id="stem", role="fixed_external", option_count=1,
                      group_size=64, max_elements=64)
    ]
    blocks: list[BlockSpec] = []
    prev_trunk = "stem"
    block_id = 0
    for stage_idx, (n_blocks, mid, out) in enumerate(stages, start=1):
        trunk = f"t{stage_idx}"
        dims.append(
            DimensionSpec(id=trunk, role="fixed_external", option_count=1,
                          group_size=out, max_elements=out)
        )
        for i in range(1, n_blocks + 1):
            block_id += 1
            base = f"s{stage_idx}b{i}"
            c1 = DimensionSpec(id=f"{base}_c1", role="conv_out",
                               option_count=mid // 32, group_size=32, max_elements=mid)
            c2 = DimensionSpec(id=f"{base}_c2", role="conv_out",
                               option_count=mid // 32, group_size=32, max_elements=mid)
            c3 = DimensionSpec(id=f"{base}_c3", role="conv_out",
                               option_count=1, group_size=out, max_elements=out)
            dims.extend([c1, c2, c3])
            blocks.append(
                BlockSpec(
                    id=block_id,
                    kind="cnn_chain",
                    dims=(c1.id, c2.id, c3.id),
                    removable=(i > 1),
                    input_ref=prev_trunk if i == 1 else trunk,
                )
            )
        prev_trunk = trunk
    arch = make_arch(dims, blocks, name="resnet50_like")
    assert len(arch.dims) == 53
    assert len(arch.blocks) == 16
    return arch


def resnet50_like_problem(seed: int = 0, budget_fraction: float = 0.5):
    from latprune import LatencyModelParams, synth_lut, synth_scores

    arch = resnet50_like_architecture()
    raw = synth_scores(arch, seed)
    vectors = build_all_vectors(arch, raw)
    tables = synth_lut(arch, LatencyModelParams(), seed, noise=0.02)
    dense = constraint_value(dense_assignment(arch), tables, arch)
    return assemble(arch, vectors, tables, budget_fraction * dense), raw


def vit_b12_architecture() -> ArchitectureSpec:
    """ViT-B-12: 12 removable transformer blocks with emb 12 x 64, head
    12 x 1, qk 8 x 8, v 8 x 8 and mlp 48 x 64 (options x group size)."""
    shape = {"emb": (12, 64), "head": (12, 1), "qk": (8, 8), "v": (8, 8), "mlp": (48, 64)}
    dims: list[DimensionSpec] = []
    blocks: list[BlockSpec] = []
    for b in range(1, 13):
        block_dims = [
            DimensionSpec(id=f"b{b}_{role}", role=role, option_count=options,
                          group_size=group, max_elements=options * group)
            for role, (options, group) in shape.items()
        ]
        dims.extend(block_dims)
        blocks.append(BlockSpec(id=b, kind="transformer",
                                dims=tuple(d.id for d in block_dims), removable=True))
    return make_arch(dims, blocks, name="vit_b12")


def vit_b12_problem(seed: int = 0, budget_fraction: float = 0.25):
    from latprune import LatencyModelParams, synth_lut, synth_scores

    arch = vit_b12_architecture()
    vectors = build_all_vectors(arch, synth_scores(arch, seed))
    tables = synth_lut(arch, LatencyModelParams(), seed, noise=0.02)
    dense = constraint_value(dense_assignment(arch), tables, arch)
    return assemble(arch, vectors, tables, budget_fraction * dense)

