"""Test-only latency oracles: the latency of a plan evaluated from full
per-block tensors by literally expanding the one-hot outer product, and the
sum-embedding of a block's decomposed tables into such a tensor.  They are an
independent cross-check of ``latprune.constraint_value``.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from latprune import ArchitectureSpec, Assignment, BlockSpec, SolveError, TableSet, ValidationError
from latprune.arch import TRANSFORMER_PARTS, TRANSFORMER_ROLES

JOINT_TENSOR_GUARD = 10**7


def joint_constraint_value(
    assignment: Assignment,
    full_tables: dict[int, np.ndarray],
    arch: ArchitectureSpec,
) -> float:
    """Evaluate latency from full per-block tensors via one-hot outer products.

    The expanded mask has as many entries as the block tensor, so tensors
    above JOINT_TENSOR_GUARD entries are rejected.
    """
    total = 0.0
    for block in arch.blocks:
        if block.id not in full_tables:
            raise ValidationError(f"block {block.id}: missing full latency tensor")
        tensor = np.asarray(full_tables[block.id], dtype=np.float64)
        dims = arch.block_dims(block)
        expected = tuple(d.option_count for d in dims)
        if tensor.shape != expected:
            raise ValidationError(
                f"block {block.id}: full tensor shape {tensor.shape} does not match "
                f"option counts {expected}"
            )
        if tensor.size > JOINT_TENSOR_GUARD:
            raise SolveError(
                f"block {block.id}: full tensor has {tensor.size} entries, "
                f"above the {JOINT_TENSOR_GUARD} joint-evaluation guard"
            )
        onehots = []
        for d in dims:
            v = np.zeros(d.option_count)
            v[assignment.omega[d.id] - 1] = 1.0
            onehots.append(v)
        mask = reduce(np.multiply.outer, onehots)
        total += assignment.kappa_of(block) * float((mask * tensor).sum())
    return total


def embed_decomposed(
    arch: ArchitectureSpec, block: BlockSpec, tables: TableSet
) -> np.ndarray:
    """Sum-embed a block's decomposed tables into one full tensor.

    Only valid for blocks whose first-layer input is fixed_external (a
    cnn_chain fed by another block's conv output has no per-block tensor).
    """
    dims = arch.block_dims(block)
    shape = tuple(d.option_count for d in dims)
    if math.prod(shape) > JOINT_TENSOR_GUARD:
        raise SolveError(f"block {block.id}: full tensor would exceed the guard")
    full = np.zeros(shape)
    if block.kind == "cnn_chain":
        ref = arch.dim(block.input_ref)
        if ref.role != "fixed_external":
            raise ValidationError(
                f"block {block.id}: cannot embed a chain fed by conv_out {ref.id!r}"
            )
        for layer in range(1, len(dims) + 1):
            table = tables.conv(block.id, layer)
            data = table.data[0] if layer == 1 else table.data
            # Broadcast the layer's (in, out) table over the other axes.
            expand = [None] * len(dims)
            if layer == 1:
                expand[0] = slice(None)
            else:
                expand[layer - 2] = slice(None)
                expand[layer - 1] = slice(None)
            full = full + data[tuple(expand)]
    else:
        for part, roles in TRANSFORMER_PARTS.items():
            table = tables.part(block.id, part)
            expand = [None] * len(dims)
            for r in roles:
                expand[TRANSFORMER_ROLES.index(r)] = slice(None)
            full = full + table.data[tuple(expand)]
    return full
