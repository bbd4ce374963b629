"""Latency lookup tables, constraint evaluation, synthesis, and the
single-row linear cost model.

A table set holds one dense nonnegative tensor per part that
``ArchitectureSpec.parts`` names, over the dimensions it lists and indexed
by keep-count options: one ``conv_layer`` per chain layer over (input,
output) width; per transformer ``qk`` over (emb, head, qk), ``vproj`` over
(emb, head, v) and ``mlp`` over (emb, mlp).

``constraint_value`` evaluates the decomposed per-part sum for an
assignment.  All latencies are milliseconds and share the budget's unit.
Table axes are grouped options, never raw channel counts; no interpolation
between options is performed.

The module also carries the single-row linear cost model used by earlier
latency-pruning schemes (``linear_channel_cost``), its error bound against
two-axis lookups (``estimation_error``), and a trajectory replay that
quantifies the cumulative gap between the two models along an iterative
pruning schedule.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .arch import ArchitectureSpec, BlockSpec, MANIFEST_KEY, kept_elements, numbers, records
from .arch import TRANSFORMER_PARTS, dump_json, require_keys, typed
from .errors import ParseError, ValidationError
from .importance import Assignment

PARTS = ("conv_layer", *TRANSFORMER_PARTS)
PART_RANK = {"conv_layer": 2, **{part: len(roles) for part, roles in TRANSFORMER_PARTS.items()}}


@dataclass(frozen=True)
class LatencyTable:
    block_id: int
    part: str
    axes: tuple[str, ...]
    data: np.ndarray  # float64, milliseconds
    layer: int | None = None  # 1-based, conv_layer only

    def validate(self) -> None:
        label = self.label()
        if self.part not in PARTS:
            raise ValidationError(f"{label}: unknown part {self.part!r}")
        if self.part == "conv_layer":
            if self.layer is None or self.layer < 1:
                raise ValidationError(f"{label}: conv_layer tables need a 1-based layer")
        elif self.layer is not None:
            raise ValidationError(f"{label}: only conv_layer tables carry a layer index")
        rank = PART_RANK[self.part]
        if self.data.ndim != rank:
            raise ValidationError(
                f"{label}: expected rank {rank} data, found rank {self.data.ndim}"
            )
        if len(self.axes) != rank:
            raise ValidationError(
                f"{label}: expected {rank} axes, found {len(self.axes)}"
            )
        if not np.all(np.isfinite(self.data)):
            idx = np.argwhere(~np.isfinite(self.data))[0]
            raise ValidationError(f"{label}: non-finite entry at index {tuple(idx.tolist())}")
        if np.any(self.data < 0):
            idx = np.argwhere(self.data < 0)[0]
            raise ValidationError(f"{label}: negative entry at index {tuple(idx.tolist())}")

    def label(self) -> str:
        if self.part == "conv_layer":
            return f"block {self.block_id} conv_layer {self.layer}"
        return f"block {self.block_id} {self.part}"


class TableSet:
    """All latency tables of one problem, keyed by (block, part, layer)."""

    def __init__(self) -> None:
        self._tables: dict[tuple[int, str, int | None], LatencyTable] = {}

    def add(self, table: LatencyTable) -> None:
        table.validate()
        key = (table.block_id, table.part, table.layer)
        if key in self._tables:
            raise ValidationError(f"duplicate table for {table.label()}")
        self._tables[key] = table

    def get(self, block_id: int, part: str, layer: int | None = None) -> LatencyTable | None:
        return self._tables.get((block_id, part, layer))

    def __iter__(self):
        return iter(sorted(self._tables.values(), key=lambda t: (t.block_id, t.part, t.layer or 0)))

    def __len__(self) -> int:
        return len(self._tables)


def block_latency(
    assignment: Assignment, tables: TableSet, arch: ArchitectureSpec, block: BlockSpec
) -> float:
    """Latency of one block for an assignment, ignoring its keep/remove bit."""
    omega = assignment.omega
    subtotal = 0.0
    for part, layer, dims in arch.parts(block):
        table = tables.get(block.id, part, layer)
        if table is None:
            label = part if layer is None else f"{part} {layer}"
            raise ValidationError(f"block {block.id}: missing {label} table")
        idx = []
        for dim in dims:
            choice = 1 if dim.role == "fixed_external" else omega[dim.id]
            if choice < 1:
                _check_choice(table, len(idx), choice)
            idx.append(choice - 1)
        try:
            subtotal += table.data.item(*idx)
        except IndexError:  # a choice beyond its axis
            for axis, i in enumerate(idx):
                _check_choice(table, axis, i + 1)
            raise
    return subtotal


def _check_choice(table: LatencyTable, axis: int, choice: int) -> None:
    if not 1 <= choice <= table.data.shape[axis]:
        raise ValidationError(
            f"{table.label()}: choice {choice} out of range on axis {axis} "
            f"(size {table.data.shape[axis]})"
        )


def constraint_value(
    assignment: Assignment, tables: TableSet, arch: ArchitectureSpec
) -> float:
    """Total latency of an assignment with removed blocks contributing zero.

    Same fixed accumulation order as ``importance.objective_value``.
    """
    total = 0.0
    for block in arch.blocks:
        if assignment.kappa_of(block) == 0:
            continue
        total += block_latency(assignment, tables, arch, block)
    return total


@dataclass(frozen=True)
class LatencyModelParams:
    """Synthetic cost-model knobs standing in for on-hardware measurement."""

    unit_cost: float = 1e-6  # ms per multiply-accumulate equivalent
    overhead: float = 0.01  # ms per kernel launch
    tile: int = 32  # effective sizes round up to multiples of this
    spatial: float = 1.0  # H*W*k^2-style multiplier applied per table

    def validate(self) -> None:
        if self.unit_cost <= 0 or self.overhead <= 0 or self.spatial <= 0:
            raise ValidationError("latency model parameters must be positive")
        if not isinstance(self.tile, int) or self.tile < 1:
            raise ValidationError("tile must be a positive integer")


def _effective(kept: np.ndarray, tile: int) -> np.ndarray:
    return np.ceil(kept / tile) * tile


def synth_lut(
    arch: ArchitectureSpec,
    params: LatencyModelParams,
    seed: int,
    noise: float = 0.02,
) -> TableSet:
    """Generate a full synthetic table set for `arch`.

    Entries follow ``overhead + unit_cost * spatial * prod(effective sizes)``
    where each kept count rounds up to a multiple of ``tile``; tiling creates
    the plateaus that separate two-axis lookups from single-row linear
    estimates.  Multiplicative noise is bounded by `noise` (0 disables it)
    and is deterministic in `seed`.
    """
    params.validate()
    if not 0 <= noise < 1:
        raise ValidationError(f"noise fraction must be in [0, 1), got {noise}")
    rng = np.random.default_rng(seed)
    tables = TableSet()

    def kept_counts(dim) -> np.ndarray:
        return np.array(
            [kept_elements(dim, j) for j in range(1, dim.option_count + 1)], dtype=float
        )

    def finish(data: np.ndarray) -> np.ndarray:
        if noise > 0:
            data = data * (1.0 + noise * rng.uniform(-1.0, 1.0, size=data.shape))
        return data

    for block in arch.blocks:
        for part, layer, dims in arch.parts(block):
            grids = np.meshgrid(
                *(_effective(kept_counts(d), params.tile) for d in dims), indexing="ij"
            )
            data = params.overhead + params.unit_cost * params.spatial * reduce(
                np.multiply, grids
            )
            tables.add(
                LatencyTable(
                    block_id=block.id,
                    part=part,
                    layer=layer,
                    axes=tuple(d.id for d in dims),
                    data=finish(data),
                )
            )
    return tables


def linear_channel_cost(table: LatencyTable, p_prev: int, j: int) -> float:
    """Marginal cost of the j-th output option read from one fixed input row.

    This is the single-row linear model: the cost of step ``j`` is
    ``T(p_prev, j) - T(p_prev, j-1)`` with ``T(., 0)`` defined as zero, i.e.
    only the ``p_prev``-th row of the two-axis table is consulted.
    """
    if table.part != "conv_layer":
        raise ValidationError(f"{table.label()}: linear model applies to conv layers")
    if j < 1:
        raise ValidationError(f"output option {j} must be >= 1")
    _check_choice(table, 0, p_prev)
    _check_choice(table, 1, j)
    row = table.data[p_prev - 1]
    prev = float(row[j - 2]) if j >= 2 else 0.0
    return float(row[j - 1]) - prev


def estimation_error(
    table: LatencyTable, p_prev: int, p_hat: int, j: int
) -> tuple[float, float]:
    """Error of the stale-row marginal cost against the true-row one.

    `p_prev` is the input option remembered from the previous pruning step,
    `p_hat` the true current one (must not exceed `p_prev`).  Returns
    ``(epsilon, bound)`` where epsilon is the absolute marginal-cost error
    and bound is its triangle-inequality envelope built from the two rows.
    """
    if p_hat > p_prev:
        raise ValidationError(
            f"p_hat ({p_hat}) must not exceed p_prev ({p_prev}); pruning only shrinks"
        )
    r_stale = linear_channel_cost(table, p_prev, j)
    r_true = linear_channel_cost(table, p_hat, j)
    epsilon = abs(r_true - r_stale)
    row_prev = table.data[p_prev - 1]
    row_hat = table.data[p_hat - 1]
    at = lambda row, k: float(row[k - 1]) if k >= 1 else 0.0
    bound = abs(at(row_prev, j - 1) - at(row_hat, j - 1)) + abs(
        at(row_prev, j) - at(row_hat, j)
    )
    return epsilon, bound


@dataclass(frozen=True)
class PruneTrajectory:
    """Per-step keep-count configurations of an iterative pruning schedule.

    Each step maps every conv dimension id to its option index after that
    step; the schedule implicitly starts from the dense network (every
    dimension at its last option).  Kept counts may only shrink step over
    step.
    """

    steps: tuple[dict[str, int], ...]

    def validate_for(self, arch: ArchitectureSpec) -> None:
        conv_dims = []
        for block in arch.blocks:
            if block.kind != "cnn_chain":
                raise ValidationError(
                    f"block {block.id}: trajectories only apply to cnn_chain "
                    f"architectures"
                )
            conv_dims.extend(block.dims)
        prev = {d: arch.dim(d).option_count for d in conv_dims}
        for t, step in enumerate(self.steps):
            if not isinstance(step, dict) or set(step) != set(conv_dims):
                raise ValidationError(
                    f"trajectory step {t}: must assign exactly the conv dimensions "
                    f"{sorted(conv_dims)}"
                )
            for d, j in step.items():
                dim = arch.dim(d)
                if isinstance(j, bool) or not isinstance(j, int):
                    raise ValidationError(
                        f"trajectory step {t}: {d!r} option must be an integer, got {j!r}"
                    )
                if not 1 <= j <= dim.option_count:
                    raise ValidationError(
                        f"trajectory step {t}: {d!r} option {j} out of range "
                        f"[1, {dim.option_count}]"
                    )
                if j > prev[d]:
                    raise ValidationError(
                        f"trajectory step {t}: {d!r} grows from option {prev[d]} "
                        f"to {j}; kept counts must be nonincreasing"
                    )
            prev = dict(step)


@dataclass(frozen=True)
class ReplayStep:
    step: int
    true_ms: float
    linear_ms: float
    gap: float
    layer_errors: tuple[tuple[str, float, float], ...]  # (dim_id, epsilon, bound)


def _dense_config(arch: ArchitectureSpec) -> dict[str, int]:
    cfg = {}
    for block in arch.blocks:
        for d in block.dims:
            cfg[d] = arch.dim(d).option_count
    return cfg


def replay_trajectory(
    traj: PruneTrajectory, tables: TableSet, arch: ArchitectureSpec
) -> list[ReplayStep]:
    """Replay a pruning schedule and compare both latency models per step.

    The true latency reads every layer's table at the step's actual (input,
    output) options; the linear estimate reads each layer's row at the input
    option remembered from the previous step.  The gap is zero exactly when
    no layer's input changed in the step.
    """
    traj.validate_for(arch)
    report = []
    prev_cfg = _dense_config(arch)
    for t, step in enumerate(traj.steps):
        asg = Assignment(omega=dict(step), kappa={b.id: 1 for b in arch.blocks if b.removable})
        true_ms = constraint_value(asg, tables, arch)
        linear_ms = 0.0
        layer_errors = []
        for block in arch.blocks:
            for part, layer, (din, dout) in arch.parts(block):
                table = tables.get(block.id, part, layer)
                if din.role == "fixed_external":
                    in_prev = in_now = 1
                else:
                    in_prev = prev_cfg[din.id]
                    in_now = step[din.id]
                out_now = step[dout.id]
                linear_ms += float(table.data[in_prev - 1, out_now - 1])
                eps, bound = estimation_error(table, in_prev, in_now, out_now)
                layer_errors.append((dout.id, eps, bound))
        report.append(
            ReplayStep(
                step=t,
                true_ms=true_ms,
                linear_ms=linear_ms,
                gap=linear_ms - true_ms,
                layer_errors=tuple(layer_errors),
            )
        )
        prev_cfg = dict(step)
    return report


def parse_lut(document: str) -> TableSet:
    """Parse a JSON table-set document.

    Each record holds the header fields {block_id, part, axes, shape}
    (conv_layer records add ``layer``) and a row-major payload in either
    ``data`` (list of numbers) or ``data_b64`` (little-endian float64).
    """
    tables = TableSet()
    for i, entry in enumerate(records(document, "lut", "tables")):
        where = f"lut[{i}]"
        require_keys(
            entry, {"block_id", "part", "axes", "shape"}, {"layer", "data", "data_b64"}, where
        )
        if ("data" in entry) == ("data_b64" in entry):
            raise ParseError(f"{where}: exactly one of data/data_b64 required")
        shape = typed(entry["shape"], list, f"{where}.shape", int)
        if not all(s > 0 for s in shape):
            raise ParseError(f"{where}: shape must be a list of positive integers")
        layer = typed(entry.get("layer"), (int, type(None)), f"{where}.layer")
        if "data" in entry:
            flat = numbers(entry["data"], f"{where}.data")
        else:
            try:
                raw = base64.b64decode(entry["data_b64"], validate=True)
                flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
            except (TypeError, ValueError):
                raise ParseError(f"{where}.data_b64: invalid base64 payload") from None
        if flat.size != math.prod(shape):
            raise ParseError(
                f"{where}: payload has {flat.size} values, shape {shape} needs "
                f"{math.prod(shape)}"
            )
        table = LatencyTable(
            block_id=typed(entry["block_id"], int, f"{where}.block_id"),
            part=entry["part"],
            axes=tuple(typed(entry["axes"], list, f"{where}.axes", str)),
            data=flat.reshape(shape),
            layer=layer,
        )
        try:
            tables.add(table)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
    return tables


def serialize_lut(
    tables: TableSet, base64_payload: bool = False, manifest: str | None = None
) -> str:
    records = []
    for table in tables:
        record: dict = {
            "block_id": table.block_id,
            "part": table.part,
            "axes": list(table.axes),
            "shape": list(table.data.shape),
        }
        if table.layer is not None:
            record["layer"] = table.layer
        flat = np.ascontiguousarray(table.data, dtype=np.float64).reshape(-1)
        if base64_payload:
            record["data_b64"] = base64.b64encode(flat.astype("<f8").tobytes()).decode()
        else:
            record["data"] = [float(v) for v in flat]
        records.append(record)
    doc: dict = {"tables": records}
    if manifest is not None:
        doc[MANIFEST_KEY] = manifest
    return dump_json(doc)
