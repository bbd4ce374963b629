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
import sys
from array import array
from functools import reduce
from numbers import Integral

from .arch import ArchitectureSpec, BlockSpec, MANIFEST_KEY, kept_counts, numbers, records
from .arch import TRANSFORMER_PARTS, dump_json, first_non_finite, require_keys, shown, typed
from .errors import ParseError, ValidationError
from .importance import Assignment, synth_rng
from .record import Record

PARTS = ("conv_layer", *TRANSFORMER_PARTS)
PART_RANK = {"conv_layer": 2, **{part: len(roles) for part, roles in TRANSFORMER_PARTS.items()}}


class LatencyTable(Record):
    block_id: int
    part: str
    axes: tuple[str, ...]
    # Milliseconds, one axis per entry of `axes`: an n-d memoryview (format
    # "d") as the readers build it, or a numpy array built in code.
    data: memoryview
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
        flat, shape = _flat(self.data), self.data.shape
        k = first_non_finite(flat)
        if k is not None:
            raise ValidationError(f"{label}: non-finite entry at index {_index(k, shape)}")
        k = _first_negative(flat)
        if k is not None:
            raise ValidationError(f"{label}: negative entry at index {_index(k, shape)}")

    def label(self) -> str:
        if self.part == "conv_layer":
            return f"block {self.block_id} conv_layer {self.layer}"
        return f"block {self.block_id} {self.part}"


def _flat(data) -> memoryview:
    """The entries of a table's data, row-major, as one flat float64 view.
    Data in another buffer format or order (a float32, integer or
    Fortran-order numpy array built in code) is read through numpy as a
    float64 copy."""
    view = memoryview(data)
    if view.format != "d" or not view.c_contiguous:
        import numpy as np

        view = memoryview(np.ascontiguousarray(data, dtype=np.float64))
    return view.cast("B").cast("d")


def _first_negative(flat: memoryview) -> int | None:
    """The index of the first negative entry of finite `flat`, or None."""
    if min(flat) >= 0:
        return None
    return next(i for i, v in enumerate(flat) if v < 0)


def _largest(data) -> float:
    """The largest entry of a checked table's data."""
    return max(_flat(data))


def _index(k: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """The index of the `k`-th entry, row-major, of an array of `shape`."""
    index = []
    for size in reversed(shape):
        k, i = divmod(k, size)
        index.append(i)
    return tuple(reversed(index))


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

    def get(self, block_id: int, part: str, layer: int | None = None) -> LatencyTable:
        """The table of one part; a missing one is a ValidationError naming
        the block and the part."""
        try:
            return self._tables[(block_id, part, layer)]
        except KeyError:
            label = _part_label(part, layer)
            raise ValidationError(f"block {block_id}: missing {label} table") from None

    def __iter__(self):
        return iter(sorted(self._tables.values(), key=lambda t: (t.block_id, t.part, t.layer or 0)))

    def validate_for(self, arch: ArchitectureSpec) -> None:
        """Check that the tables match `arch`: every part of every block has
        its table, with the part's axes and option counts; no table is one
        that no part reads; and the tables' largest entries sum to a finite
        total, so no plan's latency overflows float64."""
        named = set()
        total = 0.0
        for block in arch.blocks:
            for part, layer, dims in arch.parts(block):
                table = self.get(block.id, part, layer)
                label = _part_label(part, layer)
                expected_ids = tuple(d.id for d in dims)
                if tuple(table.axes) != expected_ids:
                    raise ValidationError(
                        f"block {block.id}: {label} table axes {tuple(table.axes)} do not "
                        f"match expected dimensions {expected_ids}"
                    )
                for axis, (dim, found) in enumerate(zip(dims, table.data.shape)):
                    if found != dim.option_count:
                        raise ValidationError(
                            f"block {block.id}: {label} table axis {axis} ({dim.id!r}): "
                            f"expected {dim.option_count}, found {found}"
                        )
                named.add((block.id, part, layer))
                total += _largest(table.data)
        for table in self:
            if (table.block_id, table.part, table.layer) not in named:
                raise ValidationError(
                    f"{table.label()}: no part of architecture {arch.name!r} reads this table"
                )
        if not math.isfinite(total):
            raise ValidationError(
                f"lut: the tables' largest entries sum to {total!r} ms, beyond float64's range"
            )


def _part_label(part: str, layer: int | None) -> str:
    return part if layer is None else f"{part} {layer}"


def block_latency(
    assignment: Assignment, tables: TableSet, arch: ArchitectureSpec, block: BlockSpec
) -> float:
    """Latency of one block for an assignment, ignoring its keep/remove bit."""
    omega = assignment.omega
    subtotal = 0.0
    for part, layer, dims in arch.parts(block):
        table = tables.get(block.id, part, layer)
        idx = []
        for dim in dims:
            choice = 1 if dim.role == "fixed_external" else omega[dim.id]
            if choice < 1:
                _check_choice(table, len(idx), choice)
            idx.append(choice - 1)
        try:
            subtotal += float(table.data[tuple(idx)])
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


class LatencyModelParams(Record):
    """Synthetic cost-model knobs standing in for on-hardware measurement."""

    unit_cost: float = 1e-6  # ms per multiply-accumulate equivalent
    overhead: float = 0.01  # ms per kernel launch
    tile: int = 32  # effective sizes round up to multiples of this
    spatial: float = 1.0  # H*W*k^2-style multiplier applied per table

    def validate(self) -> None:
        for name in ("unit_cost", "overhead", "spatial"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(
                    f"latency model parameter {name} must be finite and positive, got {value!r}"
                )
        tile = self.tile
        if isinstance(tile, bool) or not isinstance(tile, Integral) or tile < 1:
            raise ValidationError(
                f"latency model parameter tile must be a positive integer, got {tile!r}"
            )


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
    import numpy as np

    params.validate()
    if not 0 <= noise < 1:
        raise ValidationError(f"noise fraction must be in [0, 1), got {noise}")
    rng = synth_rng(seed)
    tables = TableSet()

    def effective(kept: array):
        return np.ceil(np.asarray(kept) / params.tile) * params.tile

    def finish(data):
        if noise > 0:
            data = data * (1.0 + noise * rng.uniform(-1.0, 1.0, size=data.shape))
        return memoryview(data)

    for block in arch.blocks:
        for part, layer, dims in arch.parts(block):
            grids = np.meshgrid(*(effective(kept_counts(d)) for d in dims), indexing="ij")
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
    return _at(table, p_prev, j) - _at(table, p_prev, j - 1)


def _at(table: LatencyTable, p: int, j: int) -> float:
    """``T(p, j)`` of a conv_layer table, 1-based, with ``T(p, 0) = 0``."""
    return float(table.data[p - 1, j - 1]) if j >= 1 else 0.0


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
    bound = abs(_at(table, p_prev, j - 1) - _at(table, p_hat, j - 1)) + abs(
        _at(table, p_prev, j) - _at(table, p_hat, j)
    )
    return epsilon, bound


def replay_trajectory(steps: list, tables: TableSet, arch: ArchitectureSpec) -> list[dict]:
    """Replay a pruning schedule and compare both latency models per step.

    `steps` is the schedule as the trajectory document holds it: after each
    step, a ``{dim_id: option}`` dict over exactly the conv dimensions of a
    ``cnn_chain``-only `arch`.  It starts from the dense network (every
    dimension at its last option), and kept counts only shrink step over
    step.  The schedule is checked, then the tables against `arch`.

    Each step gives a dict: ``step`` (0-based), ``true_ms``, the latency
    read from every layer's table at the step's actual (input, output)
    options, ``linear_ms``, the estimate reading each layer's row at the
    input option remembered from the previous step, ``gap`` (``linear_ms -
    true_ms``) and ``layers``, one ``(dim_id, epsilon, bound)`` per layer
    (``estimation_error`` of its output option).  Both sums add a subtotal
    per block, so the gap is exactly 0.0 when no layer's input changed in
    the step.
    """
    conv_dims = []
    for block in arch.blocks:
        if block.kind != "cnn_chain":
            raise ValidationError(
                f"block {block.id}: trajectories only apply to cnn_chain architectures"
            )
        conv_dims.extend(block.dims)
    prev = {d: arch.dim(d).option_count for d in conv_dims}
    for t, step in enumerate(steps):
        if not isinstance(step, dict) or set(step) != set(conv_dims):
            raise ValidationError(
                f"trajectory step {t}: must assign exactly the conv dimensions "
                f"{sorted(conv_dims)}"
            )
        for d, j in step.items():
            dim = arch.dim(d)
            if isinstance(j, bool) or not isinstance(j, int):
                raise ValidationError(
                    f"trajectory step {t}: {d!r} option must be an integer, got {shown(j)}"
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
        prev = step
    tables.validate_for(arch)
    rows = []
    kappa = {b.id: 1 for b in arch.blocks if b.removable}
    # The dense network: every dimension at its last option, a trunk width at its only one.
    prev_cfg = {d.id: d.option_count for d in arch.dims.values()}
    for t, step in enumerate(steps):
        cfg = prev_cfg | step
        true_ms = constraint_value(Assignment(omega=step, kappa=kappa), tables, arch)
        linear_ms = 0.0
        layers = []
        for block in arch.blocks:
            subtotal = 0.0  # per block, as constraint_value adds
            for part, layer, (din, dout) in arch.parts(block):
                table = tables.get(block.id, part, layer)
                in_prev, in_now, out_now = prev_cfg[din.id], cfg[din.id], cfg[dout.id]
                subtotal += _at(table, in_prev, out_now)
                layers.append((dout.id, *estimation_error(table, in_prev, in_now, out_now)))
            linear_ms += subtotal
        rows.append({"step": t, "true_ms": true_ms, "linear_ms": linear_ms,
                     "gap": linear_ms - true_ms, "layers": layers})
        prev_cfg = cfg
    return rows


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
        if len(shape) > 64:  # more axes than a memoryview takes; a table has 2 or 3
            raise ParseError(f"{where}: shape has {len(shape)} axes, more than 64")
        layer = typed(entry.get("layer"), (int, type(None)), f"{where}.layer")
        if "data" in entry:
            flat = numbers(entry["data"], f"{where}.data")
        else:
            try:
                flat = array("d", base64.b64decode(entry["data_b64"], validate=True))
            except (TypeError, ValueError):
                raise ParseError(f"{where}.data_b64: invalid base64 payload") from None
            if sys.byteorder == "big":  # the payload is little-endian
                flat.byteswap()
        if len(flat) != math.prod(shape):
            raise ParseError(
                f"{where}: payload has {len(flat)} values, shape {shape} needs "
                f"{math.prod(shape)}"
            )
        table = LatencyTable(
            block_id=typed(entry["block_id"], int, f"{where}.block_id"),
            part=typed(entry["part"], str, f"{where}.part"),
            axes=tuple(typed(entry["axes"], list, f"{where}.axes", str)),
            data=memoryview(flat).cast("B").cast("d", shape),
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
    return dump_json(lut_to_obj(tables, base64_payload, manifest))


def lut_to_obj(
    tables: TableSet, base64_payload: bool = False, manifest: str | None = None
) -> dict:
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
        flat = _flat(table.data)
        if base64_payload:
            payload = array("d", flat)
            if sys.byteorder == "big":  # the payload is little-endian
                payload.byteswap()
            record["data_b64"] = base64.b64encode(payload).decode()
        else:
            record["data"] = flat.tolist()
        records.append(record)
    doc: dict = {"tables": records}
    if manifest is not None:
        doc[MANIFEST_KEY] = manifest
    return doc
