"""Architecture description: prunable dimensions, blocks, and state counting.

An architecture is an ordered list of blocks over a table of named
dimensions.  Each dimension carries a ladder of keep-count options: choosing
option ``j`` (1-based) keeps ``min(j * group_size, max_elements)`` elements
along that dimension.  Two block kinds exist:

* ``cnn_chain`` -- an ordered chain of conv output-channel dimensions; each
  layer's input width is the previous layer's output width, and the first
  layer's input width is taken from ``input_ref``.
* ``transformer`` -- exactly five dimensions in the fixed role order
  (emb, head, qk, v, mlp).

Dimensions carried by the residual trunk are declared ``fixed_external``:
they have a single option that keeps the full width and are never pruned.
Blocks marked ``removable`` can be deleted outright, which zeroes both their
importance and latency contributions.

The on-disk format is a JSON object with top-level keys ``name``, ``dims``
and ``blocks`` (see ``parse_architecture``).  Unknown keys are rejected; the
optional ``_manifest`` key is reserved for provenance stamps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParseError, ValidationError

ROLES = ("conv_out", "emb", "head", "qk", "v", "mlp", "fixed_external")
TRANSFORMER_ROLES = ("emb", "head", "qk", "v", "mlp")
# Latency tables of a transformer block: part -> the roles of its axes.
TRANSFORMER_PARTS = {
    "qk": ("emb", "head", "qk"),
    "vproj": ("emb", "head", "v"),
    "mlp": ("emb", "mlp"),
}
BLOCK_KINDS = ("cnn_chain", "transformer")

# Reserved key allowed (and ignored) in every document this package reads.
MANIFEST_KEY = "_manifest"


@dataclass(frozen=True)
class DimensionSpec:
    """One prunable (or fixed) size in the network."""

    id: str
    role: str
    option_count: int
    group_size: int
    max_elements: int

    def validate(self) -> None:
        if self.role not in ROLES:
            raise ValidationError(f"dimension {self.id!r}: unknown role {self.role!r}")
        for field in ("option_count", "group_size", "max_elements"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(
                    f"dimension {self.id!r}: {field} must be a positive integer, got {value!r}"
                )
        # Guarantees options are strictly increasing: only the last one may clamp.
        if self.option_count * self.group_size > self.max_elements + self.group_size - 1:
            raise ValidationError(
                f"dimension {self.id!r}: option_count*group_size exceeds "
                f"max_elements+group_size-1 "
                f"({self.option_count}*{self.group_size} > "
                f"{self.max_elements}+{self.group_size}-1)"
            )
        if self.role == "fixed_external":
            if self.option_count != 1:
                raise ValidationError(
                    f"dimension {self.id!r}: fixed_external requires option_count=1"
                )
            if self.group_size < self.max_elements:
                raise ValidationError(
                    f"dimension {self.id!r}: fixed_external requires group_size >= "
                    f"max_elements so its single option keeps the full width"
                )


def kept_elements(dim: DimensionSpec, option_index: int) -> int:
    """Number of elements kept when `dim` takes `option_index` (1-based)."""
    if not 1 <= option_index <= dim.option_count:
        raise ValidationError(
            f"dimension {dim.id!r}: option index {option_index} out of range "
            f"[1, {dim.option_count}]"
        )
    return min(option_index * dim.group_size, dim.max_elements)


@dataclass(frozen=True)
class BlockSpec:
    """A residually skipped group of layers; the unit of whole removal."""

    id: int
    kind: str
    dims: tuple[str, ...]
    removable: bool
    input_ref: str | None = None


@dataclass(frozen=True)
class ArchitectureSpec:
    name: str
    blocks: tuple[BlockSpec, ...]
    dims: dict[str, DimensionSpec]

    def dim(self, dim_id: str) -> DimensionSpec:
        try:
            return self.dims[dim_id]
        except KeyError:
            raise ValidationError(f"unknown dimension {dim_id!r}") from None

    def block_dims(self, block: BlockSpec) -> list[DimensionSpec]:
        return [self.dim(d) for d in block.dims]

    def owner_block(self, dim_id: str) -> BlockSpec | None:
        for block in self.blocks:
            if dim_id in block.dims:
                return block
        return None

    def parts(
        self, block: BlockSpec
    ) -> tuple[tuple[str, int | None, tuple[DimensionSpec, ...]], ...]:
        """The latency tables of `block` as (part, layer, axis dimensions)
        triples, in the order ``constraint_value`` sums them.

        A chain has one ``conv_layer`` per layer (1-based ``layer``) over its
        (input, output) widths, the first input being ``input_ref``; a
        transformer has the ``TRANSFORMER_PARTS`` (``layer`` None).  Each
        table's axes follow the block's dimension order, a chain's input
        first, so a table's last axis is the block dimension it reads last.
        """
        return self._parts[block.id]

    @cached_property
    def _parts(self) -> dict[int, tuple]:
        parts = {}
        for block in self.blocks:
            if block.kind == "transformer":
                by_role = dict(zip(TRANSFORMER_ROLES, self.block_dims(block)))
                parts[block.id] = tuple(
                    (part, None, tuple(by_role[r] for r in roles))
                    for part, roles in TRANSFORMER_PARTS.items()
                )
            else:
                axes = [self.dim(block.input_ref), *self.block_dims(block)]
                parts[block.id] = tuple(
                    ("conv_layer", layer, (axes[layer - 1], axes[layer]))
                    for layer in range(1, len(axes))
                )
        return parts

    def validate(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("architecture name must be a non-empty string")
        for dim in self.dims.values():
            dim.validate()

        owners: dict[str, int] = {}
        for pos, block in enumerate(self.blocks, start=1):
            if block.id != pos:
                raise ValidationError(
                    f"block ids must be 1..B consecutive; found id {block.id} at "
                    f"position {pos}"
                )
            if block.kind not in BLOCK_KINDS:
                raise ValidationError(f"block {block.id}: unknown kind {block.kind!r}")
            if not block.dims:
                raise ValidationError(f"block {block.id}: empty dims list")
            for dim_id in block.dims:
                if dim_id not in self.dims:
                    raise ValidationError(
                        f"block {block.id}: references undeclared dimension {dim_id!r}"
                    )
                if dim_id in owners:
                    raise ValidationError(
                        f"dimension {dim_id!r} belongs to both block {owners[dim_id]} "
                        f"and block {block.id}"
                    )
                owners[dim_id] = block.id

            if block.kind == "transformer":
                if block.input_ref is not None:
                    raise ValidationError(
                        f"block {block.id}: transformer blocks take no input_ref"
                    )
                roles = tuple(self.dims[d].role for d in block.dims)
                if roles != TRANSFORMER_ROLES:
                    raise ValidationError(
                        f"block {block.id}: transformer blocks need exactly 5 dims "
                        f"with roles {TRANSFORMER_ROLES}, found {roles}"
                    )
            else:
                for dim_id in block.dims:
                    if self.dims[dim_id].role != "conv_out":
                        raise ValidationError(
                            f"block {block.id}: cnn_chain dims must have role "
                            f"conv_out, but {dim_id!r} has role "
                            f"{self.dims[dim_id].role!r}"
                        )
                if block.input_ref is None:
                    raise ValidationError(f"block {block.id}: cnn_chain needs input_ref")
                if block.input_ref not in self.dims:
                    raise ValidationError(
                        f"block {block.id}: input_ref references undeclared "
                        f"dimension {block.input_ref!r}"
                    )
                ref = self.dims[block.input_ref]
                if ref.role not in ("conv_out", "fixed_external"):
                    raise ValidationError(
                        f"block {block.id}: input_ref {ref.id!r} must have role "
                        f"conv_out or fixed_external, found {ref.role!r}"
                    )

        # Second pass: input_ref ordering, and no free prunable dimensions.
        for block in self.blocks:
            if block.kind != "cnn_chain":
                continue
            ref = self.dims[block.input_ref]
            if ref.role == "conv_out":
                owner = owners.get(ref.id)
                if owner is None:
                    raise ValidationError(
                        f"block {block.id}: input_ref {ref.id!r} is a conv_out "
                        f"dimension owned by no block"
                    )
                if owner >= block.id:
                    raise ValidationError(
                        f"block {block.id}: input_ref {ref.id!r} must be declared "
                        f"earlier in topology order (owned by block {owner})"
                    )
                # Removing the producer would disconnect this chain, so direct
                # conv-to-conv feeds are only allowed from permanent blocks.
                producer = self.blocks[owner - 1]
                if producer.removable:
                    raise ValidationError(
                        f"block {block.id}: input_ref {ref.id!r} is owned by "
                        f"removable block {owner}; route removable outputs through "
                        f"a fixed_external trunk dimension instead"
                    )
        for dim in self.dims.values():
            if dim.role != "fixed_external" and dim.id not in owners:
                raise ValidationError(
                    f"dimension {dim.id!r} (role {dim.role!r}) belongs to no block; "
                    f"only fixed_external dimensions may float free"
                )


def load_json(document: str, where: str):
    """Decode a JSON document; a syntax error becomes a ParseError naming `where`."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None


def dump_json(obj) -> str:
    """The one JSON writer: indented, sorted keys, a trailing newline, and
    standard JSON only (a NaN or infinite float raises ValueError)."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def typed(value, kind, where: str, item=None):
    """`value` if it is a `kind` (a type or tuple of types) whose entries, when
    `item` is given, are `item`s; a bool never counts as a number.  Shared by
    the document readers, so a wrong type names its field.  The message cuts
    the value's repr to at most 80 characters; a whole table would be
    hundreds of thousands."""
    if isinstance(value, bool) or not isinstance(value, kind):
        shown = repr(value)
        if len(shown) > 80:
            shown = shown[:76] + " ..."
        raise ParseError(f"{where}: unexpected {type(value).__name__} value {shown}")
    if item is not None:
        for i, entry in enumerate(value):
            typed(entry, item, f"{where}[{i}]")
    return value


def number(value, where: str) -> float:
    """`value` as a float if it is a JSON number: not a bool, a string or a
    container, and not an int beyond float64's range.  NaN and infinity pass;
    each reader decides whether they are allowed."""
    typed(value, (int, float), where)
    try:
        return float(value)
    except OverflowError:
        raise ParseError(f"{where}: integer too large for a float64") from None


def numbers(value, where: str) -> np.ndarray:
    """A list of JSON numbers (see `number`) as one float64 array; a bad entry
    names its field as ``where[i]``."""
    typed(value, list, where)
    if set(map(type, value)) <= {int, float}:
        try:
            return np.array(value, dtype=np.float64)
        except OverflowError:
            pass
    return np.array([number(v, f"{where}[{i}]") for i, v in enumerate(value)], dtype=np.float64)


def require_keys(obj: dict, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ParseError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional - {MANIFEST_KEY}
    if unknown:
        raise ParseError(f"{where}: unknown keys {sorted(unknown)}")


def records(document: str, where: str, key: str) -> list:
    """The record list of a JSON document that is either the bare list or an
    object ``{key: [...]}`` (plus the optional ``_manifest``)."""
    obj = load_json(document, where)
    if not isinstance(obj, dict):
        return typed(obj, list, where)
    require_keys(obj, {key}, set(), where)
    return typed(obj[key], list, f"{where}.{key}")


def architecture_from_obj(obj: dict) -> ArchitectureSpec:
    require_keys(obj, {"name", "dims", "blocks"}, set(), "architecture")
    typed(obj["dims"], list, "architecture.dims")
    typed(obj["blocks"], list, "architecture.blocks")

    dims: dict[str, DimensionSpec] = {}
    for i, entry in enumerate(obj["dims"]):
        where = f"dims[{i}]"
        require_keys(
            entry,
            {"id", "role", "option_count", "group_size", "max_elements"},
            set(),
            where,
        )
        typed(entry["id"], str, f"{where}.id")
        if entry["id"] in dims:
            raise ValidationError(f"{where}: duplicate dimension id {entry['id']!r}")
        sizes = {
            field: typed(entry[field], int, f"{where}.{field}")
            for field in ("option_count", "group_size", "max_elements")
        }
        dims[entry["id"]] = DimensionSpec(id=entry["id"], role=entry["role"], **sizes)

    blocks = []
    for i, entry in enumerate(obj["blocks"]):
        where = f"blocks[{i}]"
        require_keys(entry, {"id", "kind", "removable", "dims"}, {"input_ref"}, where)
        typed(entry["id"], int, f"{where}.id")
        typed(entry["dims"], list, f"{where}.dims", str)
        typed(entry.get("input_ref"), (str, type(None)), f"{where}.input_ref")
        if not isinstance(entry["removable"], bool):
            raise ParseError(f"{where}: removable must be a boolean")
        blocks.append(
            BlockSpec(
                id=entry["id"],
                kind=entry["kind"],
                dims=tuple(entry["dims"]),
                removable=entry["removable"],
                input_ref=entry.get("input_ref"),
            )
        )

    arch = ArchitectureSpec(name=obj["name"], blocks=tuple(blocks), dims=dims)
    arch.validate()
    return arch


def parse_architecture(document: str) -> ArchitectureSpec:
    """Parse and validate a JSON architecture document."""
    return architecture_from_obj(load_json(document, "architecture"))


def architecture_to_obj(arch: ArchitectureSpec) -> dict:
    return {
        "name": arch.name,
        "dims": [
            {
                "id": d.id,
                "role": d.role,
                "option_count": d.option_count,
                "group_size": d.group_size,
                "max_elements": d.max_elements,
            }
            for d in arch.dims.values()
        ],
        "blocks": [
            {
                "id": b.id,
                "kind": b.kind,
                "removable": b.removable,
                "dims": list(b.dims),
                **({"input_ref": b.input_ref} if b.input_ref is not None else {}),
            }
            for b in arch.blocks
        ],
    }


def serialize_architecture(arch: ArchitectureSpec) -> str:
    return dump_json(architecture_to_obj(arch))


def subnetwork_count(arch: ArchitectureSpec) -> int:
    """Count distinct extractable structures.

    Per block this is the product of its dimensions' option counts, plus one
    extra all-removed state when the block is removable (the dimension
    choices of a removed block are ignored at extraction).
    """
    total = 1
    for block in arch.blocks:
        states = math.prod(arch.dim(d).option_count for d in block.dims)
        if block.removable:
            states += 1
        total *= states
    return total


def validate_problem_shapes(arch: ArchitectureSpec, tables, vectors) -> None:
    """Check that importance vectors and latency tables match `arch`.

    `tables` must expose ``get(block_id, part, layer)``, returning an object
    with ``axes`` and ``data`` (or None when absent), and iterate over its
    tables, each with ``block_id``, ``part``, ``layer`` and ``label()``; a
    table that no part of `arch` names is rejected.  `vectors` maps
    dimension id to an object with ``values``.
    """
    for dim in arch.dims.values():
        vec = vectors.get(dim.id)
        if vec is None:
            raise ValidationError(f"missing importance vector for dimension {dim.id!r}")
        if len(vec.values) != dim.option_count:
            raise ValidationError(
                f"importance vector for {dim.id!r}: expected length "
                f"{dim.option_count}, found {len(vec.values)}"
            )

    named = set()
    for block in arch.blocks:
        for part, layer, dims in arch.parts(block):
            label = part if layer is None else f"{part} {layer}"
            table = tables.get(block.id, part, layer)
            if table is None:
                raise ValidationError(f"block {block.id}: missing {label} table")
            _check_axes(block.id, label, table, dims)
            named.add((block.id, part, layer))
    for table in tables:
        if (table.block_id, table.part, table.layer) not in named:
            raise ValidationError(
                f"{table.label()}: no part of architecture {arch.name!r} reads this table"
            )


def _check_axes(block_id: int, label: str, table, expected_dims) -> None:
    expected_ids = tuple(d.id for d in expected_dims)
    if tuple(table.axes) != expected_ids:
        raise ValidationError(
            f"block {block_id}: {label} table axes {tuple(table.axes)} do not "
            f"match expected dimensions {expected_ids}"
        )
    for axis, dim in enumerate(expected_dims):
        found = table.data.shape[axis]
        if found != dim.option_count:
            raise ValidationError(
                f"block {block_id}: {label} table axis {axis} ({dim.id!r}): "
                f"expected {dim.option_count}, found {found}"
            )
