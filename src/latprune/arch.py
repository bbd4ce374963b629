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
import sys
from array import array
from functools import cached_property
from numbers import Real

from .errors import ParseError, ValidationError
from .record import Record

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
# The most containers a document may hold for `load_json` to hand it to
# orjson: as deep as json.loads goes under the default recursion limit.
ORJSON_MAX_CONTAINERS = 1000
# Characters a process decodes before it imports orjson (8-10 ms), under the
# break-even of `check` (~1 MiB) and of `extract` (~400 KiB, see README).
ORJSON_MIN_CHARS = 2**18
_decoded = 0  # characters given to `load_json` in this process


class DimensionSpec(Record):
    """One prunable (or fixed) size in the network."""

    id: str
    role: str
    option_count: int
    group_size: int
    max_elements: int

    def validate(self) -> None:
        if self.role not in ROLES:
            raise ValidationError(f"dimension {self.id!r}: unknown role {shown(self.role)}")
        for field in ("option_count", "group_size", "max_elements"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValidationError(
                    f"dimension {self.id!r}: {field} must be a positive integer, got {value!r}"
                )
        # Kept counts are held as int64 (see kept_counts).
        for sizes, value in (("option_count*group_size", self.option_count * self.group_size),
                             ("max_elements", self.max_elements)):
            if value >= 2**63:
                raise ValidationError(f"dimension {self.id!r}: {sizes} must be below 2**63")
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


def kept_counts(dim: DimensionSpec) -> array:
    """``kept_elements`` of every option of `dim`, in option order, as an
    int64 array (typecode ``q``)."""
    step = dim.group_size
    return array("q", [min(kept, dim.max_elements)
                       for kept in range(step, dim.option_count * step + 1, step)])


class BlockSpec(Record):
    """A residually skipped group of layers; the unit of whole removal."""

    id: int
    kind: str
    dims: tuple[str, ...]
    removable: bool
    input_ref: str | None = None


class ArchitectureSpec(Record):
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
        # Outputs are UTF-8 text, which a lone surrogate (a "\\ud800" escape
        # in the document) cannot be written as.
        for what, text in [("architecture name", self.name),
                           *(("dimension id", d) for d in self.dims)]:
            try:
                text.encode()
            except UnicodeEncodeError as exc:
                raise ValidationError(f"{what} {text!r} is not valid Unicode: "
                                      f"{exc.reason}") from None
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
                raise ValidationError(f"block {block.id}: unknown kind {shown(block.kind)}")
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


def document_text(data: bytes, name: str, path: str) -> str:
    """A document's bytes as UTF-8 text; other bytes are a ParseError naming
    the document."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{name}: {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def load_json(document: str, where: str):
    """Decode a JSON document; an error becomes a ParseError naming `where`.

    The value is ``json.loads(document)``'s: the same types, key order,
    duplicate-key result and float bits.  orjson decodes it, several times
    faster, where `_orjson` gives it, unless orjson refuses the document (a
    ``NaN`` or ``Infinity`` token, a lone-surrogate escape, a number beyond
    the float range, or a syntax error) or the document holds more than
    `ORJSON_MAX_CONTAINERS` ``[`` and ``{`` characters; then ``json.loads``
    decodes it, and its syntax errors are the messages.  orjson has no
    nesting limit and crashes the process on a deep enough document, while
    ``json.loads`` stops near the interpreter's recursion limit: that is a
    ParseError too, as is an integer literal longer than the interpreter's
    digit limit for ``int``.  One difference remains where orjson decodes:
    it reads an integer literal outside [-2**63, 2**64) as the nearest
    float64, which number fields read as the value they read the integer
    as, and integer fields reject."""
    orjson = _orjson(len(document))
    if orjson and _few_containers(document):
        try:
            return orjson.loads(document)
        except orjson.JSONDecodeError:
            pass
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError(f"{where}: nested too deeply") from None
    except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
        raise ParseError(f"{where}: {str(exc).split(';')[0]}") from None


def _few_containers(document: str) -> bool:
    """Whether `document` holds at most `ORJSON_MAX_CONTAINERS` ``[`` and
    ``{``, leapt to by ``str.find`` (``str.count`` steps through every
    character) up to the one past the limit."""
    found = 0
    for bracket in "[{":
        at = document.find(bracket)
        while at >= 0 and found <= ORJSON_MAX_CONTAINERS:
            found += 1
            at = document.find(bracket, at + 1)
    return found <= ORJSON_MAX_CONTAINERS


def dump_json(obj) -> str:
    """The one JSON writer: indented, sorted keys, a trailing newline, and
    standard JSON only (a NaN or infinite float raises ValueError).

    The text is exactly ``json.dumps(obj, indent=2, sort_keys=True,
    allow_nan=False) + "\\n"``.  orjson writes it, several times faster,
    when `_plain` finds that it prints `obj` alike and `_orjson` gives it;
    otherwise, or when orjson refuses a type (``np.float64``), ``json.dumps``
    does.  A value of any other type (``np.int64``, a set, ...) and a dict
    key that is not a ``str``, at any depth, raise TypeError."""
    if _plain(obj) and (orjson := _orjson()):
        try:
            return orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS
                                | orjson.OPT_APPEND_NEWLINE).decode()
        except TypeError:
            pass
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _orjson(chars: int = 0):
    """orjson if the process has it or numpy (which imports most of what it
    loads) loaded, or has decoded `ORJSON_MIN_CHARS` counting `chars`."""
    global _decoded
    _decoded += chars
    if _decoded >= ORJSON_MIN_CHARS or "orjson" in sys.modules or "numpy" in sys.modules:
        import orjson
        return orjson
    return None


def _plain(value) -> bool:
    """Whether orjson prints `value` as ``json.dumps`` does: every str is
    printable ASCII, every int lies in [-2**63, 2**64), and every float is 0
    or of magnitude in [1e-4, 1e16) (outside it orjson writes ``1e16`` and
    ``0.00001`` for ``1e+16`` and ``1e-05``; NaN and infinity fail).  The
    whole value is walked, so a key that is not a str raises TypeError even
    under a value that fails."""
    if isinstance(value, str):
        return value.isascii() and value.isprintable()
    if isinstance(value, float):
        return value == 0 or 1e-4 <= abs(value) < 1e16
    if isinstance(value, int):  # bool included
        return -2**63 <= value < 2**64
    plain = True
    if isinstance(value, (list, tuple)):
        if value and set(map(type, value)) == {int}:  # kept-element lists: one pass
            return -2**63 <= min(value) and max(value) < 2**64
        for item in value:
            plain &= _plain(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            plain &= _plain(key) & _plain(item)
    else:
        return value is None
    return plain


def csv_field(text: str) -> str:
    """`text` as one CSV field: quoted by RFC 4180, its quotes doubled, only
    when it holds a comma, a quote, CR or LF; any other text as it is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def shown(value) -> str:
    """A decoded value's repr for a message, cut to at most 80 characters (a
    whole table would be hundreds of thousands); a value nested too deeply
    for repr shows as its type."""
    try:
        text = repr(value)
    except RecursionError:
        return f"<{type(value).__name__} nested too deeply>"
    return text if len(text) <= 80 else text[:76] + " ..."


def typed(value, kind, where: str, item=None):
    """`value` if it is a `kind` (a type or tuple of types) whose entries, when
    `item` is given, are `item`s; a bool never counts as a number.  Shared by
    the document readers, so a wrong type names its field and `shown` value."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{where}: unexpected {type(value).__name__} value {shown(value)}")
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


def checked_budget(budget) -> float:
    """`budget` as a float if it is a positive real number (infinity
    included); shared by ``solver.assemble`` and ``latprune extract``."""
    if isinstance(budget, bool) or not isinstance(budget, Real):
        raise ValidationError(f"budget must be a real number, got {budget!r}")
    if math.isnan(budget) or budget <= 0:
        raise ValidationError(f"budget must be positive, got {budget!r}")
    return float(budget)


def numbers(value, where: str) -> array:
    """A list of JSON numbers (see `number`) as one float64 array (typecode
    ``d``); a bad entry names its field as ``where[i]``."""
    typed(value, list, where)
    if set(map(type, value)) <= {int, float}:
        try:
            return array("d", value)
        except OverflowError:
            pass
    return array("d", [number(v, f"{where}[{i}]") for i, v in enumerate(value)])


def first_non_finite(values) -> int | None:
    """The index of the first NaN or infinite entry of a float64 buffer, or
    None.  A finite sum clears them all in one pass: an infinite or NaN
    entry leaves every float sum infinite or NaN (finite entries can sum to
    inf too, so only then are they looked at one by one)."""
    if math.isfinite(sum(values)):
        return None
    return next((i for i, v in enumerate(values) if not math.isfinite(v)), None)


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


def checked_vectors(arch: ArchitectureSpec, vectors: dict) -> dict:
    """`vectors` if they match `arch`: each maps a dimension id to an object
    with ``values`` of the dimension's option count, and the dimensions'
    largest |values| sum to a finite total, so no plan's importance
    overflows float64."""
    total = 0.0
    for dim in arch.dims.values():
        vec = vectors.get(dim.id)
        if vec is None:
            raise ValidationError(f"missing importance vector for dimension {dim.id!r}")
        values = vec.values
        if len(values) != dim.option_count:
            raise ValidationError(
                f"importance vector for {dim.id!r}: expected length "
                f"{dim.option_count}, found {len(values)}"
            )
        # max() passes over a NaN that is not first: a NaN value makes the total NaN.
        total += math.nan if any(map(math.isnan, values)) else float(max(map(abs, values)))
    if not math.isfinite(total):
        raise ValidationError(
            f"importance vectors: the dimensions' largest |entries| sum to {total!r}, "
            f"beyond float64's range; scale the scores down"
        )
    return vectors


def validate_problem_shapes(arch: ArchitectureSpec, tables, vectors) -> None:
    """Check that importance vectors (``checked_vectors``) and latency
    tables match `arch`; `tables` is a ``latency.TableSet`` and checks
    itself (``TableSet.validate_for``)."""
    checked_vectors(arch, vectors)
    tables.validate_for(arch)
