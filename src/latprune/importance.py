"""Saliency scores, per-dimension importance vectors, and the gated objective.

Raw saliency scores are supplied per element (one value per channel, head,
query/key unit, ...).  They are folded into importance vectors: entry ``j``
of a dimension's vector is the sum of its top ``kept_elements(dim, j)``
scores, so the vector directly prices each keep-count option.  The objective
of an assignment is the sum of the chosen entries over all blocks, with a
removed block contributing exactly zero.

Scoring is method-agnostic: any real-valued saliency works, negative values
included.  The descending sort breaks ties by original element index so that
structure extraction is deterministic.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .arch import (
    ArchitectureSpec, BlockSpec, DimensionSpec, MANIFEST_KEY, dump_json, kept_counts, numbers,
    records, require_keys, typed,
)
from .errors import ParseError, ValidationError
from .record import Record


class RawScores(Record, frozen=True):
    dim_id: str
    scores: np.ndarray  # float64, one entry per element

    def __eq__(self, other):
        return (
            isinstance(other, RawScores)
            and self.dim_id == other.dim_id
            and np.array_equal(self.scores, other.scores)
        )

    @cached_property
    def ranked(self) -> np.ndarray:
        """``ranked_indices`` of the scores, as int32: the importance vector
        and the kept-element lists both read this one sort."""
        return ranked_indices(self.scores).astype(np.int32)


class ImportanceVector(Record, frozen=True):
    dim_id: str
    values: np.ndarray  # float64, one entry per keep-count option


class Assignment(Record):
    """Chosen option per dimension plus keep/remove bit per removable block."""

    omega: dict[str, int]
    kappa: dict[int, int]

    def __init__(self, omega: dict[str, int] | None = None, kappa: dict[int, int] | None = None):
        super().__init__({} if omega is None else omega, {} if kappa is None else kappa)

    def kappa_of(self, block: BlockSpec) -> int:
        if not block.removable:
            return 1
        try:
            return self.kappa[block.id]
        except KeyError:
            raise ValidationError(f"assignment missing kappa for block {block.id}") from None

    def validate_for(self, arch: ArchitectureSpec) -> None:
        for block in arch.blocks:
            k = self.kappa_of(block)
            if k not in (0, 1):
                raise ValidationError(f"block {block.id}: kappa must be 0 or 1, got {k}")
            for dim in arch.block_dims(block):
                j = self.omega.get(dim.id)
                if j is None:
                    raise ValidationError(f"assignment missing option for {dim.id!r}")
                if not 1 <= j <= dim.option_count:
                    raise ValidationError(
                        f"{dim.id!r}: option {j} out of range [1, {dim.option_count}]"
                    )
        unknown = sorted(set(self.omega) - set(arch.dims))
        if unknown:
            raise ValidationError(f"assignment gives options for unknown dimensions {unknown}")
        for block_id in self.kappa:
            block = arch.blocks[block_id - 1] if 1 <= block_id <= len(arch.blocks) else None
            if block is None or not block.removable:
                raise ValidationError(
                    f"kappa given for block {block_id}, which is not a removable block"
                )


def ranked_indices(scores: np.ndarray) -> np.ndarray:
    """Element indices sorted by descending score, ties by original index.

    numpy's default sort is faster than its stable one and gives the same
    order whenever the sorted values strictly increase; only ties (0.0 and
    -0.0 among them) or NaN take the stable sort."""
    negated = -np.asarray(scores, dtype=np.float64)
    order = np.argsort(negated)
    ranked = negated[order]
    if (ranked[1:] > ranked[:-1]).all():
        return order
    return np.argsort(negated, kind="stable")


def build_importance_vector(raw: RawScores, dim: DimensionSpec) -> ImportanceVector:
    """Fold element scores into per-option top-k prefix sums."""
    scores = np.asarray(raw.scores, dtype=np.float64)
    if scores.shape != (dim.max_elements,):
        raise ValidationError(
            f"scores for {dim.id!r}: expected {dim.max_elements} values, "
            f"found {scores.shape[0] if scores.ndim == 1 else scores.shape}"
        )
    ordered = scores[raw.ranked]
    with np.errstate(over="ignore"):  # an inf sum is refused by arch.checked_vectors
        prefix = np.cumsum(ordered)
    return ImportanceVector(dim_id=dim.id, values=prefix[kept_counts(dim) - 1])


def build_all_vectors(
    arch: ArchitectureSpec, raw_scores: dict[str, RawScores]
) -> dict[str, ImportanceVector]:
    vectors = {}
    for dim in arch.dims.values():
        raw = raw_scores.get(dim.id)
        if raw is None:
            raise ValidationError(f"missing raw scores for dimension {dim.id!r}")
        vectors[dim.id] = build_importance_vector(raw, dim)
    return vectors


def objective_value(
    assignment: Assignment,
    vectors: dict[str, ImportanceVector],
    arch: ArchitectureSpec,
) -> float:
    """Total importance of an assignment; removed blocks contribute zero.

    Accumulation order is fixed (blocks ascending, dimensions in declared
    order, per-block subtotal added to the running total) so that every
    evaluation path in the package produces bit-identical floats.
    """
    total = 0.0
    for block in arch.blocks:
        if assignment.kappa_of(block) == 0:
            continue
        subtotal = 0.0
        for dim_id in block.dims:
            vec = vectors.get(dim_id)
            if vec is None:
                raise ValidationError(f"missing importance vector for {dim_id!r}")
            j = assignment.omega[dim_id]
            dim = arch.dim(dim_id)
            if not 1 <= j <= dim.option_count:
                raise ValidationError(
                    f"{dim_id!r}: option {j} out of range [1, {dim.option_count}]"
                )
            subtotal += float(vec.values[j - 1])
        total += subtotal
    return total


def parse_scores(document: str) -> dict[str, RawScores]:
    """Parse a JSON scores document: a list of {dim_id, scores} records."""
    out: dict[str, RawScores] = {}
    for i, entry in enumerate(records(document, "scores", "scores")):
        where = f"scores[{i}]"
        require_keys(entry, {"dim_id", "scores"}, set(), where)
        dim_id = typed(entry["dim_id"], str, f"{where}.dim_id")
        if dim_id in out:
            raise ValidationError(f"scores: duplicate entry for dimension {dim_id!r}")
        values = numbers(entry["scores"], f"{where}.scores")
        if not values.size:
            raise ParseError(f"{where} ({dim_id!r}): scores must be a non-empty list")
        if not np.isfinite(values).all():
            k = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValidationError(
                f"scores for {dim_id!r}: non-finite value at element {k}: {values[k]}"
            )
        out[dim_id] = RawScores(dim_id=dim_id, scores=values)
    return out


def serialize_scores(scores: dict[str, RawScores], manifest: str | None = None) -> str:
    return dump_json(scores_to_obj(scores, manifest))


def scores_to_obj(scores: dict[str, RawScores], manifest: str | None = None) -> dict:
    doc: dict = {
        "scores": [
            {"dim_id": s.dim_id, "scores": [float(v) for v in s.scores]}
            for s in scores.values()
        ]
    }
    if manifest is not None:
        doc[MANIFEST_KEY] = manifest
    return doc


def synth_rng(seed: int) -> np.random.Generator:
    """The generator the synthesizers draw from; `seed` must be a
    non-negative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def synth_scores(
    arch: ArchitectureSpec, seed: int, distribution: str = "uniform01"
) -> dict[str, RawScores]:
    """Draw deterministic nonnegative saliency scores for every dimension."""
    if distribution not in ("uniform01", "exponential"):
        raise ValidationError(f"unknown score distribution {distribution!r}")
    rng = synth_rng(seed)
    out = {}
    for dim in arch.dims.values():
        if distribution == "uniform01":
            draws = rng.random(dim.max_elements)
        else:
            draws = rng.exponential(1.0, dim.max_elements)
        out[dim.id] = RawScores(dim_id=dim.id, scores=draws)
    return out
