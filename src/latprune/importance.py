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

import sys
from array import array
from itertools import accumulate
from numbers import Integral

from .arch import (
    ArchitectureSpec, BlockSpec, DimensionSpec, MANIFEST_KEY, checked_vectors, dump_json,
    first_non_finite, kept_counts, numbers, records, require_keys, typed,
)
from .errors import ParseError, ValidationError
from .record import Record


class ImportanceVector(Record):
    values: array  # float64 (typecode "d"), one entry per keep-count option
    # Per option, the least score it keeps (the kept_elements-th largest), so
    # extraction need not sort the scores again; None when not known.
    cutoffs: array | None = None


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


def build_importance_vector(scores, dim: DimensionSpec) -> ImportanceVector:
    """Fold a dimension's element scores (``array("d")`` as the readers
    build them, or a numpy array built in code) into per-option top-k prefix
    sums, added one by one in descending score order (an overflow to inf is
    refused by ``arch.checked_vectors``).  A process that has already
    imported numpy (``solve``, ``sweep``, ``synth``) folds with it, about
    five times faster than the standard library on ViT-B-12's scores; the
    readers never import it.  The two folds give the same bits."""
    _check_length(scores, dim)
    counts = kept_counts(dim)
    np = sys.modules.get("numpy")
    if np is None:
        values, cutoffs = _fold(scores.tolist(), counts)  # floats, from a numpy array too
    else:
        values, cutoffs = _fold_numpy(np, scores, counts)
    return ImportanceVector(values=values, cutoffs=cutoffs)


def _check_length(scores, dim: DimensionSpec) -> None:
    if len(scores) != dim.max_elements:
        raise ValidationError(
            f"scores for {dim.id!r}: expected {dim.max_elements} values, found {len(scores)}"
        )


def _fold(scores: list[float], counts: array) -> tuple[array, array]:
    """(prefix sums, cutoffs) at the kept `counts` of `scores` sorted
    descending, by the standard library; `scores` is sorted in place."""
    scores.sort(reverse=True)
    prefix = list(accumulate(scores))
    return array("d", [prefix[k - 1] for k in counts]), array("d", [scores[k - 1] for k in counts])


def _fold_numpy(np, scores, counts: array) -> tuple[array, array]:
    """``_fold`` by numpy.  Equal scores have equal bits, so the order of
    ties shows only between 0.0 and -0.0: numpy's faster default sort
    serves unless a score is zero, and its stable one, which orders ties as
    ``list.sort`` does, otherwise."""
    negated = np.negative(scores, dtype=np.float64)
    ordered = -np.sort(negated, kind=None if negated.all() else "stable")
    at = np.frombuffer(counts, dtype=np.int64) - 1
    with np.errstate(over="ignore"):
        prefix = np.cumsum(ordered)[at]
    return array("d", prefix.tobytes()), array("d", ordered[at].tobytes())


def build_all_vectors(arch: ArchitectureSpec, raw_scores: dict) -> dict[str, ImportanceVector]:
    """The importance vector of every dimension of `arch` from `raw_scores`,
    its element scores keyed by dimension id.  Each dimension needs its
    scores, and scores for a dimension `arch` does not declare are refused,
    naming it."""
    return {dim.id: build_importance_vector(scores, dim)
            for dim, scores in _scores_by_dim(arch, raw_scores)}


def _scores_by_dim(arch: ArchitectureSpec, raw_scores: dict):
    """Each dimension of `arch` with its scores, in declared order; then
    the first id in `raw_scores` that `arch` does not declare is refused."""
    for dim in arch.dims.values():
        scores = raw_scores.get(dim.id)
        if scores is None:
            raise ValidationError(f"missing raw scores for dimension {dim.id!r}")
        yield dim, scores
    for dim_id in raw_scores:
        if dim_id not in arch.dims:
            raise ValidationError(
                f"scores for {dim_id!r}: architecture {arch.name!r} declares no such dimension"
            )


# `checked_scores` folds only from this bound on (float64's range ends below 2**1024).
FOLD_FROM = 2.0**1020


def checked_scores(arch: ArchitectureSpec, raw_scores: dict) -> dict:
    """`raw_scores`, finite scores as ``parse_scores`` reads them, if
    ``checked_vectors(arch, build_all_vectors(arch, raw_scores))`` passes,
    else its error.  The dimension and length checks are
    ``build_all_vectors``' own, in its order, but the scores are folded only
    once B = Σ_d n_d·M_d (dimension d's n_d scores, M_d their largest
    magnitude, from one ``max`` and one ``min``) reaches `FOLD_FROM`.

    Below it no fold fails.  A float sum of m ≤ 2**52 terms (any array in
    memory) exceeds the sum of their magnitudes by a factor of at most
    (1 + 2**-53)**m < 2, and falls short of it, for nonnegative terms, by
    less than 2.  So B < 2**1020 means Σ_d n_d·M_d < 2**1021; each vector
    entry, a float sum of at most n_d scores, is below 2·n_d·M_d in
    magnitude; and ``checked_vectors``' total of each dimension's largest
    |entry| is below 4·Σ_d n_d·M_d < 2**1023: finite."""
    bound = 0.0
    for dim, scores in _scores_by_dim(arch, raw_scores):
        _check_length(scores, dim)
        bound += len(scores) * max(max(scores), -min(scores))
    if bound >= FOLD_FROM:
        checked_vectors(arch, build_all_vectors(arch, raw_scores))
    return raw_scores


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


def parse_scores(document: str) -> dict[str, array]:
    """Parse a JSON scores document, a list of {dim_id, scores} records,
    into each dimension's scores as ``array("d")``, keyed by its id."""
    out: dict[str, array] = {}
    for i, entry in enumerate(records(document, "scores", "scores")):
        where = f"scores[{i}]"
        require_keys(entry, {"dim_id", "scores"}, set(), where)
        dim_id = typed(entry["dim_id"], str, f"{where}.dim_id")
        if dim_id in out:
            raise ValidationError(f"scores: duplicate entry for dimension {dim_id!r}")
        values = numbers(entry["scores"], f"{where}.scores")
        if not values:
            raise ParseError(f"{where} ({dim_id!r}): scores must be a non-empty list")
        k = first_non_finite(values)
        if k is not None:
            raise ValidationError(
                f"scores for {dim_id!r}: non-finite value at element {k}: {values[k]}"
            )
        out[dim_id] = values
    return out


def serialize_scores(scores: dict, manifest: str | None = None) -> str:
    return dump_json(scores_to_obj(scores, manifest))


def scores_to_obj(scores: dict, manifest: str | None = None) -> dict:
    doc: dict = {
        "scores": [
            {"dim_id": dim_id, "scores": [float(v) for v in values]}
            for dim_id, values in scores.items()
        ]
    }
    if manifest is not None:
        doc[MANIFEST_KEY] = manifest
    return doc


def synth_rng(seed: int):
    """The ``numpy.random.Generator`` the synthesizers draw from; `seed` must
    be a non-negative integer.  It imports numpy: outside the solver, only
    the synthesizers load it."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    import numpy as np

    return np.random.default_rng(seed)


def synth_scores(
    arch: ArchitectureSpec, seed: int, distribution: str = "uniform01"
) -> dict[str, array]:
    """Draw deterministic nonnegative saliency scores for every dimension,
    as ``parse_scores`` returns them."""
    if distribution not in ("uniform01", "exponential"):
        raise ValidationError(f"unknown score distribution {distribution!r}")
    rng = synth_rng(seed)
    out = {}
    for dim in arch.dims.values():
        if distribution == "uniform01":
            draws = rng.random(dim.max_elements)
        else:
            draws = rng.exponential(1.0, dim.max_elements)
        out[dim.id] = array("d", draws.tobytes())
    return out
