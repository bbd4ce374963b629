"""Turn a solved assignment into a concrete pruned-structure description.

For every kept block the chosen option fixes how many elements survive along
each dimension; the survivors are the highest-scoring elements under the
same descending-score, original-index tie-break used to build the importance
vectors.  Removed blocks vanish entirely, whatever the solver assigned to
their dimensions.  Totals are recomputed here from the vectors and tables
rather than copied out of the solver, so extraction doubles as an
independent check of the reported solution.
"""

from __future__ import annotations

from .arch import ArchitectureSpec, MANIFEST_KEY, dump_json, kept_elements
from .errors import ValidationError
from .importance import Assignment, ImportanceVector, RawScores, objective_value
from .latency import TableSet, constraint_value
from .record import Record


class DimOutcome(Record, frozen=True):
    dim_id: str
    role: str
    option: int
    kept_count: int
    max_elements: int
    kept_elements: tuple[int, ...]  # 1-based original indices, ascending


class BlockOutcome(Record, frozen=True):
    block_id: int
    kind: str
    kept: bool
    dims: tuple[DimOutcome, ...]  # empty for removed blocks


class PrunedStructure(Record, frozen=True):
    name: str
    blocks: tuple[BlockOutcome, ...]
    importance: float
    latency: float
    depth_kept: int
    depth_total: int

    @property
    def degenerate(self) -> bool:
        """Every block of a network that has blocks is removed."""
        return self.depth_kept == 0 < self.depth_total


def extract_structure(
    assignment: Assignment | None,
    arch: ArchitectureSpec,
    vectors: dict[str, ImportanceVector],
    tables: TableSet,
    raw_scores: dict[str, RawScores],
) -> PrunedStructure:
    """Materialize the kept-element lists of a plan: a solution's
    assignment, None for an infeasible solve.  `vectors` and `tables` are
    the ones the plan was solved against, shape-checked as ``assemble``
    checks them."""
    if assignment is None:
        raise ValidationError("cannot extract a structure from an infeasible solve")

    blocks = []
    kept_blocks = 0
    for block in arch.blocks:
        if assignment.kappa_of(block) == 0:
            blocks.append(
                BlockOutcome(block_id=block.id, kind=block.kind, kept=False, dims=())
            )
            continue
        kept_blocks += 1
        dims = []
        for dim in arch.block_dims(block):
            raw = raw_scores.get(dim.id)
            if raw is None:
                raise ValidationError(
                    f"missing raw scores for retained dimension {dim.id!r}"
                )
            if len(raw.scores) != dim.max_elements:
                raise ValidationError(
                    f"scores for {dim.id!r}: expected {dim.max_elements} values, "
                    f"found {len(raw.scores)}"
                )
            option = assignment.omega[dim.id]
            count = kept_elements(dim, option)
            vec = vectors.get(dim.id)
            cut = None if vec is None or vec.cutoffs is None else vec.cutoffs[option - 1]
            chosen = top_elements(raw.scores, count, cut)
            dims.append(
                DimOutcome(
                    dim_id=dim.id,
                    role=dim.role,
                    option=option,
                    kept_count=count,
                    max_elements=dim.max_elements,
                    kept_elements=tuple(chosen),
                )
            )
        blocks.append(
            BlockOutcome(block_id=block.id, kind=block.kind, kept=True, dims=tuple(dims))
        )

    importance = objective_value(assignment, vectors, arch)
    latency = constraint_value(assignment, tables, arch)
    return PrunedStructure(
        name=arch.name,
        blocks=tuple(blocks),
        importance=importance,
        latency=latency,
        depth_kept=kept_blocks,
        depth_total=len(arch.blocks),
    )


def top_elements(scores, count: int, cut: float | None = None) -> list[int]:
    """The 1-based indices, ascending, of the `count` highest of the float64
    `scores`, ties to the lower index: every element above the `count`-th
    largest score, then the first of those equal to it (0.0 and -0.0 are
    equal).  `cut` may give that score (an importance vector's cutoff) to
    spare a sort; a value that is not it is found out, and the scores are
    sorted."""
    scores = scores.tolist()  # floats, from a numpy array too
    kept = None if cut is None else _selected(scores, count, cut)
    if kept is None:
        kept = _selected(scores, count, sorted(scores, reverse=True)[count - 1])
    return kept


def _selected(scores: list[float], count: int, cut: float) -> list[int] | None:
    """``top_elements`` when `cut` is the `count`-th largest of `scores`:
    then at most `count` scores lie above it and enough equal it to make up
    the rest.  None otherwise."""
    kept = [i for i, score in enumerate(scores, 1) if score > cut]
    if len(kept) > count:
        return None
    start = 0
    for _ in range(count - len(kept)):
        try:
            start = scores.index(cut, start) + 1
        except ValueError:
            return None
        kept.append(start)
    kept.sort()
    return kept


def summarize(structure: PrunedStructure) -> tuple[str, str]:
    """Human-readable text plus a CSV of per-dimension width outcomes."""
    lines = [
        f"pruned structure for {structure.name}",
        f"depth {structure.depth_kept}/{structure.depth_total} blocks kept "
        f"({structure.depth_total - structure.depth_kept} removed)",
        f"importance {structure.importance!r}",
        f"latency_ms {structure.latency!r}",
    ]
    if structure.degenerate:
        lines.append("warning: degenerate network, every block was removed")
    for block in structure.blocks:
        if not block.kept:
            lines.append(f"block {block.block_id} ({block.kind}): removed")
            continue
        widths = ", ".join(
            f"{d.dim_id}={d.kept_count}/{d.max_elements}" for d in block.dims
        )
        lines.append(f"block {block.block_id} ({block.kind}): {widths}")
    text = "\n".join(lines) + "\n"

    rows = ["block_id,kind,kept,dim_id,role,option,kept_count,max_elements"]
    for block in structure.blocks:
        if not block.kept:
            rows.append(f"{block.block_id},{block.kind},0,,,,,")
            continue
        for d in block.dims:
            rows.append(
                f"{block.block_id},{block.kind},1,{d.dim_id},{d.role},"
                f"{d.option},{d.kept_count},{d.max_elements}"
            )
    csv = "\n".join(rows) + "\n"
    return text, csv


def structure_to_obj(structure: PrunedStructure) -> dict:
    return {
        "name": structure.name,
        "importance": structure.importance,
        "latency_ms": structure.latency,
        "depth_kept": structure.depth_kept,
        "depth_total": structure.depth_total,
        "degenerate": structure.degenerate,
        "blocks": [
            {
                "block_id": b.block_id,
                "kind": b.kind,
                "kept": b.kept,
                "dims": [
                    {
                        "dim_id": d.dim_id,
                        "role": d.role,
                        "option": d.option,
                        "kept_count": d.kept_count,
                        "max_elements": d.max_elements,
                        "kept_elements": list(d.kept_elements),
                    }
                    for d in b.dims
                ],
            }
            for b in structure.blocks
        ],
    }


def serialize_structure(structure: PrunedStructure, manifest: str | None = None) -> str:
    doc = structure_to_obj(structure)
    if manifest is not None:
        doc[MANIFEST_KEY] = manifest
    return dump_json(doc)
