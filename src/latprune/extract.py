"""Turn a solved assignment into the pruned structure, as plain data.

``extract_structure`` returns the document structure.json holds, without
its stamp: the network's ``name``, ``importance`` and ``latency_ms``,
``depth_kept`` of ``depth_total`` blocks, ``degenerate`` (every block of a
network that has blocks is removed) and ``blocks``.  Each block has
``block_id``, ``kind``, ``kept`` and ``dims``, empty for a removed block
whatever the solver assigned to its dimensions.  Each dimension has
``dim_id``, ``role``, ``option``, ``kept_count``, ``max_elements`` and
``kept_elements``: the chosen option fixes how many elements survive, and
the survivors, 1-based and ascending, are the highest-scoring ones under
the descending-score, original-index tie-break that built the importance
vectors.  Totals are recomputed here from the vectors and tables rather
than copied out of the solver, so extraction doubles as an independent
check of the reported solution.
"""

from __future__ import annotations

import json

from .arch import ArchitectureSpec, MANIFEST_KEY, csv_field, dump_json, kept_elements
from .errors import ValidationError
from .importance import Assignment, ImportanceVector, objective_value
from .latency import TableSet, constraint_value


def extract_structure(
    assignment: Assignment | None,
    arch: ArchitectureSpec,
    vectors: dict[str, ImportanceVector],
    tables: TableSet,
    raw_scores: dict,
) -> dict:
    """The structure of a plan (a solution's assignment, None for an
    infeasible solve), as structure.json holds it.  `vectors` and `tables`
    are the ones the plan was solved against, shape-checked as ``assemble``
    checks them; `raw_scores` holds each dimension's element scores, as
    ``parse_scores`` returns them."""
    if assignment is None:
        raise ValidationError("cannot extract a structure from an infeasible solve")

    blocks = []
    kept_blocks = 0
    for block in arch.blocks:
        kept = bool(assignment.kappa_of(block) != 0)
        kept_blocks += kept
        dims = []
        for dim in arch.block_dims(block) if kept else ():
            scores = raw_scores.get(dim.id)
            if scores is None:
                raise ValidationError(f"missing raw scores for retained dimension {dim.id!r}")
            if len(scores) != dim.max_elements:
                raise ValidationError(
                    f"scores for {dim.id!r}: expected {dim.max_elements} values, "
                    f"found {len(scores)}"
                )
            option = assignment.omega[dim.id]
            count = kept_elements(dim, option)
            vec = vectors.get(dim.id)
            cut = None if vec is None or vec.cutoffs is None else vec.cutoffs[option - 1]
            dims.append({"dim_id": dim.id, "role": dim.role, "option": option,
                         "kept_count": count, "max_elements": dim.max_elements,
                         "kept_elements": top_elements(scores, count, cut)})
        blocks.append({"block_id": block.id, "kind": block.kind, "kept": kept, "dims": dims})

    return {
        "name": arch.name,
        "importance": objective_value(assignment, vectors, arch),
        "latency_ms": constraint_value(assignment, tables, arch),
        "depth_kept": kept_blocks,
        "depth_total": len(arch.blocks),
        "degenerate": kept_blocks == 0 < len(arch.blocks),
        "blocks": blocks,
    }


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


def summarize(structure: dict) -> tuple[str, str]:
    """Human-readable text plus a CSV of per-dimension width outcomes, of
    the document ``extract_structure`` returns."""
    removed = structure["depth_total"] - structure["depth_kept"]
    lines = [
        f"pruned structure for {_text_id(structure['name'])}",
        f"depth {structure['depth_kept']}/{structure['depth_total']} blocks kept "
        f"({removed} removed)",
        f"importance {structure['importance']!r}",
        f"latency_ms {structure['latency_ms']!r}",
    ]
    if structure["degenerate"]:
        lines.append("warning: degenerate network, every block was removed")
    rows = ["block_id,kind,kept,dim_id,role,option,kept_count,max_elements"]
    for block in structure["blocks"]:
        head = f"block {block['block_id']} ({block['kind']}):"
        if not block["kept"]:
            lines.append(f"{head} removed")
            rows.append(f"{block['block_id']},{block['kind']},0,,,,,")
            continue
        dims = block["dims"]
        lines.append(head + " " + ", ".join(
            f"{_text_id(d['dim_id'])}={d['kept_count']}/{d['max_elements']}" for d in dims))
        rows.extend(
            f"{block['block_id']},{block['kind']},1,{csv_field(d['dim_id'])},{d['role']},"
            f"{d['option']},{d['kept_count']},{d['max_elements']}"
            for d in dims
        )
    return "\n".join(lines) + "\n", "\n".join(rows) + "\n"


def _text_id(text: str) -> str:
    """An id or name as summary.txt writes it: as it is, unless it holds a
    character that would split or blur its line (``, = / " \\`` or one that
    is not printable), then as ``json.dumps`` writes it."""
    if text.isprintable() and not any(c in text for c in ',=/"\\'):
        return text
    return json.dumps(text)


def serialize_structure(structure: dict, manifest: str | None = None) -> str:
    """structure.json: the document, stamped with `manifest` when given;
    `structure` itself is left as it is."""
    return dump_json(structure if manifest is None else {**structure, MANIFEST_KEY: manifest})
