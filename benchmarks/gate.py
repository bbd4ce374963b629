"""Correctness gate: every check returns a list of failure messages.

An operation (one CLI invocation, one sweep row, or one traced in-process
command) fails on any of: an unexpected exit code, a status other than
``optimal``, a mismatch against the committed reference plan, a failed
independent recheck, or stamped outputs that differ between repeats.

The reference (``reference.json``) holds, per instance, each budget's status,
importance, latency and assignment.  It omits ``node_count`` on purpose: a
search rewrite may redefine it.  Because the benchmark's ``--seed`` only
reorders elements inside each dimension, one reference serves every seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
UNSTAMPED = {"timing.json"}  # wall-clock sidecar, allowed to differ between runs


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def expected_plan(reference: dict, instance: str, budget: float) -> dict:
    for plan in reference[instance]:
        if plan["budget_ms"] == budget:
            return plan
    raise KeyError(f"reference has no {instance} plan at budget {budget!r}")


def check_exit(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


def compare_plan(got: dict, want: dict) -> list[str]:
    """Status, importance, latency and assignment must equal the reference."""
    failures = []
    if got.get("status") != "optimal":
        failures.append(f"status {got.get('status')!r} is not 'optimal'")
    for key in ("status", "importance", "latency_ms", "assignment"):
        if got.get(key) != want[key]:
            failures.append(f"{key} {got.get(key)!r} differs from reference {want[key]!r}")
    return failures


def assignment_of(lp, plan: dict):
    """The library Assignment of a report's (or reference plan's) assignment."""
    return lp.Assignment(
        omega={k: int(v) for k, v in plan["assignment"]["omega"].items()},
        kappa={int(k): int(v) for k, v in plan["assignment"]["kappa"].items()},
    )


def recheck(problem, plan: dict, budget: float) -> list[str]:
    """Re-evaluate a plan with the library's canonical functions: the
    objective must equal the reported importance and the latency must fit."""
    lp, arch, vectors, tables = problem.lp, problem.arch, problem.vectors, problem.tables
    try:
        assignment = assignment_of(lp, plan)
        assignment.validate_for(arch)
        importance = lp.objective_value(assignment, vectors, arch)
        latency = lp.constraint_value(assignment, tables, arch)
    except (KeyError, TypeError, ValueError, AttributeError, lp.LatPruneError) as exc:
        return [f"recheck could not evaluate the plan: {exc!r}"]
    failures = []
    if importance != plan["importance"]:
        failures.append(f"recheck: objective {importance!r} != reported {plan['importance']!r}")
    if latency > budget:
        failures.append(f"recheck: latency {latency!r} exceeds budget {budget!r}")
    return failures


def check_structure(structure: dict, want: dict, arch: dict, scores: dict[str, np.ndarray]) -> list[str]:
    """An extracted structure must carry the reference plan's totals and keep,
    in every dimension, exactly the top-scoring elements its option allows."""
    failures = []
    for key in ("importance", "latency_ms"):
        if structure.get(key) != want[key]:
            failures.append(f"structure {key} {structure.get(key)!r} != {want[key]!r}")
    dims = {d["id"]: d for d in arch["dims"]}
    omega, kappa = want["assignment"]["omega"], want["assignment"]["kappa"]
    blocks = structure.get("blocks", [])
    if len(blocks) != len(arch["blocks"]):
        return failures + [f"structure lists {len(blocks)} blocks, arch has {len(arch['blocks'])}"]
    for got, block in zip(blocks, arch["blocks"]):
        kept = kappa.get(str(block["id"]), 1) == 1
        if got.get("kept") != kept:
            failures.append(f"block {block['id']}: kept {got.get('kept')!r}, expected {kept}")
            continue
        if not kept:
            continue
        got_dims = {d.get("dim_id"): d for d in got.get("dims", [])}
        for dim_id in block["dims"]:
            dim, entry = dims[dim_id], got_dims.get(dim_id, {})
            count = min(omega[dim_id] * dim["group_size"], dim["max_elements"])
            top = np.argsort(-scores[dim_id], kind="stable")[:count]
            if entry.get("kept_elements") != sorted(int(i) + 1 for i in top):
                failures.append(f"{dim_id}: kept elements are not the top {count} by score")
    return failures


def digest_outputs(out: Path) -> dict[str, str]:
    """SHA-256 of every stamped output file under `out`."""
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name not in UNSTAMPED
    }


def compare_digests(got: dict[str, str], first: dict[str, str]) -> list[str]:
    if got == first:
        return []
    changed = sorted(k for k in set(got) | set(first) if got.get(k) != first.get(k))
    return [f"stamped outputs differ from the first repeat: {changed}"]


def read_sweep_rows(text: str) -> list[dict]:
    """Rows of sweep.csv as {budget_ms, status, importance, latency_ms}."""
    rows = []
    for line in text.splitlines()[2:]:
        budget, status, importance, latency, _gap, _nodes = line.split(",")
        rows.append({
            "budget_ms": float(budget),
            "status": status,
            "importance": float(importance) if importance else None,
            "latency_ms": float(latency) if latency else None,
        })
    return rows


def compare_row(row: dict, want: dict) -> list[str]:
    failures = []
    if row["status"] != "optimal":
        failures.append(f"budget {row['budget_ms']!r}: status {row['status']!r}")
    for key in ("status", "importance", "latency_ms"):
        if row[key] != want[key]:
            failures.append(f"budget {row['budget_ms']!r}: {key} {row[key]!r} != {want[key]!r}")
    return failures
