"""Globally optimal multi-granularity pruning plans under a latency budget.

The package assembles an exact integer program from three inputs: an
architecture description (prunable dimensions grouped into residually
skipped blocks), per-element saliency scores, and latency lookup tables
indexed by keep-count options.  It then solves for the assignment of
keep-counts and block keep/remove bits that maximizes total importance while
holding estimated latency below a hard budget, and extracts the concrete
kept-element lists.

Importing the package loads none of its modules, nor numpy.  Each public name
below is imported from its home module on first access (PEP 562), so a
program that never touches the solver never compiles or runs it; the
command-line front end relies on this.  ``latprune.solver`` and the other
modules resolve as attributes the same way.
"""

import importlib

_EXPORTS = {
    "arch": (
        "ArchitectureSpec", "BlockSpec", "DimensionSpec", "kept_elements",
        "parse_architecture", "serialize_architecture", "subnetwork_count",
        "validate_problem_shapes",
    ),
    "errors": ("LatPruneError", "ParseError", "SolveError", "ValidationError"),
    "extract": ("extract_structure", "summarize"),
    "importance": (
        "Assignment", "ImportanceVector", "build_all_vectors", "build_importance_vector",
        "objective_value", "parse_scores", "serialize_scores", "synth_scores",
    ),
    "latency": (
        "LatencyModelParams", "LatencyTable", "TableSet", "constraint_value",
        "estimation_error", "linear_channel_cost", "parse_lut", "replay_trajectory",
        "serialize_lut", "synth_lut",
    ),
    "solver": (
        "PruningProblem", "PruningSolution", "assemble", "solve", "solve_budgets",
        "solve_exhaustive",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, e.g. latprune.solver
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
