"""Globally optimal multi-granularity pruning plans under a latency budget.

The package assembles an exact integer program from three inputs: an
architecture description (prunable dimensions grouped into residually
skipped blocks), per-element saliency scores, and latency lookup tables
indexed by keep-count options.  It then solves for the assignment of
keep-counts and block keep/remove bits that maximizes total importance while
holding estimated latency below a hard budget, and extracts the concrete
kept-element lists.
"""

from .arch import (
    ArchitectureSpec,
    BlockSpec,
    DimensionSpec,
    kept_elements,
    parse_architecture,
    serialize_architecture,
    subnetwork_count,
    validate_problem_shapes,
)
from .errors import LatPruneError, ParseError, SolveError, ValidationError
from .extract import PrunedStructure, extract_structure, summarize
from .importance import (
    Assignment,
    ImportanceVector,
    RawScores,
    build_all_vectors,
    build_importance_vector,
    objective_value,
    parse_scores,
    serialize_scores,
    synth_scores,
)
from .latency import (
    LatencyModelParams,
    LatencyTable,
    PruneTrajectory,
    TableSet,
    constraint_value,
    estimation_error,
    linear_channel_cost,
    parse_lut,
    replay_trajectory,
    serialize_lut,
    synth_lut,
)
from .solver import (
    PruningProblem,
    PruningSolution,
    SolverConfig,
    assemble,
    repair_heuristic,
    solve,
    solve_branch_and_bound,
    solve_exhaustive,
)

__all__ = [
    "ArchitectureSpec",
    "Assignment",
    "BlockSpec",
    "DimensionSpec",
    "ImportanceVector",
    "LatPruneError",
    "LatencyModelParams",
    "LatencyTable",
    "ParseError",
    "PruneTrajectory",
    "PrunedStructure",
    "PruningProblem",
    "PruningSolution",
    "RawScores",
    "SolveError",
    "SolverConfig",
    "TableSet",
    "ValidationError",
    "assemble",
    "build_all_vectors",
    "build_importance_vector",
    "constraint_value",
    "estimation_error",
    "extract_structure",
    "kept_elements",
    "linear_channel_cost",
    "objective_value",
    "parse_architecture",
    "parse_lut",
    "parse_scores",
    "repair_heuristic",
    "replay_trajectory",
    "serialize_architecture",
    "serialize_lut",
    "serialize_scores",
    "solve",
    "solve_branch_and_bound",
    "solve_exhaustive",
    "subnetwork_count",
    "summarize",
    "synth_lut",
    "synth_scores",
    "validate_problem_shapes",
]
