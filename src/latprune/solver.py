"""Exact solvers for the budgeted pruning program.

The program maximizes total importance subject to total latency <= budget
over one-hot keep-count choices per dimension and keep/remove bits per
removable block.  Both contributions are additive over blocks and a removed
block contributes zero to each, so picking one state per block under the
budget is a multiple-choice knapsack.  The one coupling between blocks is a
chain reading a conv output of an earlier (permanent) block: its latency
depends on that producer's option.

``solve_branch_and_bound`` solves it exactly by a Pareto dynamic program:

* each block's states are thinned to a (latency, importance) frontier
  without enumerating the block, by one pass for both block kinds: it adds
  the block's dimensions in order, each latency table at its last axis, and
  filters after each, keeping points apart only per option of the
  dimensions a later table or a later chain reads (a transformer per
  (emb, head) over qk, then per emb, then over all; a chain per option of
  its current layer); a chain reading a conv output gets one frontier per
  input option;
* the upper concave hulls of the frontiers give the exact LP relaxation
  of every suffix of blocks (Sinha & Zoltners, Oper. Res. 1979), which for
  a multiple-choice knapsack equals the best Lagrangian dual bound;
* the incumbent is seeded by rounding the root LP optimum;
* stages merge the frontiers in block-declaration order, dropping partial
  plans that the LP bound and the incumbent rule out, or that another plan
  with the same open producer options dominates.

The frontiers, their hulls and the bound depend on the architecture,
vectors and tables but not on the budget, which enters only as the room the
merge may fill.  They form the problem's core, built on its first solve and
shared by every problem ``PruningProblem.with_budget`` derives, so a budget
sweep builds them once per problem family.

Mode ``heuristic_only`` stops after the seeding, which there also offers
the greedy repairs of the rounded and the dense plan, and reports the
incumbent with the root LP bound.

Sums follow the order of ``objective_value`` and ``constraint_value``, so a
complete plan's importance and latency are theirs bit for bit and ties
resolve by ``PruningProblem.tie_key``.  ``solve_exhaustive``, the
ground-truth oracle for everything else, sums them over the full state grid
of any instance under one guard on the state count.

Determinism: identical problem + config give identical solutions and node
counts.  The solver runs sequentially in the calling thread.
"""

from __future__ import annotations

import copy
import math
import numbers
import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .arch import ArchitectureSpec, BlockSpec, subnetwork_count, validate_problem_shapes
from .errors import SolveError, ValidationError
from .importance import Assignment, ImportanceVector, objective_value
from .latency import TableSet, block_latency, constraint_value

EXHAUSTIVE_GUARD = 10**6

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "branch_and_bound"  # exhaustive | branch_and_bound | heuristic_only
    time_limit: float = 60.0  # seconds
    tolerance: float = 0.0  # absolute optimality gap accepted

    def validate(self) -> None:
        if self.mode not in ("exhaustive", "branch_and_bound", "heuristic_only"):
            raise ValidationError(f"unknown solver mode {self.mode!r}")
        if not self.time_limit > 0:  # NaN fails every comparison
            raise ValidationError(f"time_limit must be positive, got {self.time_limit!r}")
        if not self.tolerance >= 0:
            raise ValidationError(f"tolerance must be nonnegative, got {self.tolerance!r}")


@dataclass
class PruningSolution:
    status: str  # optimal | feasible_heuristic | infeasible
    assignment: Assignment | None
    importance: float | None
    latency: float | None
    bound: float | None
    node_count: int
    wall_time: float
    message: str = ""


class _BlockModel:
    """One block's importance vectors and latency tables, read by the
    frontier pass and by the exhaustive enumeration.

    ``parts`` holds the tables of ``ArchitectureSpec.parts`` in their order,
    each as (data, positions): the block position of each table axis, -1
    for a chain's input.  ``inputs`` counts that input's options (1 when it
    is a fixed trunk width or there is none), and ``input_dim_id`` names it
    when it is another block's conv output.
    """

    def __init__(
        self,
        arch: ArchitectureSpec,
        block: BlockSpec,
        vectors: dict[str, ImportanceVector],
        tables: TableSet,
    ) -> None:
        self.block = block
        self.dims = arch.block_dims(block)
        self.dim_ids = [d.id for d in self.dims]
        self.shape = tuple(d.option_count for d in self.dims)
        self.states = math.prod(self.shape)
        self.imp = [np.asarray(vectors[d.id].values, dtype=np.float64) for d in self.dims]
        self.parts = []
        outer = []
        for part, layer, dims in arch.parts(block):
            pos = tuple(self.dim_ids.index(d.id) if d.id in self.dim_ids else -1 for d in dims)
            self.parts.append((tables.get(block.id, part, layer).data, pos))
            outer += [d for d in dims if d.id not in self.dim_ids]
        self.inputs = outer[0].option_count if outer else 1
        self.input_dim_id = outer[0].id if outer and outer[0].role != "fixed_external" else None

    def state_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(importance, latency) per state, in the order of ``objective_value``
        and ``block_latency``.

        States enumerate the option grid in row-major order (first dimension
        most significant), with the removed state appended last for
        removable blocks.  Latency is indexed by (state, input option): one
        column unless the chain reads another block's conv output.
        """
        grids = np.indices((*self.shape, self.inputs))  # the input option last
        imp = np.zeros(self.shape)
        for i, vec in enumerate(self.imp):
            imp = imp + vec[grids[i, ..., 0]]
        lat = 0.0
        for data, pos in self.parts:
            lat = lat + data[tuple(grids[p] for p in pos)]
        imp, lat = imp.reshape(-1), lat.reshape(imp.size, -1)
        if self.block.removable:
            imp = np.concatenate([imp, [0.0]])
            lat = np.concatenate([lat, np.zeros((1, lat.shape[1]))])
        return imp, lat

    def decode_state(self, state: int) -> tuple[int, dict[str, int]]:
        """State index -> (kappa, per-dimension options)."""
        if self.block.removable and state == self.states:
            return 0, {d: 1 for d in self.dim_ids}
        idx = np.unravel_index(state, self.shape)
        return 1, {d: int(j) + 1 for d, j in zip(self.dim_ids, idx)}

    def option_of_dim(self, dim_id: str) -> np.ndarray:
        """Per-state option index for one of this block's dimensions."""
        pos = self.dim_ids.index(dim_id)
        grids = np.indices(self.shape)
        options = (grids[pos] + 1).reshape(-1)
        if self.block.removable:
            options = np.concatenate([options, [1]])
        return options


class PruningProblem:
    """Immutable bundle of architecture, vectors, tables and budget.

    Built by ``assemble``; read-only afterwards.  ``with_budget`` gives the
    same problem under another budget.
    """

    def __init__(
        self,
        arch: ArchitectureSpec,
        vectors: dict[str, ImportanceVector],
        tables: TableSet,
        budget: float,
    ) -> None:
        self.arch = arch
        self.vectors = vectors
        self.tables = tables
        self.budget = budget
        self.models = [_BlockModel(arch, b, vectors, tables) for b in arch.blocks]
        self.dim_order = [d for b in arch.blocks for d in b.dims]
        self._core = _Core(self.models)

    def with_budget(self, budget: float) -> "PruningProblem":
        """This problem under `budget`, validated as ``assemble`` does.  It
        shares the block models and the budget-free core, so a sweep builds
        the frontiers and the LP bound once."""
        problem = copy.copy(self)
        problem.budget = _checked_budget(budget)
        return problem

    def dense_assignment(self) -> Assignment:
        """Every dimension at its largest option, every block kept."""
        return Assignment(
            omega={d: self.arch.dims[d].option_count for d in self.dim_order},
            kappa={b.id: 1 for b in self.arch.blocks if b.removable},
        )

    def tie_key(self, assignment: Assignment):
        """Kept blocks sort first, then option indices ascending."""
        kappa_part = tuple(
            1 - assignment.kappa_of(b) for b in self.arch.blocks if b.removable
        )
        omega_part = tuple(assignment.omega[d] for d in self.dim_order)
        return kappa_part + omega_part


def assemble(
    arch: ArchitectureSpec,
    vectors: dict[str, ImportanceVector],
    tables: TableSet,
    budget: float,
) -> PruningProblem:
    """Validate shapes and freeze a problem instance."""
    budget = _checked_budget(budget)
    validate_problem_shapes(arch, tables, vectors)
    return PruningProblem(arch, vectors, tables, budget)


def _checked_budget(budget) -> float:
    if isinstance(budget, bool) or not isinstance(budget, numbers.Real):
        raise ValidationError(f"budget must be a real number, got {budget!r}")
    if math.isnan(budget) or budget <= 0:
        raise ValidationError(f"budget must be positive, got {budget!r}")
    return float(budget)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def solve_exhaustive(problem: PruningProblem) -> PruningSolution:
    """Enumerate every state and return the max-importance feasible one.

    Ties break toward kept blocks first, then ascending option indices.
    Guarded at {guard} states.
    """
    start = time.perf_counter()
    count = subnetwork_count(problem.arch)
    if count > EXHAUSTIVE_GUARD:
        raise SolveError(
            f"state space has {count} states, above the exhaustive guard "
            f"of {EXHAUSTIVE_GUARD}"
        )

    best_state = _enumerate(problem)
    if best_state is None:
        return PruningSolution(
            status="infeasible",
            assignment=None,
            importance=None,
            latency=None,
            bound=None,
            node_count=count,
            wall_time=time.perf_counter() - start,
            message="no state satisfies the latency budget",
        )

    assignment = _assignment_from_states(problem, best_state)
    importance = objective_value(assignment, problem.vectors, problem.arch)
    latency = constraint_value(assignment, problem.tables, problem.arch)
    if latency > problem.budget:
        raise SolveError("internal error: enumerated optimum fails the recheck")
    return PruningSolution(
        status="optimal",
        assignment=assignment,
        importance=importance,
        latency=latency,
        bound=importance,
        node_count=count,
        wall_time=time.perf_counter() - start,
    )


solve_exhaustive.__doc__ = solve_exhaustive.__doc__.format(guard=EXHAUSTIVE_GUARD)


def _assignment_from_states(problem, states: tuple[int, ...]) -> Assignment:
    omega = {}
    kappa = {}
    for model, state in zip(problem.models, states):
        k, choices = model.decode_state(state)
        omega.update(choices)
        if model.block.removable:
            kappa[model.block.id] = k
    return Assignment(omega=omega, kappa=kappa)


def _enumerate(problem: PruningProblem) -> tuple[int, ...] | None:
    """The state per block of the best feasible plan, or None.

    Importance and latency totals cover the full state grid, one axis per
    block, summed block after block.  A chain reading a conv output takes
    its latency column from the option its producer's state gives that
    output.
    """
    models = problem.models
    imp_total = lat_total = np.zeros(())
    for k, model in enumerate(models):
        imp, lat = model.state_tables()
        if model.input_dim_id is None:
            lat = lat[:, 0]
        else:
            producer = problem.arch.owner_block(model.input_dim_id).id - 1
            options = models[producer].option_of_dim(model.input_dim_id)
            shape = [1] * (k + 1)
            shape[producer], shape[k] = options.size, imp.size
            lat = lat[:, options - 1].T.reshape(shape)
        imp_total = imp_total[..., None] + imp
        lat_total = lat_total[..., None] + lat

    feasible = lat_total <= problem.budget
    if not feasible.any():
        return None
    best = imp_total[feasible].max()
    states = np.argwhere(feasible & (imp_total == best))
    # The columns of ``PruningProblem.tie_key``: removed flags, then options.
    keys = [states[:, k] == m.states for k, m in enumerate(models) if m.block.removable]
    keys += [m.option_of_dim(d)[states[:, k]] for k, m in enumerate(models) for d in m.dim_ids]
    first = np.lexsort(keys[::-1])[0] if keys else 0
    return tuple(states[first].tolist())


# ---------------------------------------------------------------------------
# Feasibility repair
# ---------------------------------------------------------------------------


def repair_heuristic(problem: PruningProblem, start: Assignment) -> Assignment | None:
    """Greedy descent from `start` to a feasible assignment, or None.

    While over budget, applies the single move (option decrement or block
    removal) with the smallest importance-loss per latency-saved ratio,
    considering only moves that strictly save latency; ties break toward the
    smaller loss, then the earlier move in canonical order.  Latency never
    increases step over step.
    """
    arch = problem.arch
    asg = start.copy()
    for block in arch.blocks:
        if asg.kappa_of(block) == 0:
            for d in block.dims:
                asg.omega[d] = 1
    asg.validate_for(arch)

    blocks = arch.blocks
    tables = problem.tables
    readers = {d: [] for d in problem.dim_order}
    for block in blocks:
        if block.input_ref in readers:
            readers[block.input_ref].append(block)

    # A move on block i changes the latency of i and of the chains reading
    # its dimensions (`group[i]`).  It re-prices their removal and decrement
    # moves, plus the decrement of the dimension that i's chain reads.
    group = [[b] + [r for d in b.dims for r in readers[d]] for b in blocks]
    dim_pos = {d: i for i, d in enumerate(problem.dim_order)}
    stale = []
    for i, block in enumerate(blocks):
        orders = set()
        for b in group[i]:
            orders.add(b.id - 1)
            orders.update(len(blocks) + dim_pos[d] for d in b.dims)
        if block.input_ref in dim_pos:
            orders.add(len(blocks) + dim_pos[block.input_ref])
        stale.append(sorted(orders))

    lat = [block_latency(asg, tables, arch, b) for b in blocks]

    def kept_latency(affected: list[BlockSpec]) -> float:
        total = 0.0
        for b in affected:
            if asg.kappa_of(b) == 1:
                total += lat[b.id - 1]
        return total

    def price(order: int):
        """(loss/saved, loss, order, kind, key) of one move, or None."""
        if order < len(blocks):
            block = blocks[order]
            if block.removable and asg.kappa[block.id] == 1:
                saved = lat[order]
                if saved > 0:
                    lost = sum(
                        float(problem.vectors[d].values[asg.omega[d] - 1])
                        for d in block.dims
                    )
                    return (lost / saved, lost, order, "kappa", block.id)
            return None
        d = problem.dim_order[order - len(blocks)]
        block = arch.owner_block(d)
        j = asg.omega[d]
        if asg.kappa_of(block) == 1 and j > 1:
            affected = [block] + readers[d]
            before = kept_latency(affected)
            asg.omega[d] = j - 1
            after = 0.0
            for b in affected:
                if asg.kappa_of(b) == 1:
                    after += block_latency(asg, tables, arch, b)
            asg.omega[d] = j
            saved = before - after
            if saved > 0:
                vec = problem.vectors[d].values
                lost = float(vec[j - 1]) - float(vec[j - 2])
                return (lost / saved, lost, order, "omega", d)
        return None

    moves = [price(order) for order in range(len(blocks) + len(problem.dim_order))]
    latency = kept_latency(blocks)
    while latency > problem.budget:
        best = min((m for m in moves if m is not None), default=None)
        if best is None:
            return None
        _, _, _, kind, key = best
        if kind == "kappa":
            changed = key - 1
            asg.kappa[key] = 0
            for d in blocks[changed].dims:
                asg.omega[d] = 1
        else:
            changed = arch.owner_block(key).id - 1
            asg.omega[key] -= 1
        for b in group[changed]:
            lat[b.id - 1] = block_latency(asg, tables, arch, b)
        for order in stale[changed]:
            moves[order] = price(order)
        latency = kept_latency(blocks)
    return asg


# ---------------------------------------------------------------------------
# Pareto frontiers and the dynamic program
# ---------------------------------------------------------------------------

_CHUNK = 32768  # candidate plans expanded at a time


class _Points(NamedTuple):
    """Block states as parallel arrays.

    ``lat`` and ``imp`` are the block's latency and importance subtotals,
    summed in the order ``constraint_value`` and ``objective_value`` use.
    ``removed`` is 1 for the removed state, ``rank`` orders kept states by
    their option tuples (-1 for the removed state) and ``opts`` holds the
    0-based option of each of the block's dimensions (0 when removed).
    """

    lat: np.ndarray
    imp: np.ndarray
    removed: np.ndarray
    rank: np.ndarray
    opts: np.ndarray


def _dense(code: np.ndarray) -> np.ndarray:
    """0-based ranks of integer codes, equal codes sharing a rank."""
    return np.unique(code, return_inverse=True)[1].reshape(-1)


def _group_ids(columns: np.ndarray) -> np.ndarray | None:
    """Ids of the distinct rows of an (n, c) integer array; None when c is 0."""
    if columns.shape[1] == 0:
        return None
    ids = np.zeros(columns.shape[0], dtype=np.int64)
    for col in columns.T:
        ids = _dense(ids * (int(col.max(initial=0)) + 1) + col)
    return ids


def _pareto(lat, imp, keys, margin: float, group=None) -> np.ndarray:
    """Indices of the points to keep, sorted by group, then latency.

    A point goes when another point of its group is no slower and has more
    importance by over `margin` (more than the rounding of later additions
    can take back), or has the same latency and importance and a smaller
    key.  `keys`, most significant first, order the points as
    ``PruningProblem.tie_key`` orders the plans they lead to.
    """
    if not lat.size:
        return np.zeros(0, dtype=np.int64)
    # A quicksort by latency settles the order unless latencies tie.
    order = np.argsort(lat)
    if group is None:
        group = np.zeros(lat.size, dtype=np.int64)
    else:
        order = order[np.argsort(group[order], kind="stable")]
    g, l = group[order], lat[order]
    tied = (g[1:] == g[:-1]) & (l[1:] == l[:-1])
    if tied.any():
        order = np.lexsort((*reversed(keys), -imp, lat, group))
        g, l = group[order], lat[order]
        tied = (g[1:] == g[:-1]) & (l[1:] == l[:-1])
    v = imp[order]
    if g[0] == g[-1]:
        best = np.maximum.accumulate(v)
    else:  # a running maximum per group, on integer ranks of the values
        values, rank = np.unique(v, return_inverse=True)
        shift = np.concatenate(([0], np.cumsum(g[1:] != g[:-1]))) * values.size
        best = values[np.maximum.accumulate(rank.reshape(-1) + shift) - shift]
    same = tied & (v[1:] == v[:-1])
    return order[(best <= v + margin) & np.concatenate(([True], ~same))]


def _points(model: _BlockModel, row: int, reads: list[int], margin: float) -> _Points:
    """Kept states of a block whose input takes option `row` (0 unless a
    chain reads another block's conv output), its removed state included.

    Dimensions join in block order, each table at its last axis, so sums
    follow ``constraint_value``; the removed state joins with the last.
    After each dimension a Pareto filter keeps points apart per option of
    the axes that a later table reads or a later chain reads (the positions
    in `reads`).  A stage where no axis is free of both has one point per
    group (a block whose every dimension is read is permanent, so no removed
    state joins one) and skips the filter.
    """
    last = len(model.shape) - 1
    lat, imp = np.zeros(1), np.zeros(1)
    rank = np.zeros(1, dtype=np.int64)
    opts = np.zeros((1, 0), dtype=np.int64)
    for i, n in enumerate(model.shape):
        step = np.broadcast_to(lat[:, None], (lat.size, n))
        for data, pos in model.parts:
            if pos[-1] == i:
                rows = [opts[:, p] if p >= 0 else np.full(lat.size, row) for p in pos[:-1]]
                step = step + data[tuple(rows)]
        lat = step.reshape(-1)
        imp = (imp[:, None] + model.imp[i][None, :]).reshape(-1)
        rank = (_dense(rank)[:, None] * n + np.arange(n)).reshape(-1)
        opts = np.concatenate(
            [np.repeat(opts, n, axis=0), np.tile(np.arange(n), len(opts))[:, None]], axis=1
        )
        if i == last and model.block.removable:  # no latency or importance, options 0
            lat, imp, rank = np.append(lat, 0.0), np.append(imp, 0.0), np.append(rank, -1)
            opts = np.concatenate([opts, np.zeros((1, i + 1), dtype=np.int64)])
        read = set(reads).union(*(pos for _, pos in model.parts if pos[-1] > i))
        apart = [p for p in range(i + 1) if p in read]
        if len(apart) <= i:
            keep = _pareto(lat, imp, (rank < 0, rank), margin, _group_ids(opts[:, apart]))
            lat, imp, rank, opts = lat[keep], imp[keep], rank[keep], opts[keep]
    return _Points(lat, imp, (rank < 0).astype(np.int64), rank, opts)


def _hull(lat: np.ndarray, imp: np.ndarray) -> np.ndarray:
    """Indices of the upper concave hull's vertices, latency ascending, from
    the most important of the fastest points to the most important point."""
    order = np.lexsort((-imp, lat))
    v = imp[order]
    rising = order[np.concatenate(([True], v[1:] > np.maximum.accumulate(v)[:-1]))]
    x, y = lat.tolist(), imp.tolist()
    hull: list[int] = []
    for i in rising.tolist():
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (x[i] - x[a]) > (y[i] - y[a]) * (x[b] - x[a]):
                break
            hull.pop()
        hull.append(i)
    return np.array(hull, dtype=np.int64)


class _Frontier:
    """One block's Pareto points: one set from ``_points`` per option of the
    block's input (a single set unless a chain reads another block's conv
    output), concatenated; and the upper hull of their union.  Points of a
    block whose dimensions later chains read (the positions in `reads`) are
    kept apart per option of those."""

    def __init__(self, model: _BlockModel, reads: list[int], margin: float) -> None:
        self.reads = reads
        sets = [_points(model, row, reads, margin) for row in range(model.inputs)]
        self.points = _Points(*map(np.concatenate, zip(*sets)))
        self.sizes = np.array([s.lat.size for s in sets])
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.rank_span = int(self.points.rank.max()) + 2
        self.hull = _hull(self.points.lat, self.points.imp)


def _frontiers(models: list[_BlockModel], margin: float) -> list[_Frontier]:
    read = {m.input_dim_id for m in models}
    return [
        _Frontier(m, [p for p, d in enumerate(m.dim_ids) if d in read], margin)
        for m in models
    ]


class _Bound:
    """The multiple-choice knapsack LP bound of every suffix of blocks.

    A block enters with its hull's first vertex and its hull segments; a
    chain reading a conv output uses the hull of all its input options'
    points.  For the suffix from block k on, the segments of its blocks are
    merged steepest first into cumulative latency and importance arrays, so
    the LP optimum at a latency allowance is the base plus the segments that
    fit, the last one in part (Sinha & Zoltners, Oper. Res. 1979).
    """

    def __init__(self, frontiers: list[_Frontier]) -> None:
        n = len(frontiers)
        self.base_lat = [0.0] * (n + 1)
        self.base_imp = [0.0] * (n + 1)
        self.cum_lat = [np.zeros(1)] * (n + 1)
        self.cum_imp = [np.zeros(1)] * (n + 1)
        self.slope = [np.zeros(0)] * (n + 1)
        d_lat, d_imp = np.zeros(0), np.zeros(0)
        for k in range(n - 1, -1, -1):
            f = frontiers[k]
            x, y = f.points.lat[f.hull], f.points.imp[f.hull]
            self.base_lat[k] = self.base_lat[k + 1] + float(x[0])
            self.base_imp[k] = self.base_imp[k + 1] + float(y[0])
            d_lat = np.concatenate([d_lat, np.diff(x)])
            d_imp = np.concatenate([d_imp, np.diff(y)])
            order = np.argsort(-(d_imp / d_lat), kind="stable")
            self.cum_lat[k] = np.concatenate(([0.0], np.cumsum(d_lat[order])))
            self.cum_imp[k] = np.concatenate(([0.0], np.cumsum(d_imp[order])))
            self.slope[k] = (d_imp / d_lat)[order]

    def __call__(self, k: int, imp: np.ndarray, lat: np.ndarray, room: float) -> np.ndarray:
        """Upper bound on every completion by blocks k.. of partial plans
        with importance `imp` and latency `lat`, within latency `room`."""
        slope = self.slope[k]
        extra = room - lat - self.base_lat[k]
        if slope.size:
            cum_lat, cum_imp = self.cum_lat[k], self.cum_imp[k]
            i = np.searchsorted(cum_lat, extra, side="right") - 1
            j = np.clip(i, 0, slope.size - 1)
            part = cum_imp[j] + slope[j] * (extra - cum_lat[j])
            extra = np.where(i >= slope.size, cum_imp[-1], part)
        else:
            extra = 0.0
        return imp + self.base_imp[k] + extra


class _Core:
    """The budget-free part of a solve, built on first use from the block
    models alone, so problems that differ only in the budget share one.
    No solve changes it."""

    def __init__(self, models: list[_BlockModel]) -> None:
        self.models = models

    @cached_property
    def parts(self) -> tuple[float, list[_Frontier], _Bound]:
        """(dominance margin, block frontiers, their suffix LP bound)."""
        scale = sum(float(np.max(np.abs(v))) for m in self.models for v in m.imp)
        margin = 1e-9 * (1.0 + scale)
        frontiers = _frontiers(self.models, margin)
        return margin, frontiers, _Bound(frontiers)


class _Incumbent:
    """The best plan offered so far, by importance and then ``tie_key``."""

    def __init__(self, problem: PruningProblem) -> None:
        self.problem = problem
        self.assignment: Assignment | None = None
        self.value = _NEG_INF
        self.key = None

    def offer(self, assignment: Assignment | None) -> None:
        if assignment is None:
            return
        problem = self.problem
        if constraint_value(assignment, problem.tables, problem.arch) > problem.budget:
            return
        value = objective_value(assignment, problem.vectors, problem.arch)
        if value > self.value:
            self.assignment, self.value = assignment, value
            self.key = problem.tie_key(assignment)
        elif value == self.value and self.assignment is not None:
            key = problem.tie_key(assignment)
            if key < self.key:
                self.assignment, self.key = assignment, key


def _plan(problem: PruningProblem, frontiers: list[_Frontier], points: list[int]) -> Assignment:
    """The assignment of one frontier point per block."""
    omega, kappa = {}, {}
    for model, f, i in zip(problem.models, frontiers, points):
        omega.update(zip(model.dim_ids, (f.points.opts[i] + 1).tolist()))
        if model.block.removable:
            kappa[model.block.id] = 1 - int(f.points.removed[i])
    return Assignment(omega={d: omega[d] for d in problem.dim_order}, kappa=kappa)


def _lp_rounding(problem: PruningProblem, frontiers: list[_Frontier], bound: _Bound) -> Assignment:
    """Round the root LP optimum to a plan.

    Hull segments are taken steepest first while they fit; once one does
    not, its block takes no more.  Then each block in turn gets its most
    important point within its LP latency plus the slack left; a chain
    reading a conv output picks among the points for its producer's option.
    """
    hulls = [(f.points.lat[f.hull].tolist(), f.points.imp[f.hull].tolist()) for f in frontiers]
    segments = sorted(
        (-(y[t + 1] - y[t]) / (x[t + 1] - x[t]), k, t)
        for k, (x, y) in enumerate(hulls)
        for t in range(len(x) - 1)
    )
    step = [0] * len(frontiers)
    left = problem.budget - bound.base_lat[0]
    stopped = set()
    for _, k, t in segments:
        if k in stopped:
            continue
        x = hulls[k][0]
        if x[t + 1] - x[t] <= left:
            left -= x[t + 1] - x[t]
            step[k] = t + 1
        else:
            stopped.add(k)

    chosen = []
    for k, f in enumerate(frontiers):
        model = problem.models[k]
        s = 0
        if model.input_dim_id is not None:
            producer = problem.arch.owner_block(model.input_dim_id).id - 1
            pos = problem.models[producer].dim_ids.index(model.input_dim_id)
            s = int(frontiers[producer].points.opts[chosen[producer], pos])
        lo = int(f.offsets[s])
        lat = f.points.lat[lo:lo + f.sizes[s]]
        limit = hulls[k][0][step[k]] + left
        fits = lat <= limit
        if fits.any():
            i = lo + int(np.argmax(np.where(fits, f.points.imp[lo:lo + lat.size], _NEG_INF)))
        else:
            i = lo + int(np.argmin(lat))
        left = limit - float(f.points.lat[i])
        chosen.append(i)
    return _plan(problem, frontiers, chosen)


def _pareto_dp(problem, frontiers, bound, incumbent, config, deadline, margin, room):
    """Merge the frontiers block by block, in declaration order.

    Returns (leaf, node count, largest pruned bound, timed out), where
    leaf is the best complete plan found with its importance and latency
    sums, or None.  A stage joins the kept partial plans with a
    block's points, drops candidates that cannot fit (latency plus the
    suffix minimum above `room`) or cannot beat the incumbent by more than
    the tolerance (value plus the suffix LP bound), and keeps the rest
    that no plan of the same open producer options dominates.
    """
    budget = problem.budget
    last_reader = {m.input_dim_id: k for k, m in enumerate(problem.models)}
    lat, imp = np.zeros(1), np.zeros(1)
    kappa_rank = np.zeros(1, dtype=np.int64)
    omega_rank = np.zeros(1, dtype=np.int64)
    opts, open_dims = np.zeros((1, 0), dtype=np.int64), []
    back = []
    nodes = 0
    pruned = _NEG_INF
    floor = incumbent.value
    last = len(frontiers) - 1

    # Lagrangian pre-cut at the root LP multiplier lam: for any completion,
    # importance <= imp + lam * (room - lat) + phi[k + 1] with
    # phi[k] = sum over blocks b >= k of max(imp - lam * lat), which is
    # separable, so each parent expands only the points of highest
    # imp - lam * lat.  The exact LP bound then judges those.
    i = int(np.searchsorted(bound.cum_lat[0], room - bound.base_lat[0], side="right")) - 1
    lam = float(bound.slope[0][i]) if i < bound.slope[0].size else 0.0
    scores = [f.points.imp - lam * f.points.lat for f in frontiers]
    phi = np.concatenate((np.cumsum([float(s.max()) for s in scores][::-1])[::-1], [0.0]))

    for k, f in enumerate(frontiers):
        model = problem.models[k]
        pts = f.points
        if model.input_dim_id is None:
            sets = np.zeros(lat.size, dtype=np.int64)
        else:
            sets = opts[:, open_dims.index(model.input_dim_id)]
        head = imp + phi[k + 1] + (lam * (room - lat) if lam > 0 else 0.0)
        need = floor + config.tolerance - 2 * margin - head
        perm = np.zeros(pts.lat.size, dtype=np.int64)
        counts = np.zeros(lat.size, dtype=np.int64)
        for s in np.unique(sets).tolist():
            lo, hi = f.offsets[s], f.offsets[s] + f.sizes[s]
            perm[lo:hi] = lo + np.argsort(-scores[k][lo:hi], kind="stable")
            ranked = -scores[k][perm[lo:hi]]
            mine = sets == s
            counts[mine] = np.searchsorted(ranked, -need[mine], side="left")
            rest = mine & (counts < f.sizes[s])
            if rest.any():
                pruned = max(pruned, float((head[rest] - ranked[counts[rest]]).max()))
        ends = np.cumsum(counts)
        kept = []
        lo = 0
        while lo < lat.size:
            if time.perf_counter() > deadline:
                return None, nodes, pruned, True
            base = ends[lo] - counts[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
            par = np.repeat(np.arange(lo, hi), counts[lo:hi])
            pos = np.arange(par.size) - np.repeat(ends[lo:hi] - counts[lo:hi] - base, counts[lo:hi])
            pt = perm[f.offsets[sets[par]] + pos]
            c_lat = lat[par] + pts.lat[pt]
            c_imp = imp[par] + pts.imp[pt]
            if k == last:
                fits = c_lat <= budget
                value = c_imp
            else:
                fits = c_lat + bound.base_lat[k + 1] <= room
                value = bound(k + 1, c_imp, c_lat, room)
            good = fits & (value > floor + config.tolerance - margin)
            cut = fits & ~good
            if cut.any():
                pruned = max(pruned, float(value[cut].max()))
            if k == last and good.any():
                floor = max(floor, float(c_imp[good].max()))
            kept.append((par[good], pt[good], c_lat[good], c_imp[good]))
            lo = hi
        par, pt, c_lat, c_imp = map(np.concatenate, zip(*kept))
        kappa_code = kappa_rank[par] * 2 + pts.removed[pt]
        omega_code = omega_rank[par] * f.rank_span + pts.rank[pt] + 1
        if k == last:
            nodes += par.size
            if not par.size:
                return None, nodes, pruned, False
            best = int(np.lexsort((omega_code, kappa_code, -c_imp))[0])
            chosen = [int(pt[best])]
            i = int(par[best])
            for prev_par, prev_pt in reversed(back):
                chosen.append(int(prev_pt[i]))
                i = int(prev_par[i])
            leaf = _plan(problem, frontiers, chosen[::-1])
            return (leaf, float(c_imp[best]), float(c_lat[best])), nodes, pruned, False

        cols = np.concatenate([opts[par], pts.opts[pt][:, f.reads]], axis=1)
        open_dims = open_dims + [model.dim_ids[p] for p in f.reads]
        still = [c for c, d in enumerate(open_dims) if last_reader[d] > k]
        open_dims = [open_dims[c] for c in still]
        cols = cols[:, still]
        keep = _pareto(c_lat, c_imp, (kappa_code, omega_code), margin, _group_ids(cols))
        lat, imp, opts = c_lat[keep], c_imp[keep], cols[keep]
        kappa_rank, omega_rank = _dense(kappa_code[keep]), _dense(omega_code[keep])
        back.append((par[keep], pt[keep]))
        nodes += keep.size
        if not keep.size:
            break
    return None, nodes, pruned, False


def solve_branch_and_bound(
    problem: PruningProblem, config: SolverConfig | None = None
) -> PruningSolution:
    """Exact solve by a Pareto dynamic program over per-block frontiers.

    The margin, frontiers and LP bound come from the problem's core, built
    on the first solve of the problem family and reused by later budgets.  The
    incumbent is seeded by rounding the root LP optimum.  Stages then
    merge the blocks' frontiers in declaration order, pruning partial plans
    by the suffix LP bound and the suffix minimum latency (see
    ``_pareto_dp``).  Returns a
    proven-optimal solution within ``config.tolerance``, with bound the
    largest pruned bound (at least the importance), or, when the time limit
    ends the merge first, the incumbent with the root LP bound.
    ``node_count`` is the number of partial plans kept, summed over stages.

    In mode ``heuristic_only`` the seeding also offers the greedy repairs of
    the rounded and the dense plan and no merge runs: the answer is the
    incumbent with the root LP bound.
    """
    config = config or SolverConfig()
    config.validate()
    start = time.perf_counter()
    deadline = start + config.time_limit
    budget = problem.budget
    # Rounding can move a sum by far less than this or the core's margin.
    room = budget + 1e-9 * (1.0 + (budget if math.isfinite(budget) else 0.0))

    def finish(status, incumbent, nodes, bound_value=None, message=""):
        latency = None
        if incumbent is not None:
            latency = constraint_value(incumbent.assignment, problem.tables, problem.arch)
            if latency > budget:
                raise SolveError("internal error: incumbent fails the latency recheck")
        return PruningSolution(
            status=status,
            assignment=incumbent and incumbent.assignment,
            importance=incumbent and incumbent.value,
            latency=latency,
            bound=bound_value,
            node_count=nodes,
            wall_time=time.perf_counter() - start,
            message=message,
        )

    margin, frontiers, bound = problem._core.parts
    if bound.base_lat[0] > room:
        return finish("infeasible", None, 0,
                      message="optimistic minimum latency already exceeds the budget")

    incumbent = _Incumbent(problem)
    rounded = _lp_rounding(problem, frontiers, bound)
    incumbent.offer(rounded)
    heuristic = config.mode == "heuristic_only"
    if heuristic:
        incumbent.offer(repair_heuristic(problem, rounded))
        incumbent.offer(repair_heuristic(problem, problem.dense_assignment()))
        leaf, nodes, pruned, timed_out = None, 0, _NEG_INF, False
    else:
        leaf, nodes, pruned, timed_out = _pareto_dp(
            problem, frontiers, bound, incumbent, config, deadline, margin, room
        )
    if leaf is not None:
        plan, importance, latency = leaf
        if (objective_value(plan, problem.vectors, problem.arch) != importance
                or constraint_value(plan, problem.tables, problem.arch) != latency):
            raise SolveError("internal error: a plan's sums differ from its recheck")
        incumbent.offer(plan)
    if incumbent.assignment is None:
        if heuristic:
            message = "no seed plan fits the budget; feasibility undecided"
        elif timed_out:
            message = "time limit reached before feasibility could be decided"
        else:
            message = "no state satisfies the latency budget"
        return finish("infeasible", None, nodes, message=message)
    if heuristic or timed_out:
        root = float(bound(0, np.zeros(1), np.zeros(1), room)[0])
        message = "" if heuristic else (
            "time limit reached; reporting best incumbent and surviving bound")
        return finish("feasible_heuristic", incumbent, nodes, max(incumbent.value, root), message)
    return finish("optimal", incumbent, nodes, max(incumbent.value, pruned))


def solve(problem: PruningProblem, config: SolverConfig | None = None) -> PruningSolution:
    config = config or SolverConfig()
    config.validate()
    if config.mode == "exhaustive":
        return solve_exhaustive(problem)
    return solve_branch_and_bound(problem, config)
