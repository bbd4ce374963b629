"""Exact solvers for the budgeted pruning program.

The program maximizes total importance subject to total latency <= budget
over one-hot keep-count choices per dimension and keep/remove bits per
removable block.  Both contributions are additive over blocks and a removed
block contributes zero to each, so picking one state per block under the
budget is a multiple-choice knapsack.  The one coupling between blocks is a
chain reading a conv output of an earlier (permanent) block: its latency
depends on that producer's option.

``solve_budgets`` solves it exactly by a Pareto dynamic program:

* each block's states are thinned to a (latency, importance) frontier
  without enumerating the block, by one pass for both block kinds: it adds
  the block's dimensions in order, each latency table at its last axis, and
  filters after each, keeping points apart only per option of the
  dimensions a later table or a later chain reads (a transformer per
  (emb, head) over qk, then per emb, then over all; a chain per option of
  its current layer); a chain reading a conv output covers every option of
  that input in the same pass, the input option being one more grouping
  column, so its frontier holds one run of points per input option;
* the upper concave hulls of the frontiers give the exact LP relaxation
  of every suffix of blocks (Sinha & Zoltners, Oper. Res. 1979), which for
  a multiple-choice knapsack equals the best Lagrangian dual bound;
* a seed plan comes from rounding the root LP optimum, read in the bound's
  own segment order, reserving at each block the least latency the later
  blocks still need at the input widths the plan has fixed, so the seed
  fits whenever any plan does, up to the order of float additions; each
  frontier holds that reserve for its block and the chains below it;
* stages merge the frontiers in block-declaration order, dropping partial
  plans that the LP bound and the seed's importance rule out, or that
  another plan with the same open producer options dominates.

The frontiers, with their hulls and the rounding's reserve, and the bound
depend on the architecture, vectors and tables but not on the budget,
which enters only as the room the merge may fill.  They form
``PruningProblem.core``, built on the problem's first solve and kept by
it, so later solves of the problem reuse it.  ``solve_budgets`` merges a
list of budgets in one pass, side by side, each partial plan carrying its
budget, so a sweep pays each stage's fixed cost once, its pre-cut's one
sort and one search included.
``solve`` is its batch of one, so every solve runs the same merge.

Mode ``heuristic_only`` reports the seed with the root LP bound; only when
the rounding finds no plan does the merge run, to decide feasibility.

Sums follow the order of ``objective_value`` and ``constraint_value``, so a
complete plan's importance and latency are theirs bit for bit and ties
resolve by ``PruningProblem.tie_key``.  ``solve_exhaustive``, the
ground-truth oracle for everything else, sums them over the full state grid
of any instance under one guard on the state count.

Every solver and mode has one answer path: a plan stays in the search's own
form (frontier points, or grid columns in the oracle) with its importance
and latency sums until ``_solution`` reports it, after one recheck that the
sums equal the public evaluators' bit for bit and fit the budget.

Determinism: identical problem + settings give identical solutions and node
counts.  The solver runs sequentially in the calling thread.
"""

from __future__ import annotations

import math
import sys
import time
from functools import cached_property

import numpy as np

from .arch import (
    ArchitectureSpec, BlockSpec, checked_budget, subnetwork_count, validate_problem_shapes,
)
from .errors import SolveError, ValidationError
from .importance import Assignment, ImportanceVector, objective_value
from .latency import TableSet, constraint_value
from .record import Record

EXHAUSTIVE_GUARD = 10**6

_NEG_INF = float("-inf")
_NORMAL_MIN = sys.float_info.min


class PruningSolution(Record):
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
    when it is another block's conv output.  ``producer`` and ``readers``
    place the block in the chain forest (``PruningProblem``).
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
            self.parts.append((np.asarray(tables.get(block.id, part, layer).data), pos))
            outer += [d for d in dims if d.id not in self.dim_ids]
        self.inputs = outer[0].option_count if outer else 1
        self.input_dim_id = outer[0].id if outer and outer[0].role != "fixed_external" else None
        self.producer, self.readers = None, []

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

    Built by ``assemble``; read-only afterwards.  ``solve_budgets`` solves
    it under other budgets.

    A chain reading a conv output hangs below the (permanent) block that
    owns it, so the blocks form a forest, stated once here: each model's
    ``producer`` is the index of the block whose conv output it reads
    (None when it reads none), and its ``readers`` are the (reader index,
    read position) pairs of the chains reading its dimensions, ascending by
    reader.
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
        owner = {d: (k, p) for k, m in enumerate(self.models) for p, d in enumerate(m.dim_ids)}
        for r, m in enumerate(self.models):
            if m.input_dim_id is not None:
                m.producer, pos = owner[m.input_dim_id]
                self.models[m.producer].readers.append((r, pos))
        self.dim_order = [d for b in arch.blocks for d in b.dims]

    @cached_property
    def core(self) -> tuple[float, list[_Frontier], _Bound]:
        """The budget-free part of a solve, built on first use: (dominance
        margin, block frontiers with the LP rounding's latency reserve, their
        suffix LP bound).  No solve changes it."""
        scale = sum(float(np.max(np.abs(v))) for m in self.models for v in m.imp)
        margin = 1e-9 * (1.0 + scale)
        frontiers = _frontiers(self.models, margin)
        return margin, frontiers, _Bound(frontiers)

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
    budget = checked_budget(budget)
    validate_problem_shapes(arch, tables, vectors)
    return PruningProblem(arch, vectors, tables, budget)


def _solution(problem, budget, start, status, nodes, plan=None, bound=None,
              message="") -> PruningSolution:
    """The solution reporting `plan`, (importance, latency, assignment) or
    None, after its one recheck: the sums must be the evaluators' bit for
    bit and fit `budget`."""
    importance = latency = assignment = None
    if plan is not None:
        importance, latency, assignment = plan
        if (objective_value(assignment, problem.vectors, problem.arch) != importance
                or constraint_value(assignment, problem.tables, problem.arch) != latency
                or latency > budget):
            raise SolveError("internal error: a plan fails its recheck")
    wall = time.perf_counter() - start
    return PruningSolution(status, assignment, importance, latency, bound, nodes, wall, message)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def solve_exhaustive(problem: PruningProblem) -> PruningSolution:
    """Enumerate every state and return the max-importance feasible one.

    Ties break toward kept blocks first, then ascending option indices.
    Guarded at ``EXHAUSTIVE_GUARD`` (10**6) states.
    """
    start = time.perf_counter()
    count = subnetwork_count(problem.arch)
    if count > EXHAUSTIVE_GUARD:
        raise SolveError(
            f"state space has {count} states, above the exhaustive guard "
            f"of {EXHAUSTIVE_GUARD}"
        )
    plan = _enumerate(problem)
    if plan is None:
        return _solution(problem, problem.budget, start, "infeasible", count,
                         message="no state satisfies the latency budget")
    return _solution(problem, problem.budget, start, "optimal", count, plan, bound=plan[0])


def _enumerate(problem: PruningProblem) -> tuple[float, float, Assignment] | None:
    """(importance, latency, assignment) of the best feasible plan, or None.

    Importance and latency totals cover the full state grid, one axis per
    block, summed block after block.  A chain reading a conv output takes
    its latency column from the option its producer's state gives that
    output.
    """
    models = problem.models
    imp_total = lat_total = np.zeros(())
    for k, model in enumerate(models):
        imp, lat = model.state_tables()
        if model.producer is None:
            lat = lat[:, 0]
        else:
            options = models[model.producer].option_of_dim(model.input_dim_id)
            shape = [1] * (k + 1)
            shape[model.producer], shape[k] = options.size, imp.size
            lat = lat[:, options - 1].T.reshape(shape)
        imp_total = imp_total[..., None] + imp
        lat_total = lat_total[..., None] + lat

    feasible = lat_total <= problem.budget
    if not feasible.any():
        return None
    best = imp_total[feasible].max()
    states = np.argwhere(feasible & (imp_total == best))
    # The columns of ``PruningProblem.tie_key``: removed flags, then options.
    removed = {m.block.id: states[:, k] == m.states
               for k, m in enumerate(models) if m.block.removable}
    options = {d: m.option_of_dim(d)[states[:, k]] for k, m in enumerate(models) for d in m.dim_ids}
    keys = [*removed.values(), *options.values()]
    first = np.lexsort(keys[::-1])[0] if keys else 0
    omega = {d: int(o[first]) for d, o in options.items()}
    kappa = {b: 1 - int(r[first]) for b, r in removed.items()}
    state = tuple(states[first])
    return float(imp_total[state]), float(lat_total[state]), Assignment(omega, kappa)


# ---------------------------------------------------------------------------
# Pareto frontiers and the dynamic program
# ---------------------------------------------------------------------------

_CHUNK = 32768  # candidate plans expanded at a time
_FOLD = 8  # a stage folds the survivors it holds past this many chunks' worth
_CODE_CAP = 2**62  # integer codes stay below this, so no product of them overflows


def _dense(code: np.ndarray) -> np.ndarray:
    """0-based ranks of integer codes, equal codes sharing a rank."""
    return np.unique(code, return_inverse=True)[1].reshape(-1)


def _group_ids(columns: np.ndarray) -> np.ndarray | None:
    """Ids of the distinct rows of an (n, c) integer array, in the rows'
    lexicographic order; None when c is 0.  Ids are made dense only when
    the next column could take them past ``_CODE_CAP``."""
    ids = None
    for col in columns.T:
        span = int(col.max(initial=0)) + 1
        if ids is None:
            ids = col
            continue
        if int(ids.max(initial=0)) >= _CODE_CAP // span:
            ids = _dense(ids)
        ids = ids * span + col
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
    else:  # a running maximum per group: numpy orders complex numbers by real part first
        key = np.empty(v.size, dtype=np.complex128)
        key.real = np.concatenate(([0], np.cumsum(g[1:] != g[:-1])))  # group ordinal, exact
        key.imag = v
        best = np.maximum.accumulate(key, out=key).imag
    same = tied & (v[1:] == v[:-1])
    return order[(best <= v + margin) & np.concatenate(([True], ~same))]


def _points(model: _BlockModel, reads: list[int], margin: float) -> tuple:
    """The ``_Frontier`` arrays (lat, imp, rank, opts, inp) of a block's
    kept states for every option of its input (one unless a chain reads
    another block's conv output), a removed state per input option
    included, in one pass.

    A point carries one mixed-radix code of its options, the input option
    most significant (the other digits 0 for a removed state), and table
    rows, a chain's input axis and groups read its digits.  Dimensions join
    in block order, each table at its last axis, so sums follow
    ``constraint_value``; the removed states join with the last.  After each
    dimension a Pareto filter keeps points apart per input option and per
    option of the axes that a later table reads or a later chain reads (the
    positions in `reads`).  A stage where no axis is free of both has one
    point per group (a block whose every dimension is read is permanent, so
    no removed state joins one) and skips the filter.  The filter sorts by
    group, input option first, so the points come out ascending by input
    option.
    """
    shape, m = model.shape, model.inputs
    last = len(shape) - 1
    # Python ints (slow, exact) for a block whose codes could pass int64.
    kind = object if m * (model.states + 1) >= _CODE_CAP else np.int64
    lat, imp, code = np.zeros(m), np.zeros(m), np.arange(m, dtype=kind)

    def digit(p: int, joined: int) -> np.ndarray:  # of dimension p (-1: the input)
        below = code // math.prod(shape[p + 1:joined])  # codes over `joined` dimensions
        return (below if p < 0 else below % shape[p]).astype(np.int64, copy=False)

    for i, n in enumerate(shape):
        step = np.broadcast_to(lat[:, None], (lat.size, n))
        for data, pos in model.parts:
            if pos[-1] == i:
                step = step + data[tuple(digit(p, i) for p in pos[:-1])]
        lat = step.reshape(-1)
        imp = (imp[:, None] + model.imp[i][None, :]).reshape(-1)
        if i == last:  # option tuples ranked over this stage's parents, as the merge's tie codes
            rank = (_dense(code % math.prod(shape[:i]))[:, None] * n + np.arange(n)).reshape(-1)
        code = (code[:, None] * n + np.arange(n)).reshape(-1)
        if i == last and model.block.removable:  # no latency or importance, options 0
            lat, imp = np.append(lat, np.zeros(m)), np.append(imp, np.zeros(m))
            rank = np.append(rank, np.full(m, -1))
            code = np.append(code, np.arange(m, dtype=kind) * model.states)
        read = set(reads).union(*(pos for _, pos in model.parts if pos[-1] > i))
        apart = [p for p in range(i + 1) if p in read]
        if len(apart) <= i:
            group = None
            for p in [-1] * (m > 1) + apart:
                column = digit(p, i + 1)
                group = column if group is None else group * shape[p] + column
            keys = (rank < 0, rank) if i == last else (code,)
            keep = _pareto(lat, imp, keys, margin, group)
            lat, imp, code = lat[keep], imp[keep], code[keep]
            if i == last:
                rank = rank[keep]
    opts = np.stack([digit(p, last + 1) for p in range(last + 1)], axis=1)
    return lat, imp, rank, opts, digit(-1, last + 1)


def _hull(lat: np.ndarray, imp: np.ndarray) -> np.ndarray:
    """Indices of the upper concave hull's vertices, latency ascending, from
    the most important of the fastest points to the most important point.

    The cross products compare as floats when none can overflow or underflow,
    which would drop a vertex: the rising points' smallest steps multiply to
    a normal float and their spans to a finite one.  Otherwise they compare
    as exact fractions."""
    order = np.lexsort((-imp, lat))
    v = imp[order]
    rising = order[np.concatenate(([True], v[1:] > np.maximum.accumulate(v)[:-1]))]
    x, y = lat.tolist(), imp.tolist()
    if rising.size > 2:
        with np.errstate(over="ignore"):
            steps = float(np.diff(lat[rising]).min()) * float(np.diff(imp[rising]).min())
        first, last = int(rising[0]), int(rising[-1])
        if not (steps >= _NORMAL_MIN and (x[last] - x[first]) * (y[last] - y[first]) < math.inf):
            from fractions import Fraction  # 2-3 ms of imports, for extreme inputs only

            x, y = list(map(Fraction, x)), list(map(Fraction, y))
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
    """One block's Pareto points from one ``_points`` pass, as parallel
    arrays ascending by input option (a single option unless a chain reads
    another block's conv output), ``sizes`` and ``offsets`` locating each
    option's points; and the upper hull of them all.  Points of a block
    whose dimensions later chains read (its ``readers``; the positions read
    in ``reads``) are kept apart per option of those.

    ``lat`` and ``imp`` are the block's latency and importance subtotals,
    summed in the order ``constraint_value`` and ``objective_value`` use.
    ``removed`` is 1 for the removed state, ``rank`` orders kept states by
    their option tuples (-1 for the removed state), ``opts`` holds the
    0-based option of each of the block's dimensions (0 when removed) and
    ``inp`` the 0-based option of the block's input.

    The LP rounding's reserve, the least latency the block needs with the
    chains below it in the forest, comes from its readers' frontiers, built
    first.  ``total`` is each point's latency plus, per reader in ascending
    order, that reader's ``need`` at the option the point gives the
    dimension it reads; ``need[s]`` is the smallest ``total`` among the
    points for input option s; ``known`` is the need before any block is
    placed: ``need[0]`` when the block has no producer, else 0.
    """

    def __init__(self, model: _BlockModel, frontiers: list, margin: float) -> None:
        self.readers = model.readers
        self.reads = sorted({p for _, p in model.readers})
        self.lat, self.imp, self.rank, self.opts, self.inp = _points(model, self.reads, margin)
        self.removed = (self.rank < 0).astype(np.int64)
        self.sizes = np.bincount(self.inp, minlength=model.inputs)
        self.offsets = np.cumsum(self.sizes) - self.sizes
        self.rank_span = int(self.rank.max()) + 2
        self.hull = _hull(self.lat, self.imp)
        self.total = self.lat
        for r, pos in self.readers:
            self.total = self.total + frontiers[r].need[self.opts[:, pos]]
        self.need = np.minimum.reduceat(self.total, self.offsets)
        self.known = float(self.need[0]) if model.producer is None else 0.0


def _frontiers(models: list[_BlockModel], margin: float) -> list[_Frontier]:
    frontiers = [None] * len(models)
    for k in range(len(models) - 1, -1, -1):  # readers first: a frontier reads their needs
        frontiers[k] = _Frontier(models[k], frontiers, margin)
    return frontiers


class _Bound:
    """The multiple-choice knapsack LP bound of every suffix of blocks.

    A block enters with its hull's first vertex and its hull segments; a
    chain reading a conv output uses the hull of all its input options'
    points.  For the suffix from block k on, the segments of its blocks, in
    block order, are stably sorted steepest first (equal slopes keep block
    order) into cumulative latency and importance arrays, so the LP optimum
    at a latency allowance is the base plus the segments that fit, the last
    one in part (Sinha & Zoltners, Oper. Res. 1979).  A slope-0 end segment
    holds it at the full sum past the last, so a finite allowance reads one
    formula.  ``root`` lists the root's segments in that order, as
    (latencies, blocks), for the LP rounding.  A slope past float64's range
    is a ValidationError naming the scores: the bound and the pre-cut would
    read inf and NaN and drop the optimum.
    """

    def __init__(self, frontiers: list[_Frontier]) -> None:
        n = len(frontiers)
        self.base_lat = [0.0] * (n + 1)
        self.base_imp = [0.0] * (n + 1)
        self.cum_lat = [np.zeros(1)] * (n + 1)
        self.cum_imp = [np.zeros(1)] * (n + 1)
        self.slope = [np.zeros(1)] * (n + 1)
        hulls = [np.stack((f.lat[f.hull], f.imp[f.hull])) for f in frontiers]
        d_lat, d_imp = np.concatenate([np.zeros((2, 0)), *map(np.diff, hulls)], axis=1)
        blocks = np.repeat(np.arange(n), [h.shape[1] - 1 for h in hulls])
        with np.errstate(over="ignore"):
            slope = d_imp / d_lat
        if not np.isfinite(slope).all():
            raise ValidationError(
                "importance vectors: a hull step's importance per ms passes float64's "
                "range; scale the scores down"
            )
        order = np.argsort(-slope, kind="stable")  # a suffix's part is its own stable sort
        after = blocks[order]
        for k in range(n - 1, -1, -1):
            x, y = hulls[k]
            self.base_lat[k] = self.base_lat[k + 1] + float(x[0])
            self.base_imp[k] = self.base_imp[k + 1] + float(y[0])
            mine = order[after >= k]
            self.cum_lat[k] = np.concatenate(([0.0], np.cumsum(d_lat[mine])))
            self.cum_imp[k] = np.concatenate(([0.0], np.cumsum(d_imp[mine])))
            self.slope[k] = np.append(slope[mine], 0.0)
        self.root = (d_lat[order].tolist(), after.tolist())

    def __call__(self, k: int, imp: np.ndarray, lat: np.ndarray, room: float) -> np.ndarray:
        """Upper bound on every completion by blocks k.. of partial plans
        with importance `imp` and latency `lat`, within finite latency `room`."""
        extra = room - lat
        extra -= self.base_lat[k]
        j = np.searchsorted(self.cum_lat[k], extra, side="right")
        np.maximum(j - 1, 0, out=j)
        # imp + base + (cum_imp[j] + slope[j] * (extra - cum_lat[j])) in place; + and * commute
        extra -= self.cum_lat[k][j]
        with np.errstate(over="ignore"):  # -inf only for a candidate that cannot fit
            extra *= self.slope[k][j]
        extra += self.cum_imp[k][j]
        extra += imp + self.base_imp[k]
        return extra


def _plan(problem: PruningProblem, frontiers: list[_Frontier], points: list[int]) -> Assignment:
    """The assignment of one frontier point per block."""
    omega, kappa = {}, {}
    for model, f, i in zip(problem.models, frontiers, points):
        omega.update(zip(model.dim_ids, (f.opts[i] + 1).tolist()))
        if model.block.removable:
            kappa[model.block.id] = 1 - int(f.removed[i])
    return Assignment(omega={d: omega[d] for d in problem.dim_order}, kappa=kappa)


def _lp_rounding(
    budget: float, frontiers: list[_Frontier], bound: _Bound
) -> tuple[float, float, list[int]] | None:
    """Round the root LP optimum to a plan that fits `budget` whenever any
    plan does, up to the order of float additions, as (importance, latency,
    frontier point per block) with the sums in block order, the form of
    ``_pareto_dp``'s leaf; None when it finds none.

    The root's hull segments are taken in ``_Bound.root`` order (steepest
    first, equal slopes by block) while they fit; once one does not, its
    block takes no more.  Then each block in turn gets its most
    important allowed point within its LP latency plus the slack left, or
    else its most important allowed point.  A point is allowed when its
    ``total``, the latency already placed and the ``need`` of every later
    block whose input option is known fit the budget.  A chain reading a
    conv output picks among the points for its producer's option.

    The fit test adds the later needs up apart, not in block order as
    ``constraint_value`` does, so a plan at the budget to the last bit can
    fail it.  At the last block it is the block-order sum, so a returned
    plan always fits.
    """
    step = [0] * len(frontiers)
    left = budget - bound.base_lat[0]
    stopped = set()
    for d_lat, k in zip(*bound.root):
        if k in stopped:
            continue
        if d_lat <= left:
            left -= d_lat
            step[k] += 1
        else:
            stopped.add(k)

    chosen, imp, used = [], 0.0, 0.0
    inputs, waiting = [0] * len(frontiers), [f.known for f in frontiers]
    for k, f in enumerate(frontiers):
        lo = int(f.offsets[inputs[k]])
        hi = lo + int(f.sizes[inputs[k]])
        allowed = used + f.total[lo:hi] + sum(waiting[k + 1:]) <= budget
        if not allowed.any():
            return None
        limit = float(f.lat[f.hull[step[k]]]) + left
        fits = allowed & (f.lat[lo:hi] <= limit)
        pool = fits if fits.any() else allowed
        i = lo + int(np.argmax(np.where(pool, f.imp[lo:hi], _NEG_INF)))
        left = limit - float(f.lat[i])
        imp += float(f.imp[i])
        used += float(f.lat[i])
        chosen.append(i)
        for r, pos in f.readers:  # their input options are now known
            inputs[r] = int(f.opts[i, pos])
            waiting[r] = float(frontiers[r].need[inputs[r]])
    return imp, used, chosen


def _raise_max(out: np.ndarray, values: np.ndarray, bud) -> None:
    """Raise ``out[b]`` to the largest of `values` that belong to budget b,
    where `bud` is the budget index of every value (nondecreasing), or one
    index for them all."""
    if not isinstance(bud, int):
        if bud[0] != bud[-1]:
            starts = np.flatnonzero(np.concatenate(([True], bud[1:] != bud[:-1])))
            b = bud[starts]
            out[b] = np.maximum(out[b], np.maximum.reduceat(values, starts))
            return
        bud = int(bud[0])
    out[bud] = max(out[bud], values.max())


def _fold(kept: list, bud: np.ndarray, margin: float) -> list:
    """A stage's held chunk survivors as one chunk: those that no survivor
    of the same budget and open producer options dominates."""
    par, pt, c_lat, c_imp, kappa_code, omega_code, cols = map(np.concatenate, zip(*kept))
    keep = _pareto(c_lat, c_imp, (kappa_code, omega_code), margin,
                   _group_ids(np.column_stack((bud[par], cols))))
    return [a[keep] for a in (par, pt, c_lat, c_imp, kappa_code, omega_code, cols)]


def _precut(scores, inp, offsets, bud, sets, need) -> tuple:
    """(perm, start, counts): each budget's row of `scores` sorted by the
    points' input option `inp` (ascending, runs at `offsets`), then score
    descending, ties in point order, flat; and for each parent of budget
    `bud` and input option `sets`, its run's start in `perm` and how many of
    its points score above its `need`, strictly."""
    order = np.lexsort((-scores, np.broadcast_to(inp, scores.shape)))
    # numpy orders complex numbers by real part first: one per (budget, input option) run
    key = np.empty(scores.shape, dtype=np.complex128)
    key.real = np.arange(len(scores))[:, None] * len(offsets) + inp
    key.imag = -np.take_along_axis(scores, order, axis=1)
    query = np.empty(bud.size, dtype=np.complex128)
    query.real = bud * len(offsets) + sets
    query.imag = -need
    start = bud * scores.shape[1] + offsets[sets]
    return order.reshape(-1), start, np.searchsorted(key.reshape(-1), query, side="left") - start


def _pareto_dp(models, frontiers, bound, floor, tolerance, deadline, margin, room, limit):
    """Merge the frontiers block by block, in declaration order, for several
    budgets side by side.

    `floor`, `room` and `limit` hold one value per budget: the importance
    floor, the latency room of a partial plan, and the last stage's limit,
    the budget capped at the room.  Returns (leaves, nodes, pruned, open),
    per budget: the best complete plan found as (importance, latency,
    frontier point per block) or None, the node count, the largest pruned
    bound, and whether the deadline passed while it had partial plans left.

    A stage joins the kept partial plans with a block's points, drops
    candidates that cannot fit (latency plus the suffix minimum above the
    room, or above the limit at the last stage) or cannot beat their
    budget's floor by more than the tolerance (value plus the suffix LP
    bound), and keeps the rest that no plan of the same budget and open
    producer options dominates.  Partial plans stay budget-major, so each
    budget's values are read per contiguous segment.  Candidates are made
    and filtered in chunks, and a stage of several chunks filters their
    survivors once more (``_fold``).  It folds them also whenever those it
    holds pass ``_FOLD`` chunks' worth and twice the last fold's, so its
    memory follows its own Pareto set, not every chunk's.  A chunk may span
    budgets except at the last stage, where each chunk raises its budget's
    floor for the next, so every budget's chunks there start and end as
    they would alone.  The pre-cut below is one sort and one search per
    stage (``_precut``).
    """
    n = floor.size
    floor = floor.copy()
    last_reader = {m.input_dim_id: k for k, m in enumerate(models)}
    lat, imp = np.zeros(n), np.zeros(n)
    sizes = np.ones(n, dtype=np.int64)  # partial plans per budget
    kappa_rank = omega_rank = np.zeros(n, dtype=np.int64)
    opts, open_dims = np.zeros((n, 0), dtype=np.int64), []
    back = []
    nodes = np.zeros(n, dtype=np.int64)
    pruned = np.full(n, _NEG_INF)
    leaves = [None] * n
    last = len(frontiers) - 1

    # Lagrangian pre-cut at each budget's root LP multiplier lam: for any
    # completion, importance <= imp + lam * (room - base_lat[k] - lat) +
    # phi[k + 1] with phi[k] = sum over blocks b >= k of max(imp - lam * (lat
    # - the block's least latency)), which is separable, so each parent
    # expands only the points of highest score.  The exact LP bound then
    # judges those.  Latency is priced above each block's fastest point, so
    # no term of a point that fits can overflow; one that cannot fit may
    # score -inf.  Each block's scores are budget by point.
    i = np.searchsorted(bound.cum_lat[0], room - bound.base_lat[0], side="right") - 1
    lam = bound.slope[0][i]
    with np.errstate(over="ignore"):
        scores = [f.imp - lam[:, None] * (f.lat - f.lat[f.hull[0]]) for f in frontiers]
    top = np.array([s.max(axis=1) for s in scores]).reshape(-1, n)
    phi = np.concatenate((np.cumsum(top[::-1], axis=0)[::-1], np.zeros((1, n))))

    for k, (model, f) in enumerate(zip(models, frontiers)):
        bud = np.repeat(np.arange(n), sizes)
        sets = 0 if model.input_dim_id is None else opts[:, open_dims.index(model.input_dim_id)]
        if k < last:
            dims = open_dims + [model.dim_ids[p] for p in f.reads]
            still = [c for c, d in enumerate(dims) if last_reader[d] > k]
            open_dims = [dims[c] for c in still]
        head = imp + phi[k + 1][bud] + lam[bud] * (room[bud] - bound.base_lat[k] - lat)
        need = (floor + tolerance - 2 * margin)[bud] - head
        perm, start, counts = _precut(scores[k], f.inp, f.offsets, bud, sets, need)
        rest = np.flatnonzero(counts < f.sizes[sets])
        if rest.size:  # the best point a parent leaves out bounds all it leaves out
            first = perm[start[rest] + counts[rest]]
            _raise_max(pruned, head[rest] + scores[k][bud[rest], first], bud[rest])
        ends = np.cumsum(counts)
        shift = start - (ends - counts)  # a candidate's perm index less its own
        limits = limit if k == last else room
        if int(kappa_rank.max(initial=0)) >= _CODE_CAP // 2:
            kappa_rank = _dense(kappa_rank)
        if int(omega_rank.max(initial=0)) >= _CODE_CAP // f.rank_span:
            omega_rank = _dense(omega_rank)
        kept, held, folded = [], 0, 0
        lo = 0
        while lo < lat.size:
            if time.perf_counter() > deadline:
                return [None] * n, nodes, pruned, sizes > 0
            base = ends[lo] - counts[lo]
            hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK, side="right")))
            b = int(bud[lo])
            if k == last:  # this budget's candidates only
                hi = min(hi, int(np.searchsorted(bud, b, side="right")))
            par = np.repeat(np.arange(lo, hi), counts[lo:hi])
            pt = perm[np.repeat(shift[lo:hi], counts[lo:hi]) + np.arange(base, base + par.size)]
            c_lat = lat[par] + f.lat[pt]
            c_imp = imp[par] + f.imp[pt]
            cb = None if bud[hi - 1] == b else bud[par]  # each candidate's budget, if several
            at = b if cb is None else cb
            fits = c_lat + bound.base_lat[k + 1] <= limits[at]
            value = bound(k + 1, c_imp, c_lat, limits[at])
            good = fits & (value > floor[at] + tolerance - margin)
            cut = fits & ~good
            if cut.any():
                _raise_max(pruned, value[cut], b if cb is None else cb[cut])
            del value, fits, cut  # candidate-sized, not held through the filter below
            if k == last and good.any():
                floor[b] = max(floor[b], c_imp[good].max())
            par, pt, c_lat, c_imp = par[good], pt[good], c_lat[good], c_imp[good]
            chunk = [par, pt, c_lat, c_imp, kappa_rank[par] * 2 + f.removed[pt],
                     omega_rank[par] * f.rank_span + f.rank[pt] + 1]
            if k < last:  # filtered now, so a large stage never holds all its candidates
                chunk.append(np.concatenate([opts[par], f.opts[:, f.reads][pt]], axis=1)[:, still])
                # Apart per budget: the budget index leads the group columns.
                cols = chunk[6] if cb is None else np.column_stack((cb[good], chunk[6]))
                keep = _pareto(c_lat, c_imp, chunk[4:6], margin, _group_ids(cols))
                chunk = [a[keep] for a in chunk]
            kept.append(chunk)
            held += chunk[0].size
            if k < last and held > max(_FOLD * _CHUNK, 2 * folded):
                kept = [_fold(kept, bud, margin)]
                held = folded = kept[0][0].size
            lo = hi
        if k < last and len(kept) > 1:  # once more over the chunks' survivors
            kept = [_fold(kept, bud, margin)]
        par, pt, c_lat, c_imp, kappa_code, omega_code, *cols = (
            kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept)))
        cand = bud[par]
        if k == last:
            found = np.bincount(cand, minlength=n)
            nodes += found
            order = np.lexsort((omega_code, kappa_code, -c_imp, cand))
            best = order[(np.cumsum(found) - found)[found > 0]]
            chosen = [pt[best]]
            i = par[best]
            for prev_par, prev_pt in reversed(back):
                chosen.append(prev_pt[i])
                i = prev_par[i]
            points = np.stack(chosen[::-1], axis=1).tolist()
            for j, b in enumerate(cand[best].tolist()):
                leaves[b] = (float(c_imp[best[j]]), float(c_lat[best[j]]), points[j])
            break
        lat, imp, opts = c_lat, c_imp, cols[0]
        kappa_rank, omega_rank = kappa_code, omega_code
        back.append((par, pt))
        sizes = np.bincount(cand, minlength=n)
        nodes += sizes
        if not lat.size:
            break
    return leaves, nodes, pruned, np.zeros(n, dtype=bool)


def _room(budget: float) -> float:
    """The latency room a merge may fill under `budget`.  Rounding can move
    a sum by far less than the slack or the core's margin, and the cap
    keeps the LP bound's arithmetic finite under any budget."""
    return min(budget + 1e-9 * (1.0 + budget), sys.float_info.max)


def solve_budgets(
    problem: PruningProblem, budgets, *, mode: str = "branch_and_bound",
    time_limit: float = 60.0, tolerance: float = 0.0,
) -> list[PruningSolution]:
    """Solve `problem` under each of `budgets`, one solution per budget in
    their order, each equal to ``solve(assemble(..., b), **settings)`` apart
    from its wall time.  `mode` is ``exhaustive``, ``branch_and_bound`` or
    ``heuristic_only``; `time_limit` is in seconds, and `tolerance` is the
    absolute optimality gap accepted.  The settings are checked first, then
    every budget as ``assemble`` checks one, before any is solved; mode
    ``exhaustive`` then runs ``solve_exhaustive`` per budget.

    The other modes seed each budget by rounding the root LP optimum, which
    sets its importance floor, and then merge the frontiers of
    ``problem.core`` for all the budgets that need a merge in one pass, side
    by side (``_pareto_dp``), so the merge's per-stage fixed cost is paid
    once for the whole list.  A budget's answer, the better of its seed and
    its leaf by importance and then ``tie_key``, goes through ``_solution``
    and its one recheck.  It is proven optimal within `tolerance`,
    with bound the largest pruned bound (at least the importance), or, when
    the time limit ends the merge first, feasible with the root LP bound.
    ``node_count`` is the number of partial plans kept, summed over stages.
    In mode ``heuristic_only`` the answer is the seed with the root LP
    bound; the merge runs only when the rounding finds no plan.

    The pass checks one deadline, ``len(budgets) * time_limit``
    seconds after the call starts; a budget whose merge is still open then
    reports as a timed-out solve does.  Each solution's ``wall_time`` runs
    from the call's start to its report.
    """
    if mode not in ("exhaustive", "branch_and_bound", "heuristic_only"):
        raise ValidationError(f"unknown solver mode {mode!r}")
    if not time_limit > 0:  # NaN fails every comparison
        raise ValidationError(f"time_limit must be positive, got {time_limit!r}")
    if not tolerance >= 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tolerance!r}")
    budgets = [checked_budget(b) for b in budgets]
    if mode == "exhaustive":
        return [solve_exhaustive(PruningProblem(problem.arch, problem.vectors, problem.tables, b))
                for b in budgets]
    if not budgets:
        return []
    start = time.perf_counter()
    deadline = start + len(budgets) * time_limit
    heuristic = mode == "heuristic_only"
    margin, frontiers, bound = problem.core
    rooms = [_room(b) for b in budgets]
    seeds = [None if bound.base_lat[0] > room else _lp_rounding(b, frontiers, bound)
             for b, room in zip(budgets, rooms)]
    merged = [j for j, (room, seed) in enumerate(zip(rooms, seeds))
              if bound.base_lat[0] <= room and not (heuristic and seed)]
    merge = {}  # budget index -> (leaf, node count, largest pruned bound, timed out)
    if merged:
        floor = np.array([_NEG_INF if seeds[j] is None else seeds[j][0] for j in merged])
        room = np.array([rooms[j] for j in merged])
        limit = np.array([min(budgets[j], rooms[j]) for j in merged])
        results = _pareto_dp(problem.models, frontiers, bound, floor, tolerance,
                             deadline, margin, room, limit)
        merge = {j: (leaf, int(nodes), float(pruned), bool(timed_out))
                 for j, leaf, nodes, pruned, timed_out in zip(merged, *results)}

    solutions = []
    for j, budget in enumerate(budgets):
        if bound.base_lat[0] > rooms[j]:
            solutions.append(_solution(
                problem, budget, start, "infeasible", 0,
                message="optimistic minimum latency already exceeds the budget"))
            continue
        plans = [] if seeds[j] is None else [seeds[j]]  # (importance, latency, point per block)
        leaf, nodes, pruned, timed_out = merge.get(j, (None, 0, _NEG_INF, False))
        if leaf is not None:
            plans.append(leaf)
        if not plans:
            message = ("time limit reached before feasibility could be decided" if timed_out
                       else "no state satisfies the latency budget")
            solutions.append(_solution(problem, budget, start, "infeasible", nodes,
                                       message=message))
            continue
        plan = min(((imp, lat, _plan(problem, frontiers, pts)) for imp, lat, pts in plans),
                   key=lambda p: (-p[0], problem.tie_key(p[2])))
        if heuristic or timed_out:
            root = float(bound(0, np.zeros(1), np.zeros(1), rooms[j])[0])
            message = "" if heuristic else (
                "time limit reached; reporting best incumbent and surviving bound")
            solutions.append(_solution(problem, budget, start, "feasible_heuristic", nodes,
                                       plan, max(plan[0], root), message))
        else:
            solutions.append(_solution(problem, budget, start, "optimal", nodes, plan,
                                       max(plan[0], pruned)))
    return solutions


def solve(problem: PruningProblem, **settings) -> PruningSolution:
    """Solve `problem`: the batch of one budget, with the settings
    (`mode`, `time_limit`, `tolerance`) of ``solve_budgets``."""
    return solve_budgets(problem, [problem.budget], **settings)[0]
