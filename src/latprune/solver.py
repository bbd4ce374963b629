"""Exact solvers for the budgeted pruning program.

The program maximizes total importance subject to total latency <= budget
over one-hot keep-count choices per dimension and keep/remove bits per
removable block.  Both contributions are additive over blocks and a removed
block contributes zero to each, so the search decomposes per block:

* a cnn_chain interior is a max-score path over the (layer, option) lattice,
  because each layer's latency couples only adjacent dimensions;
* a transformer interior iterates (emb, head) and maximizes the qk, v and
  mlp terms independently.

``dual_bound`` prices latency with a multiplier ``lam >= 0`` and sums the
per-block best responses, giving a cheap upper bound on the constrained
optimum for any ``lam``.  ``solve_branch_and_bound`` runs best-first search
over a fixed variable order (block bits first, then dimensions by descending
importance range), bounding nodes by the tightest of a small multiplier grid
fitted at the root, seeding incumbents with a greedy feasibility repair, and
re-verifying every reported solution with the canonical evaluation
functions.  ``solve_exhaustive`` enumerates the full state space and is the
ground-truth oracle for everything else.

The search is incremental.  A node fixes a prefix of the variable order, so
each block's responses are cached under the values of the variables it
reads within that prefix (``PruningProblem.read_positions``), all grid rows
at once; a child extends the parent's key by one value and re-prices only
the blocks its variable affects.  ``repair_heuristic`` likewise re-prices,
after each step, only the moves whose latency or loss that step changed.

Determinism: identical problem + config give identical solutions and node
counts.  The solver runs sequentially in the calling thread.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .arch import ArchitectureSpec, BlockSpec, subnetwork_count, validate_problem_shapes
from .errors import SolveError, ValidationError
from .importance import Assignment, ImportanceVector, objective_value
from .latency import TableSet, block_latency, constraint_value

EXHAUSTIVE_GUARD = 10**6
CHAINED_GUARD = 10**5

_NEG_INF = float("-inf")
_RELAX = object()  # sentinel: first-layer input choice not fixed yet


@dataclass(frozen=True)
class SolverConfig:
    mode: str = "branch_and_bound"  # exhaustive | branch_and_bound | heuristic_only
    time_limit: float = 60.0  # seconds
    lambda_iters: int = 64
    tolerance: float = 0.0  # absolute optimality gap accepted

    def validate(self) -> None:
        if self.mode not in ("exhaustive", "branch_and_bound", "heuristic_only"):
            raise ValidationError(f"unknown solver mode {self.mode!r}")
        if self.time_limit <= 0:
            raise ValidationError("time_limit must be positive")
        if self.lambda_iters < 1:
            raise ValidationError("lambda_iters must be >= 1")
        if self.tolerance < 0:
            raise ValidationError("tolerance must be nonnegative")


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


@dataclass(frozen=True)
class BlockResponse:
    score: float
    kappa: int
    choices: dict[str, int]


class _BlockModel:
    """Per-block arrays shared by the response, bound and enumeration code."""

    def __init__(
        self,
        arch: ArchitectureSpec,
        block: BlockSpec,
        vectors: dict[str, ImportanceVector],
        tables: TableSet,
    ) -> None:
        self.block = block
        self.index = block.id - 1
        self.dims = arch.block_dims(block)
        self.dim_ids = [d.id for d in self.dims]
        self.shape = tuple(d.option_count for d in self.dims)
        self.states = math.prod(self.shape)
        self.imp = [np.asarray(vectors[d.id].values, dtype=np.float64) for d in self.dims]
        self.zero_imp = [np.zeros_like(v) for v in self.imp]
        self.kind = block.kind
        if block.kind == "cnn_chain":
            self.conv = [
                tables.conv(block.id, layer).data
                for layer in range(1, len(self.dims) + 1)
            ]
            ref = arch.dim(block.input_ref)
            self.input_fixed = ref.role == "fixed_external"
            self.input_dim_id = None if self.input_fixed else ref.id
        else:
            self.qk = tables.part(block.id, "qk").data
            self.vproj = tables.part(block.id, "vproj").data
            self.mlp = tables.part(block.id, "mlp").data
            self.input_fixed = True
            self.input_dim_id = None

    # -- best responses -----------------------------------------------------

    def _masked(self, imp: list[np.ndarray], pos: int, fixed: dict[str, int]) -> np.ndarray:
        vec = imp[pos]
        j = fixed.get(self.dim_ids[pos])
        if j is None:
            return vec
        out = np.full_like(vec, _NEG_INF)
        out[j - 1] = vec[j - 1]
        return out

    def _interior_cnn(self, lam, fixed, input_choice, imp):
        table0 = self.conv[0]
        if input_choice is _RELAX:
            cost0 = table0.min(axis=0)
        else:
            cost0 = table0[input_choice - 1]
        f = self._masked(imp, 0, fixed) - lam * cost0
        backptr = []
        for i in range(1, len(self.dims)):
            scores = f[:, None] - lam * self.conv[i]
            arg = np.argmax(scores, axis=0)
            f = self._masked(imp, i, fixed) + scores[arg, np.arange(scores.shape[1])]
            backptr.append(arg)
        j = int(np.argmax(f))
        score = float(f[j])
        choices = [0] * len(self.dims)
        choices[-1] = j + 1
        for i in range(len(self.dims) - 1, 0, -1):
            j = int(backptr[i - 1][j])
            choices[i - 1] = j + 1
        return score, dict(zip(self.dim_ids, choices))

    def _interior_transformer(self, lam, fixed, imp):
        ie = self._masked(imp, 0, fixed)
        ih = self._masked(imp, 1, fixed)
        iq = self._masked(imp, 2, fixed)
        iv = self._masked(imp, 3, fixed)
        im = self._masked(imp, 4, fixed)
        q_scores = iq[None, None, :] - lam * self.qk
        q_arg = np.argmax(q_scores, axis=2)
        q_best = np.take_along_axis(q_scores, q_arg[:, :, None], axis=2)[:, :, 0]
        v_scores = iv[None, None, :] - lam * self.vproj
        v_arg = np.argmax(v_scores, axis=2)
        v_best = np.take_along_axis(v_scores, v_arg[:, :, None], axis=2)[:, :, 0]
        m_scores = im[None, :] - lam * self.mlp
        m_arg = np.argmax(m_scores, axis=1)
        m_best = m_scores[np.arange(m_scores.shape[0]), m_arg]
        total = ie[:, None] + ih[None, :] + q_best + v_best + m_best[:, None]
        flat = int(np.argmax(total))
        e, h = divmod(flat, total.shape[1])
        score = float(total[e, h])
        choices = {
            self.dim_ids[0]: e + 1,
            self.dim_ids[1]: h + 1,
            self.dim_ids[2]: int(q_arg[e, h]) + 1,
            self.dim_ids[3]: int(v_arg[e, h]) + 1,
            self.dim_ids[4]: int(m_arg[e]) + 1,
        }
        return score, choices

    def _removed_choices(self, fixed: dict[str, int]) -> dict[str, int]:
        return {d: fixed.get(d, 1) for d in self.dim_ids}

    def response(
        self,
        lam: float,
        fixed: dict[str, int] | None = None,
        kappa_fixed: int | None = None,
        input_choice=_RELAX,
        minimize_latency: bool = False,
    ) -> BlockResponse:
        """Maximize importance - lam * latency over this block's states.

        Removable blocks include the removed state (score 0) unless the bit
        is pinned; ties at zero keep the block.  With `minimize_latency` the
        importance terms are zeroed and lam acts as a pure latency weight,
        so -score is the block's minimum achievable latency.
        """
        fixed = fixed or {}
        imp = self.zero_imp if minimize_latency else self.imp
        if self.kind == "cnn_chain":
            if input_choice is _RELAX and self.input_fixed:
                input_choice = 1
            elif input_choice is _RELAX and self.input_dim_id in fixed:
                input_choice = fixed[self.input_dim_id]
            score, choices = self._interior_cnn(lam, fixed, input_choice, imp)
        else:
            score, choices = self._interior_transformer(lam, fixed, imp)

        if not self.block.removable or kappa_fixed == 1:
            return BlockResponse(score, 1, choices)
        if kappa_fixed == 0:
            return BlockResponse(0.0, 0, self._removed_choices(fixed))
        if score >= 0.0:
            return BlockResponse(score, 1, choices)
        return BlockResponse(0.0, 0, self._removed_choices(fixed))

    # -- exhaustive state tables ---------------------------------------------

    def state_tables(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(importance, latency | None, latency_by_input | None) per state.

        States enumerate the option grid in row-major order (first dimension
        most significant), with the removed state appended last for
        removable blocks.  Chains fed by another block's conv output get a
        2-D latency table indexed by (state, input option) instead of the
        flat vector.
        """
        grids = np.indices(self.shape)
        imp = np.zeros(self.shape)
        for i, vec in enumerate(self.imp):
            imp = imp + vec[grids[i]]
        imp_flat = imp.reshape(-1)

        lat_flat = None
        lat_by_input = None
        if self.kind == "transformer":
            lat = self.qk[grids[0], grids[1], grids[2]]
            lat = lat + self.vproj[grids[0], grids[1], grids[3]]
            lat = lat + self.mlp[grids[0], grids[4]]
            lat_flat = lat.reshape(-1)
        elif self.input_fixed:
            lat = self.conv[0][0][grids[0]]
            for i in range(1, len(self.dims)):
                lat = lat + self.conv[i][grids[i - 1], grids[i]]
            lat_flat = lat.reshape(-1)
        else:
            rows = []
            for a in range(self.conv[0].shape[0]):
                lat = self.conv[0][a][grids[0]]
                for i in range(1, len(self.dims)):
                    lat = lat + self.conv[i][grids[i - 1], grids[i]]
                rows.append(lat.reshape(-1))
            lat_by_input = np.stack(rows, axis=1)  # (states, input options)

        if self.block.removable:
            imp_flat = np.concatenate([imp_flat, [0.0]])
            if lat_flat is not None:
                lat_flat = np.concatenate([lat_flat, [0.0]])
            if lat_by_input is not None:
                zero = np.zeros((1, lat_by_input.shape[1]))
                lat_by_input = np.concatenate([lat_by_input, zero], axis=0)
        return imp_flat, lat_flat, lat_by_input

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

    Built by ``assemble``; read-only afterwards.
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

        # Branching order: block bits first, then dimensions by descending
        # importance range.
        self.imp_range = {
            d: float(np.max(vectors[d].values) - np.min(vectors[d].values))
            for d in self.dim_order
        }
        kappa_vars = [("kappa", b.id) for b in arch.blocks if b.removable]
        dim_pos = {d: i for i, d in enumerate(self.dim_order)}
        omega_vars = [
            ("omega", d)
            for d in sorted(self.dim_order, key=lambda d: (-self.imp_range[d], dim_pos[d]))
            if arch.dims[d].option_count > 1
        ]
        self.var_order: list[tuple[str, object]] = kappa_vars + omega_vars

        owner = {}
        for i, block in enumerate(arch.blocks):
            for d in block.dims:
                owner[d] = i
        self.affected: dict[tuple[str, object], tuple[int, ...]] = {}
        for var in self.var_order:
            kind, key = var
            if kind == "kappa":
                self.affected[var] = (key - 1,)
            else:
                touched = [owner[key]]
                for i, block in enumerate(arch.blocks):
                    if block.kind == "cnn_chain" and block.input_ref == key:
                        touched.append(i)
                self.affected[var] = tuple(sorted(set(touched)))

        # Positions in var_order of the variables each block's response reads.
        # Search nodes fix a prefix of var_order, so a block's values at its
        # fixed read positions identify its responses.
        self.read_positions: list[tuple[int, ...]] = [
            tuple(i for i, var in enumerate(self.var_order) if b in self.affected[var])
            for b in range(len(self.models))
        ]

        # Scale for the multiplier search window.
        per_block_max = []
        for model in self.models:
            best = sum(float(np.max(v)) for v in model.imp)
            per_block_max.append(max(0.0, best) if model.block.removable else best)
        self.importance_scale = max(sum(per_block_max), 0.0)
        self.min_latency_step = _min_positive_step(tables)

    def kappa_blocks(self) -> list[BlockSpec]:
        return [b for b in self.arch.blocks if b.removable]

    def full_assignment(self, values: dict[tuple[str, object], int]) -> Assignment:
        omega = {}
        kappa = {}
        for block in self.arch.blocks:
            if block.removable:
                kappa[block.id] = values[("kappa", block.id)]
        for d in self.dim_order:
            dim = self.arch.dims[d]
            if dim.option_count == 1:
                omega[d] = 1
            else:
                omega[d] = values[("omega", d)]
        return Assignment(omega=omega, kappa=kappa)

    def tie_key(self, assignment: Assignment):
        """Kept blocks sort first, then option indices ascending."""
        kappa_part = tuple(
            1 - assignment.kappa_of(b) for b in self.arch.blocks if b.removable
        )
        omega_part = tuple(assignment.omega[d] for d in self.dim_order)
        return kappa_part + omega_part


def _min_positive_step(tables: TableSet) -> float:
    best = math.inf
    for table in tables:
        for axis in range(table.data.ndim):
            diffs = np.abs(np.diff(table.data, axis=axis))
            positive = diffs[diffs > 0]
            if positive.size:
                best = min(best, float(positive.min()))
    if not math.isfinite(best):
        for table in tables:
            positive = table.data[table.data > 0]
            if positive.size:
                best = min(best if math.isfinite(best) else math.inf, float(positive.min()))
    return best if math.isfinite(best) and best > 0 else 1.0


def assemble(
    arch: ArchitectureSpec,
    vectors: dict[str, ImportanceVector],
    tables: TableSet,
    budget: float,
) -> PruningProblem:
    """Validate shapes and freeze a problem instance."""
    if not isinstance(budget, (int, float)) or math.isnan(budget) or budget <= 0:
        raise ValidationError(f"budget must be positive, got {budget!r}")
    validate_problem_shapes(arch, tables, vectors)
    return PruningProblem(arch, vectors, tables, float(budget))


def block_best_response(
    arch: ArchitectureSpec,
    block: BlockSpec,
    lam: float,
    vectors: dict[str, ImportanceVector],
    tables: TableSet,
    fixed: dict[str, int] | None = None,
    kappa_fixed: int | None = None,
    input_choice: int | None = None,
) -> tuple[float, BlockResponse]:
    """Best importance - lam * latency over one block's states.

    `input_choice` pins a chain's first-layer input option; leaving it unset
    uses option 1 for a fixed_external feed and an optimistic per-column
    minimum for an unpinned foreign feed (bound mode).
    """
    if lam < 0:
        raise ValidationError("multiplier must be nonnegative")
    model = _BlockModel(arch, block, vectors, tables)
    resp = model.response(
        lam,
        fixed=fixed,
        kappa_fixed=kappa_fixed,
        input_choice=_RELAX if input_choice is None else input_choice,
    )
    return resp.score, resp


def dual_bound(
    problem: PruningProblem,
    lam: float,
    fixed: dict | None = None,
    threads: int = 1,
) -> float:
    """Upper bound on the constrained optimum for any lam >= 0.

    `threads` is ignored: the solver is sequential.  It stays so that
    existing callers keep working.
    """
    if lam < 0:
        raise ValidationError("multiplier must be nonnegative")
    omega_fixed = {}
    kappa_fixed = {}
    for (kind, key), value in (fixed or {}).items():
        if kind == "kappa":
            kappa_fixed[key] = value
        else:
            omega_fixed[key] = value
    total = 0.0
    for model in problem.models:
        total += model.response(
            lam, fixed=omega_fixed, kappa_fixed=kappa_fixed.get(model.block.id)
        ).score
    if lam == 0.0:
        return total
    return total + lam * problem.budget


def _golden_section_min(fn, lo: float, hi: float, iters: int) -> float:
    """Deterministic golden-section minimizer for a convex function."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max(0, iters - 2)):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return c if fc <= fd else d


def _fit_multiplier(problem: PruningProblem, iters: int) -> float:
    """The root multiplier: golden-section minimizer of ``dual_bound`` over
    [0, lam_max].  0.0 for an infinite budget, where latency costs nothing."""
    if not math.isfinite(problem.budget):
        return 0.0
    lam_max = max(problem.importance_scale / problem.min_latency_step, 1.0)
    return _golden_section_min(lambda lam: dual_bound(problem, lam), 0.0, lam_max, iters)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------


def solve_exhaustive(problem: PruningProblem) -> PruningSolution:
    """Enumerate every state and return the max-importance feasible one.

    Ties break toward kept blocks first, then ascending option indices.
    Guarded at {guard} states ({chained} when chains are fed by another
    block's conv output, which forces elementwise enumeration).
    """
    start = time.perf_counter()
    count = subnetwork_count(problem.arch)
    if count > EXHAUSTIVE_GUARD:
        raise SolveError(
            f"state space has {count} states, above the exhaustive guard "
            f"of {EXHAUSTIVE_GUARD}"
        )
    chained = any(
        m.kind == "cnn_chain" and not m.input_fixed for m in problem.models
    )
    if chained and count > CHAINED_GUARD:
        raise SolveError(
            f"state space has {count} states, above the {CHAINED_GUARD} guard "
            f"for chained-input enumeration"
        )

    if chained:
        best_state = _enumerate_chained(problem)
    else:
        best_state = _enumerate_separable(problem)

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


solve_exhaustive.__doc__ = solve_exhaustive.__doc__.format(
    guard=EXHAUSTIVE_GUARD, chained=CHAINED_GUARD
)


def _assignment_from_states(problem, states: tuple[int, ...]) -> Assignment:
    omega = {}
    kappa = {}
    for model, state in zip(problem.models, states):
        k, choices = model.decode_state(state)
        omega.update(choices)
        if model.block.removable:
            kappa[model.block.id] = k
    return Assignment(omega=omega, kappa=kappa)


def _state_tie_key(problem, states: tuple[int, ...]):
    return problem.tie_key(_assignment_from_states(problem, states))


def _enumerate_separable(problem: PruningProblem) -> tuple[int, ...] | None:
    imp_total = None
    lat_total = None
    sizes = []
    for model in problem.models:
        imp, lat, _ = model.state_tables()
        sizes.append(imp.shape[0])
        if imp_total is None:
            imp_total, lat_total = imp, lat
        else:
            imp_total = np.add.outer(imp_total, imp).reshape(-1)
            lat_total = np.add.outer(lat_total, lat).reshape(-1)

    feasible = lat_total <= problem.budget
    if not feasible.any():
        return None
    best = np.max(np.where(feasible, imp_total, _NEG_INF))
    candidates = np.flatnonzero(feasible & (imp_total == best))

    def decode(flat: int) -> tuple[int, ...]:
        states = []
        for size in reversed(sizes):
            flat, s = divmod(flat, size)
            states.append(s)
        return tuple(reversed(states))

    return min((decode(int(c)) for c in candidates), key=lambda s: _state_tie_key(problem, s))


def _enumerate_chained(problem: PruningProblem) -> tuple[int, ...] | None:
    models = problem.models
    data = []
    for model in models:
        imp, lat, lat_by_input = model.state_tables()
        dim_options = None
        producer_pos = None
        if model.kind == "cnn_chain" and not model.input_fixed:
            owner = problem.arch.owner_block(model.input_dim_id)
            producer_pos = owner.id - 1
            dim_options = models[producer_pos].option_of_dim(model.input_dim_id)
        data.append((imp, lat, lat_by_input, producer_pos, dim_options))

    best_imp = _NEG_INF
    best_states = None
    best_key = None
    for states in itertools.product(*(range(d[0].shape[0]) for d in data)):
        imp = 0.0
        lat = 0.0
        for pos, (s, (imp_arr, lat_arr, lat_in, producer, producer_options)) in enumerate(
            zip(states, data)
        ):
            imp += float(imp_arr[s])
            if lat_arr is not None:
                lat += float(lat_arr[s])
            else:
                in_choice = int(producer_options[states[producer]])
                lat += float(lat_in[s, in_choice - 1])
        if lat > problem.budget:
            continue
        if imp > best_imp:
            best_imp, best_states, best_key = imp, states, None
        elif imp == best_imp and best_states is not None:
            if best_key is None:
                best_key = _state_tie_key(problem, best_states)
            key = _state_tie_key(problem, states)
            if key < best_key:
                best_states, best_key = states, key
    return best_states


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
        if block.kind == "cnn_chain" and block.input_ref in readers:
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
        if block.kind == "cnn_chain" and block.input_ref in dim_pos:
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
# Branch and bound
# ---------------------------------------------------------------------------


class _Search:
    def __init__(self, problem: PruningProblem):
        self.problem = problem
        self.n_vars = len(problem.var_order)
        self.budget = problem.budget
        self.incumbent: Assignment | None = None
        self.incumbent_value = _NEG_INF
        self.incumbent_key = None
        self.response_cache: dict = {}
        self.lambda_grid: list[float] = [0.0]
        self.lam_psi: list[float] = [0.0]
        self.best_lambda_index = 0

        # Per branching position: the domain, the position of the owning
        # block's removal bit for choices that removal makes moot, and for
        # each block the variable affects, the read positions fixed above it.
        self.domains: list[tuple[int, ...]] = []
        self.removed_by: list[int | None] = []
        self.parent_reads: list[tuple[tuple[int, tuple[int, ...]], ...]] = []
        kappa_pos = {
            key: i for i, (kind, key) in enumerate(problem.var_order) if kind == "kappa"
        }
        for depth, var in enumerate(problem.var_order):
            kind, key = var
            if kind == "kappa":
                self.domains.append((1, 0))
                self.removed_by.append(None)
            else:
                self.domains.append(tuple(range(1, problem.arch.dims[key].option_count + 1)))
                self.removed_by.append(kappa_pos.get(problem.arch.owner_block(key).id))
            self.parent_reads.append(tuple(
                (b, tuple(p for p in problem.read_positions[b] if p < depth))
                for b in problem.affected[var]
            ))

    # -- responses with caching ----------------------------------------------

    def rows(self, b: int, key: tuple[int, ...]) -> tuple[BlockResponse, ...]:
        """Block b's responses at every grid multiplier, then its min-latency
        row, with its first len(key) read variables fixed to key."""
        rows = self.response_cache.get((b, key))
        if rows is None:
            problem = self.problem
            model = problem.models[b]
            omega_fixed = {}
            kappa_fixed = None
            for p, value in zip(problem.read_positions[b], key):
                kind, var_key = problem.var_order[p]
                if kind == "kappa":
                    kappa_fixed = value
                else:
                    omega_fixed[var_key] = value
            rows = tuple(
                model.response(lam, fixed=omega_fixed, kappa_fixed=kappa_fixed)
                for lam in self.lambda_grid
            ) + (
                model.response(
                    1.0, fixed=omega_fixed, kappa_fixed=kappa_fixed, minimize_latency=True
                ),
            )
            self.response_cache[(b, key)] = rows
        return rows

    def key_of(self, b: int, values: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(values[p] for p in self.problem.read_positions[b] if p < len(values))

    def bound_of(self, sums: tuple[float, ...]) -> float:
        return min(s + p for s, p in zip(sums, self.lam_psi))

    # -- incumbents ------------------------------------------------------------

    def try_incumbent(self, assignment: Assignment | None) -> None:
        if assignment is None:
            return
        latency = constraint_value(assignment, self.problem.tables, self.problem.arch)
        if latency > self.budget:
            return
        value = objective_value(assignment, self.problem.vectors, self.problem.arch)
        if value > self.incumbent_value:
            self.incumbent, self.incumbent_value = assignment, value
            self.incumbent_key = self.problem.tie_key(assignment)
        elif value == self.incumbent_value and self.incumbent is not None:
            key = self.problem.tie_key(assignment)
            if key < self.incumbent_key:
                self.incumbent, self.incumbent_key = assignment, key

    def lagrangian_assignment(self, g: int, values: tuple[int, ...]) -> Assignment:
        omega = {}
        kappa = {}
        for b, model in enumerate(self.problem.models):
            resp = self.rows(b, self.key_of(b, values))[g]
            omega.update(resp.choices)
            if model.block.removable:
                kappa[model.block.id] = resp.kappa
        for d in self.problem.dim_order:
            omega.setdefault(d, 1)
        asg = Assignment(omega=omega, kappa=kappa)
        for block in self.problem.arch.blocks:
            if asg.kappa_of(block) == 0:
                for d in block.dims:
                    asg.omega[d] = 1
        return asg


def solve_branch_and_bound(
    problem: PruningProblem, config: SolverConfig | None = None
) -> PruningSolution:
    """Best-first branch and bound with per-block Lagrangian bounds.

    Returns a proven-optimal solution within ``config.tolerance``, or the
    best feasible one with its surviving bound when the time limit ends the
    search first.
    """
    config = config or SolverConfig()
    config.validate()
    start = time.perf_counter()
    deadline = start + config.time_limit
    search = _Search(problem)

    # Quick infeasibility check: an optimistic lower bound on achievable
    # latency already above the budget settles the instance.
    feas_margin = 1e-9 * (1.0 + (problem.budget if math.isfinite(problem.budget) else 0.0))
    root_min_lat = 0.0
    for model in problem.models:
        root_min_lat += -model.response(1.0, minimize_latency=True).score
    if root_min_lat > problem.budget + feas_margin:
        return PruningSolution(
            status="infeasible",
            assignment=None,
            importance=None,
            latency=None,
            bound=None,
            node_count=0,
            wall_time=time.perf_counter() - start,
            message="optimistic minimum latency already exceeds the budget",
        )

    # Multiplier grid fitted at the root; an infinite budget keeps lam 0 alone.
    lam_star = _fit_multiplier(problem, config.lambda_iters)
    if lam_star > 0.0:
        grid = sorted({0.0, 0.5 * lam_star, lam_star, 1.5 * lam_star, 2.0 * lam_star})
        search.lambda_grid = grid
        search.lam_psi = [lam * problem.budget for lam in grid]
    n_rows = len(search.lambda_grid)
    root_sums = []
    for g in range(n_rows):
        total = 0.0
        for b in range(len(problem.models)):
            total += search.rows(b, ())[g].score
        root_sums.append(total)
    root_sums = tuple(root_sums)
    search.best_lambda_index = min(
        range(len(search.lambda_grid)),
        key=lambda g: root_sums[g] + search.lam_psi[g],
    )

    # Seed incumbents: each grid multiplier's maximizer, then greedy repairs.
    for g in range(n_rows):
        search.try_incumbent(search.lagrangian_assignment(g, ()))
    max_assignment = Assignment(
        omega={d: problem.arch.dims[d].option_count for d in problem.dim_order},
        kappa={b.id: 1 for b in problem.kappa_blocks()},
    )
    search.try_incumbent(repair_heuristic(problem, max_assignment))
    best_g = search.best_lambda_index
    search.try_incumbent(
        repair_heuristic(problem, search.lagrangian_assignment(best_g, ()))
    )

    root_bound = search.bound_of(root_sums)
    heap: list = []
    seq = itertools.count()
    heapq.heappush(heap, (-root_bound, next(seq), 0, (), root_sums, root_min_lat))
    node_count = 0
    top_bound = root_bound
    timed_out = False

    def threshold() -> float:
        margin = 1e-9 * (1.0 + abs(search.incumbent_value))
        return search.incumbent_value + config.tolerance - margin

    while heap:
        neg_bound, _, depth, values, sums, min_lat = heapq.heappop(heap)
        bound = -neg_bound
        top_bound = bound
        node_count += 1
        if bound <= threshold():
            break
        if time.perf_counter() > deadline:
            timed_out = True
            break

        # Skip choices of blocks already removed: they change nothing.  Block
        # bits come first in var_order, so the bit is fixed by now.
        while depth < search.n_vars:
            p = search.removed_by[depth]
            if p is None or values[p] != 0:
                break
            values = values + (1,)
            depth += 1

        if depth == search.n_vars:
            search.try_incumbent(problem.full_assignment(dict(zip(problem.var_order, values))))
            continue

        if node_count % 64 == 0:
            search.try_incumbent(
                search.lagrangian_assignment(search.best_lambda_index, values)
            )

        # Only the blocks this variable affects change; each child's key
        # extends the parent's by the new value.
        parent_keys = [
            (b, tuple(values[p] for p in reads)) for b, reads in search.parent_reads[depth]
        ]
        parent_rows = [search.rows(b, key) for b, key in parent_keys]
        for value in search.domains[depth]:
            child_rows = [search.rows(b, key + (value,)) for b, key in parent_keys]
            child_sums = []
            for g in range(n_rows):
                s = sums[g]
                for parent, child in zip(parent_rows, child_rows):
                    s = s - parent[g].score
                    s = s + child[g].score
                child_sums.append(s)
            child_min_lat = min_lat
            for parent, child in zip(parent_rows, child_rows):
                child_min_lat = child_min_lat - (-parent[-1].score)
                child_min_lat = child_min_lat + (-child[-1].score)
            if child_min_lat > problem.budget + feas_margin:
                continue
            child_bound = search.bound_of(child_sums)
            if child_bound <= threshold():
                continue
            child_values = values + (value,)
            if depth + 1 == search.n_vars:
                search.try_incumbent(
                    problem.full_assignment(dict(zip(problem.var_order, child_values)))
                )
            else:
                heapq.heappush(
                    heap,
                    (
                        -child_bound,
                        next(seq),
                        depth + 1,
                        child_values,
                        tuple(child_sums),
                        child_min_lat,
                    ),
                )

    wall = time.perf_counter() - start
    if search.incumbent is None:
        message = (
            "time limit reached before feasibility could be decided"
            if timed_out
            else "no state satisfies the latency budget"
        )
        return PruningSolution(
            status="infeasible",
            assignment=None,
            importance=None,
            latency=None,
            bound=None,
            node_count=node_count,
            wall_time=wall,
            message=message,
        )

    importance = search.incumbent_value
    latency = constraint_value(search.incumbent, problem.tables, problem.arch)
    if latency > problem.budget:
        raise SolveError("internal error: incumbent fails the latency recheck")
    bound = max(importance, top_bound) if (timed_out or heap) else importance
    if timed_out:
        status = "feasible_heuristic"
        message = "time limit reached; reporting best incumbent and surviving bound"
    else:
        status = "optimal"
        message = ""
    return PruningSolution(
        status=status,
        assignment=search.incumbent,
        importance=importance,
        latency=latency,
        bound=bound,
        node_count=node_count,
        wall_time=wall,
        message=message,
    )


def solve_heuristic(problem: PruningProblem, config: SolverConfig) -> PruningSolution:
    """Greedy repair from the dense assignment, bounded by the root dual."""
    start = time.perf_counter()
    lam_star = _fit_multiplier(problem, config.lambda_iters)
    bound = min(dual_bound(problem, 0.0), dual_bound(problem, lam_star))
    dense = Assignment(
        omega={d: problem.arch.dims[d].option_count for d in problem.dim_order},
        kappa={b.id: 1 for b in problem.kappa_blocks()},
    )
    repaired = repair_heuristic(problem, dense)
    wall = time.perf_counter() - start
    if repaired is None:
        return PruningSolution(
            status="infeasible",
            assignment=None,
            importance=None,
            latency=None,
            bound=None,
            node_count=0,
            wall_time=wall,
            message="greedy repair found no feasible point; feasibility undecided",
        )
    importance = objective_value(repaired, problem.vectors, problem.arch)
    latency = constraint_value(repaired, problem.tables, problem.arch)
    return PruningSolution(
        status="feasible_heuristic",
        assignment=repaired,
        importance=importance,
        latency=latency,
        bound=max(bound, importance),
        node_count=0,
        wall_time=wall,
    )


def solve(problem: PruningProblem, config: SolverConfig | None = None) -> PruningSolution:
    config = config or SolverConfig()
    config.validate()
    if config.mode == "exhaustive":
        return solve_exhaustive(problem)
    if config.mode == "heuristic_only":
        return solve_heuristic(problem, config)
    return solve_branch_and_bound(problem, config)
