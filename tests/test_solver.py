import itertools
import math

import numpy as np
import pytest

from latprune import (
    Assignment,
    LatencyTable,
    SolveError,
    SolverConfig,
    TableSet,
    ValidationError,
    assemble,
    build_all_vectors,
    build_importance_vector,
    constraint_value,
    objective_value,
    repair_heuristic,
    solve,
    solve_branch_and_bound,
    solve_exhaustive,
    subnetwork_count,
)
from latprune.importance import RawScores
from latprune.solver import _frontiers

from conftest import (
    BlockSpec,
    conv_dim,
    dense_assignment,
    integer_problem,
    make_arch,
    pick_budget,
    random_architecture,
    random_problem,
    random_scores,
    random_tables,
    trunk_dim,
    vit_b12_problem,
)


def one_dim_problem(importances, latencies, budget, removable=False):
    """1 block, 1 conv dim with the given per-option importance/latency."""
    from latprune import ImportanceVector

    n = len(importances)
    dims = [trunk_dim("t"), conv_dim("c1", n)]
    blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=removable, input_ref="t")]
    arch = make_arch(dims, blocks)
    vectors = {
        "t": ImportanceVector(dim_id="t", values=np.zeros(1)),
        "c1": ImportanceVector(dim_id="c1", values=np.asarray(importances, dtype=float)),
    }
    tables = TableSet()
    tables.add(
        LatencyTable(
            block_id=1, part="conv_layer", layer=1, axes=("t", "c1"),
            data=np.asarray([latencies], dtype=float),
        )
    )
    return assemble(arch, vectors, tables, budget), None


def brute_force_block(arch, block, lam, vectors, tables, input_choice=None):
    """Independent per-block best response by full enumeration."""
    dims = arch.block_dims(block)
    best = None
    for combo in itertools.product(*(range(1, d.option_count + 1) for d in dims)):
        asg = Assignment(omega=dict(zip((d.id for d in dims), combo)))
        if block.kind == "cnn_chain":
            ref = arch.dim(block.input_ref)
            if ref.role != "fixed_external":
                asg.omega[ref.id] = input_choice
        from latprune.latency import block_latency

        lat = block_latency(asg, tables, arch, block)
        imp = sum(float(vectors[d.id].values[j - 1]) for d, j in zip(dims, combo))
        score = imp - lam * lat
        if best is None or score > best:
            best = score
    if block.removable:
        best = max(best, 0.0)
    return best


class TestExhaustive:
    def test_only_feasible_state(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=1.5)
        sol = solve_exhaustive(problem)
        assert sol.status == "optimal"
        assert sol.assignment.omega["c1"] == 1
        assert sol.importance == pytest.approx(1.0)

    def test_larger_budget_takes_better_option(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=2.0)
        sol = solve_exhaustive(problem)
        assert sol.assignment.omega["c1"] == 2
        assert sol.importance == pytest.approx(3.0)

    def test_removal_is_only_feasible_state(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=0.5, removable=True)
        sol = solve_exhaustive(problem)
        assert sol.status == "optimal"
        assert sol.assignment.kappa[1] == 0
        assert sol.importance == 0.0
        assert sol.latency == 0.0

    def test_infeasible(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=0.5)
        sol = solve_exhaustive(problem)
        assert sol.status == "infeasible"
        assert sol.assignment is None

    def test_guard_on_state_count(self):
        dims = [trunk_dim("t")] + [conv_dim(f"c{i}", 40) for i in range(1, 6)]
        blocks = [
            BlockSpec(
                id=1, kind="cnn_chain", dims=tuple(f"c{i}" for i in range(1, 6)),
                removable=False, input_ref="t",
            )
        ]
        arch = make_arch(dims, blocks)
        rng = np.random.default_rng(0)
        vectors = build_all_vectors(arch, random_scores(arch, rng))
        tables = random_tables(arch, rng)
        problem = assemble(arch, vectors, tables, 1.0)
        with pytest.raises(SolveError, match="guard"):
            solve_exhaustive(problem)

    def test_chained_instance_above_a_hundred_thousand_states(self):
        # 36 * 126 * 126 = 571,536 states: a permanent producer whose first
        # and second layers feed one removable chain each.
        producer = [conv_dim(f"p{i}", 6) for i in (1, 2)]
        chains = [[conv_dim(f"{c}{i}", 5) for i in (1, 2, 3)] for c in "ab"]
        blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("p1", "p2"), removable=False,
                            input_ref="t")]
        for b, (layers, ref) in enumerate(zip(chains, ("p1", "p2")), start=2):
            blocks.append(BlockSpec(id=b, kind="cnn_chain", dims=tuple(d.id for d in layers),
                                    removable=True, input_ref=ref))
        arch = make_arch([trunk_dim("t"), *producer, *chains[0], *chains[1]], blocks)
        assert subnetwork_count(arch) == 571_536
        problem = integer_problem(np.random.default_rng(11), arch)
        dense = constraint_value(dense_assignment(arch), problem.tables, arch)
        problem = problem.with_budget(dense / 2)
        oracle = solve_exhaustive(problem)
        sol = solve_branch_and_bound(problem)
        assert oracle.status == sol.status == "optimal"
        assert sol.importance == oracle.importance
        assert sol.assignment == oracle.assignment
        assert problem.tie_key(sol.assignment) == problem.tie_key(oracle.assignment)

    def test_architecture_without_blocks_is_an_empty_optimal_plan(self):
        from latprune import ImportanceVector

        arch = make_arch([trunk_dim("t")], [])
        vectors = {"t": ImportanceVector(dim_id="t", values=np.zeros(1))}
        problem = assemble(arch, vectors, TableSet(), 1.0)
        for solver in (solve_exhaustive, solve_branch_and_bound):
            sol = solver(problem)
            assert sol.status == "optimal"
            assert sol.assignment == Assignment(omega={}, kappa={})
            assert sol.importance == sol.latency == 0.0

    def test_tie_break_prefers_kept_blocks_then_low_options(self):
        # Two states tie at importance 0: keep with option 1 vs remove.
        problem, _ = one_dim_problem([0.0, 0.0], [1.0, 2.0], budget=5.0, removable=True)
        sol = solve_exhaustive(problem)
        assert sol.assignment.kappa[1] == 1
        assert sol.assignment.omega["c1"] == 1


def frontier_best_response(problem, k, lam):
    """Best importance - lam * latency over block k's frontier points, with
    a chain's first-layer input at option 1, and whether that point keeps
    the block.  The DP's Lagrangian pre-cut maximizes the same score."""
    front = _frontiers(problem.models, 1e-9)[k]
    pts, n = front.points, int(front.sizes[0])
    scores = pts.imp[:n] - lam * pts.lat[:n]
    best = int(np.argmax(scores))
    return float(scores[best]), not pts.removed[best]


class TestBlockBestResponse:
    def test_lambda_zero_takes_max_importance(self):
        rng = np.random.default_rng(50)
        problem, _ = random_problem(rng)
        vectors = problem.vectors
        for k, block in enumerate(problem.arch.blocks):
            score, kept = frontier_best_response(problem, k, 0.0)
            want = sum(float(np.max(vectors[d].values)) for d in block.dims)
            assert score == pytest.approx(want, rel=1e-12)
            assert kept

    def test_huge_lambda_removes_removable_blocks(self):
        rng = np.random.default_rng(51)
        removable = []
        while not removable:
            arch = random_architecture(rng)
            removable = [k for k, b in enumerate(arch.blocks) if b.removable]
        vectors = build_all_vectors(arch, random_scores(arch, rng))
        tables = random_tables(arch, rng, scale=1.0)
        problem = assemble(arch, vectors, tables, 1.0)
        for k in removable:
            score, kept = frontier_best_response(problem, k, 1e9)
            assert not kept
            assert score == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_block_brute_force(self, seed):
        rng = np.random.default_rng(2000 + seed)
        arch = random_architecture(rng, state_cap=3000, chained_cap=3000)
        vectors = build_all_vectors(arch, random_scores(arch, rng, signed=bool(seed % 2)))
        tables = random_tables(arch, rng)
        problem = assemble(arch, vectors, tables, 1.0)
        for k, block in enumerate(arch.blocks):
            for lam in (0.0, 0.3, 1.7, 10.0):
                score, _ = frontier_best_response(problem, k, lam)
                want = brute_force_block(arch, block, lam, vectors, tables, input_choice=1)
                assert score == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestDualBound:
    """``heuristic_only`` reports the root LP bound of the frontier hulls,
    which for a multiple-choice knapsack is the best Lagrangian dual bound."""

    def test_no_relaxation_gap_when_unconstrained_max_fits(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=100.0)
        sol = solve(problem, SolverConfig(mode="heuristic_only"))
        assert sol.status == "feasible_heuristic"
        assert sol.bound == sol.importance == 3.0

    @pytest.mark.parametrize("seed", range(25))
    def test_bound_dominates_exhaustive_optimum(self, seed):
        rng = np.random.default_rng(3000 + seed)
        problem, _ = random_problem(rng, state_cap=3000, chained_cap=3000)
        oracle = solve_exhaustive(problem)
        sol = solve(problem, SolverConfig(mode="heuristic_only"))
        if oracle.status == "infeasible":
            assert sol.status == "infeasible"
            return
        assert sol.status == "feasible_heuristic"
        assert constraint_value(sol.assignment, problem.tables, problem.arch) == sol.latency
        assert objective_value(sol.assignment, problem.vectors, problem.arch) == sol.importance
        assert sol.latency <= problem.budget
        assert sol.importance <= oracle.importance
        assert sol.bound >= oracle.importance - 1e-9 * (1.0 + abs(oracle.importance))

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("signed", [False, True])
    def test_at_least_the_dense_start_repair(self, seed, signed):
        rng = np.random.default_rng(3100 + seed)
        problem, _ = random_problem(rng, signed_scores=signed)
        repaired = repair_heuristic(problem, dense_assignment(problem.arch))
        if repaired is None:
            return
        sol = solve(problem, SolverConfig(mode="heuristic_only"))
        assert sol.status == "feasible_heuristic"
        assert sol.importance >= objective_value(repaired, problem.vectors, problem.arch)


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive(self, seed):
        rng = np.random.default_rng(4000 + seed)
        problem, _ = random_problem(rng, signed_scores=bool(seed % 3 == 0))
        oracle = solve_exhaustive(problem)
        sol = solve_branch_and_bound(problem)
        assert sol.status in ("optimal", "infeasible")
        assert sol.status == oracle.status
        if sol.status == "optimal":
            assert sol.importance == oracle.importance
            assert sol.latency <= problem.budget
            assert sol.assignment == oracle.assignment

    def test_unbounded_budget_takes_every_max_option(self):
        rng = np.random.default_rng(70)
        problem, _ = random_problem(rng, budget=float("inf"))
        sol = solve_branch_and_bound(problem)
        assert sol.status == "optimal"
        arch = problem.arch
        for block in arch.blocks:
            assert sol.assignment.kappa_of(block) == 1
            for d in block.dims:
                assert sol.assignment.omega[d] == arch.dims[d].option_count

    def test_deterministic_repeat_runs(self):
        rng = np.random.default_rng(71)
        problem, _ = random_problem(rng)
        a = solve_branch_and_bound(problem, SolverConfig())
        b = solve_branch_and_bound(problem, SolverConfig())
        assert a.assignment == b.assignment
        assert a.node_count == b.node_count
        assert a.importance == b.importance

    def test_budget_monotonicity_small(self):
        rng = np.random.default_rng(73)
        problem, _ = random_problem(rng)
        budgets = np.linspace(
            0.2 * problem.budget + 1e-6, 3.0 * problem.budget, 8
        )
        last = -math.inf
        for budget in budgets:
            p = assemble(problem.arch, problem.vectors, problem.tables, float(budget))
            sol = solve_branch_and_bound(p)
            if sol.status == "infeasible":
                continue
            assert sol.importance >= last - 1e-12
            last = sol.importance

    def test_optimality_certificate(self):
        rng = np.random.default_rng(74)
        for _ in range(10):
            problem, _ = random_problem(rng)
            sol = solve_branch_and_bound(problem)
            if sol.status == "optimal":
                assert sol.importance <= sol.bound + 1e-9 * abs(sol.bound) + 1e-12

    def test_infeasible_instance(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=0.5)
        sol = solve_branch_and_bound(problem)
        assert sol.status == "infeasible"
        assert sol.assignment is None

    def test_time_limit_degrades_to_feasible_heuristic(self):
        rng = np.random.default_rng(75)
        problem, _ = random_problem(rng, budget=None)
        sol = solve_branch_and_bound(problem, SolverConfig(time_limit=1e-9))
        if sol.status == "infeasible":
            return  # budget drew below the feasible range; nothing to degrade
        assert sol.status in ("optimal", "feasible_heuristic")
        if sol.status == "feasible_heuristic":
            assert sol.latency <= problem.budget
            assert sol.bound >= sol.importance

    def test_positive_tolerance_keeps_gap_within_it(self):
        rng = np.random.default_rng(78)
        for _ in range(5):
            problem, _ = random_problem(rng)
            exact = solve_branch_and_bound(problem)
            loose = solve_branch_and_bound(problem, SolverConfig(tolerance=0.5))
            assert loose.status == exact.status
            if exact.status == "optimal":
                assert loose.bound - loose.importance <= 0.5 + 1e-9
                assert loose.importance >= exact.importance - 0.5 - 1e-9
                assert loose.latency <= problem.budget

    def test_vit_b12_data_seed_3_is_proved_optimal(self):
        # This instance once ran into the 60 s limit (feasible_heuristic).
        problem = vit_b12_problem(seed=3, budget_fraction=0.25)
        sol = solve_branch_and_bound(problem, SolverConfig(time_limit=30))
        assert sol.status == "optimal"
        assert constraint_value(sol.assignment, problem.tables, problem.arch) == sol.latency
        assert sol.latency <= problem.budget
        assert sol.bound == sol.importance

    def test_states_whose_totals_round_equal_tie_on_key(self):
        # Block 1's two options differ in importance by one ulp (0.3 and
        # 0.30000000000000004) at equal latency, but both totals round to
        # 1.3 once block 2 adds 1.0.  The totals tie, so option 1, earlier
        # in tie_key order, must win although its block subtotal is smaller.
        dims = [trunk_dim("t"), conv_dim("c1", 2), conv_dim("c2", 1)]
        blocks = [
            BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=False, input_ref="t"),
            BlockSpec(id=2, kind="cnn_chain", dims=("c2",), removable=False, input_ref="t"),
        ]
        arch = make_arch(dims, blocks)
        raw = {
            "t": RawScores(dim_id="t", scores=np.zeros(4)),
            "c1": RawScores(dim_id="c1", scores=np.array([0.3, 4e-17])),
            "c2": RawScores(dim_id="c2", scores=np.array([1.0])),
        }
        vectors = build_all_vectors(arch, raw)
        assert vectors["c1"].values[1] > vectors["c1"].values[0]
        tables = TableSet()
        tables.add(LatencyTable(block_id=1, part="conv_layer", layer=1, axes=("t", "c1"),
                                data=np.array([[1.0, 1.0]])))
        tables.add(LatencyTable(block_id=2, part="conv_layer", layer=1, axes=("t", "c2"),
                                data=np.array([[1.0]])))
        problem = assemble(arch, vectors, tables, 5.0)
        oracle = solve_exhaustive(problem)
        assert oracle.assignment.omega["c1"] == 1
        sol = solve_branch_and_bound(problem)
        assert sol.assignment == oracle.assignment
        assert sol.importance == oracle.importance == 1.3

    def test_argmax_invariant_under_power_of_two_score_scaling(self):
        rng = np.random.default_rng(76)
        checked = 0
        while checked < 5:
            arch = random_architecture(rng)
            raw = random_scores(arch, rng)
            tables = random_tables(arch, rng)
            base = assemble(arch, build_all_vectors(arch, raw), tables, 1.0)
            budget = pick_budget(arch, tables, rng)
            base = assemble(arch, base.vectors, tables, budget)
            ref = solve_exhaustive(base)
            if ref.status == "infeasible":
                continue
            scaled_raw = {
                d: RawScores(dim_id=d, scores=8.0 * r.scores) for d, r in raw.items()
            }
            scaled = assemble(arch, build_all_vectors(arch, scaled_raw), tables, budget)
            sol = solve_branch_and_bound(scaled)
            assert sol.assignment == ref.assignment
            assert sol.importance == 8.0 * ref.importance
            checked += 1


class TestRepair:
    def test_feasible_start_returned_unchanged(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=5.0)
        start = Assignment(omega={"c1": 2}, kappa={})
        out = repair_heuristic(problem, start)
        assert out.omega == start.omega

    def test_infeasible_problem_reports_failure(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=0.5)
        start = Assignment(omega={"c1": 2}, kappa={})
        assert repair_heuristic(problem, start) is None

    def test_greedy_ratio_hand_trace(self):
        # Two independent one-layer chains fed by the trunk.  From the dense
        # state, decrementing c2 saves 4 ms for 1 importance (ratio 0.25),
        # decrementing c1 saves 1 ms for 1 importance (ratio 1.0).  The c2
        # step alone lands exactly on the budget.
        dims = [trunk_dim("t"), conv_dim("c1", 2), conv_dim("c2", 2)]
        blocks = [
            BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=False, input_ref="t"),
            BlockSpec(id=2, kind="cnn_chain", dims=("c2",), removable=False, input_ref="t"),
        ]
        arch = make_arch(dims, blocks)
        raw = {
            "t": RawScores(dim_id="t", scores=np.zeros(4)),
            "c1": RawScores(dim_id="c1", scores=np.array([1.0, 1.0])),
            "c2": RawScores(dim_id="c2", scores=np.array([1.0, 1.0])),
        }
        vectors = build_all_vectors(arch, raw)
        tables = TableSet()
        tables.add(
            LatencyTable(block_id=1, part="conv_layer", layer=1, axes=("t", "c1"),
                         data=np.array([[1.0, 2.0]])),
        )
        tables.add(
            LatencyTable(block_id=2, part="conv_layer", layer=1, axes=("t", "c2"),
                         data=np.array([[1.0, 5.0]])),
        )
        problem = assemble(arch, vectors, tables, budget=3.0)
        out = repair_heuristic(problem, dense_assignment(arch))
        assert out.omega == {"c1": 2, "c2": 1}
        assert constraint_value(out, problem.tables, arch) == pytest.approx(3.0)

    def test_latency_never_increases(self):
        rng = np.random.default_rng(80)
        for _ in range(20):
            problem, _ = random_problem(rng)
            start = dense_assignment(problem.arch)
            lat = constraint_value(start, problem.tables, problem.arch)
            out = repair_heuristic(problem, start)
            if out is not None:
                end = constraint_value(out, problem.tables, problem.arch)
                assert end <= lat + 1e-12
                assert end <= problem.budget


class TestAssemble:
    def test_subnetwork_count_of_tiny_instance(self):
        dims = [trunk_dim("t"), conv_dim("c1", 2), conv_dim("c2", 3)]
        blocks = [
            BlockSpec(id=1, kind="cnn_chain", dims=("c1", "c2"), removable=True, input_ref="t")
        ]
        arch = make_arch(dims, blocks)
        rng = np.random.default_rng(0)
        vectors = build_all_vectors(arch, random_scores(arch, rng))
        tables = random_tables(arch, rng)
        problem = assemble(arch, vectors, tables, 1.0)
        assert subnetwork_count(problem.arch) == 7

    def test_nonpositive_budget_rejected(self):
        rng = np.random.default_rng(1)
        arch = random_architecture(rng)
        vectors = build_all_vectors(arch, random_scores(arch, rng))
        tables = random_tables(arch, rng)
        with pytest.raises(ValidationError, match="budget"):
            assemble(arch, vectors, tables, 0.0)
        with pytest.raises(ValidationError, match="budget"):
            assemble(arch, vectors, tables, -1.0)

    def test_shape_mismatch_propagates(self):
        rng = np.random.default_rng(2)
        arch = random_architecture(rng)
        vectors = build_all_vectors(arch, random_scores(arch, rng))
        other = random_architecture(np.random.default_rng(3))
        tables = random_tables(other, np.random.default_rng(3))
        with pytest.raises(ValidationError):
            assemble(arch, vectors, tables, 1.0)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("time_limit", float("nan")), ("time_limit", 0.0), ("tolerance", float("nan")),
         ("tolerance", -1.0)],
    )
    def test_invalid_field_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SolverConfig(**{field: value}).validate()


class TestSolveDispatcher:
    def test_modes(self):
        rng = np.random.default_rng(90)
        problem, _ = random_problem(rng, state_cap=2000, chained_cap=2000)
        ex = solve(problem, SolverConfig(mode="exhaustive"))
        bb = solve(problem, SolverConfig(mode="branch_and_bound"))
        he = solve(problem, SolverConfig(mode="heuristic_only"))
        assert ex.status == bb.status
        if ex.status == "optimal":
            assert bb.importance == ex.importance
            if he.status != "infeasible":
                assert he.importance <= ex.importance + 1e-12
                assert he.latency <= problem.budget

    def test_solutions_are_recheckable(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            problem, _ = random_problem(rng)
            sol = solve(problem, SolverConfig())
            if sol.status != "infeasible":
                lat = constraint_value(sol.assignment, problem.tables, problem.arch)
                imp = objective_value(sol.assignment, problem.vectors, problem.arch)
                assert lat == sol.latency
                assert imp == sol.importance
                assert lat <= problem.budget
