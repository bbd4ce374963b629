import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from latprune import (
    Assignment,
    LatencyModelParams,
    LatencyTable,
    SolveError,
    TableSet,
    ValidationError,
    assemble,
    build_all_vectors,
    constraint_value,
    objective_value,
    parse_architecture,
    solve,
    solve_budgets,
    solve_exhaustive,
    subnetwork_count,
    synth_lut,
    synth_scores,
)
from latprune import solver
from latprune.solver import _frontiers

from conftest import (
    BlockSpec,
    conv_dim,
    dense_assignment,
    dense_start_repair,
    integer_problem,
    make_arch,
    pick_budget,
    random_architecture,
    random_problem,
    random_scores,
    random_tables,
    resnet50_like_problem,
    trunk_dim,
    vit_b12_problem,
)

DATA = Path(__file__).parent.parent / "demos" / "data"


def one_dim_problem(importances, latencies, budget, removable=False):
    """1 block, 1 conv dim with the given per-option importance/latency."""
    from latprune import ImportanceVector

    n = len(importances)
    dims = [trunk_dim("t"), conv_dim("c1", n)]
    blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=removable, input_ref="t")]
    arch = make_arch(dims, blocks)
    vectors = {
        "t": ImportanceVector(values=np.zeros(1)),
        "c1": ImportanceVector(values=np.asarray(importances, dtype=float)),
    }
    tables = TableSet()
    tables.add(
        LatencyTable(
            block_id=1, part="conv_layer", layer=1, axes=("t", "c1"),
            data=np.asarray([latencies], dtype=float),
        )
    )
    return assemble(arch, vectors, tables, budget), None


# Three permanent one-layer chains with one option each: the one plan's
# latency, summed in block order as ``constraint_value`` sums it, is
# 0.7833333333333332, while 0.15 + (1/3 + 0.3) is 0.7833333333333333.
THREE_CHAIN_LATENCIES = (0.15, 1 / 3, 0.3)
THREE_CHAIN_BUDGET = 0.7833333333333332


def three_chain_problem(budget=THREE_CHAIN_BUDGET):
    dims = [trunk_dim("t")] + [conv_dim(f"c{i}", 1) for i in (1, 2, 3)]
    blocks = [
        BlockSpec(id=i, kind="cnn_chain", dims=(f"c{i}",), removable=False, input_ref="t")
        for i in (1, 2, 3)
    ]
    arch = make_arch(dims, blocks)
    raw = {"t": np.zeros(4)}
    raw.update({f"c{i}": np.ones(1) for i in (1, 2, 3)})
    tables = TableSet()
    for i, ms in enumerate(THREE_CHAIN_LATENCIES, start=1):
        tables.add(LatencyTable(block_id=i, part="conv_layer", layer=1, axes=("t", f"c{i}"),
                                data=np.array([[ms]])))
    return assemble(arch, build_all_vectors(arch, raw), tables, budget)


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
        problem = assemble(problem.arch, problem.vectors, problem.tables, dense / 2)
        oracle = solve_exhaustive(problem)
        sol = solve(problem)
        assert oracle.status == sol.status == "optimal"
        assert sol.importance == oracle.importance
        assert sol.assignment == oracle.assignment
        assert problem.tie_key(sol.assignment) == problem.tie_key(oracle.assignment)

    def test_architecture_without_blocks_is_an_empty_optimal_plan(self):
        from latprune import ImportanceVector

        arch = make_arch([trunk_dim("t")], [])
        vectors = {"t": ImportanceVector(values=np.zeros(1))}
        problem = assemble(arch, vectors, TableSet(), 1.0)
        for solver in (solve_exhaustive, solve):
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
    pts, n = front, int(front.sizes[0])
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
        sol = solve(problem, mode="heuristic_only")
        assert sol.status == "feasible_heuristic"
        assert sol.bound == sol.importance == 3.0

    @pytest.mark.parametrize("seed", range(25))
    def test_bound_dominates_exhaustive_optimum(self, seed):
        rng = np.random.default_rng(3000 + seed)
        problem, _ = random_problem(rng, state_cap=3000, chained_cap=3000)
        oracle = solve_exhaustive(problem)
        sol = solve(problem, mode="heuristic_only")
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
        # heuristic_only's plan is the LP rounding alone and may fall below
        # the greedy repair's (unsigned seeds 3 and 31 do); its dual bound and
        # the exact search must still reach the repair's plan.
        rng = np.random.default_rng(3100 + seed)
        problem, _ = random_problem(rng, signed_scores=signed)
        repaired = dense_start_repair(problem)
        if repaired is None:
            return
        floor = objective_value(repaired, problem.vectors, problem.arch)
        sol = solve(problem, mode="heuristic_only")
        assert sol.status == "feasible_heuristic"
        assert sol.bound >= floor
        exact = solve(problem, mode="branch_and_bound")
        assert exact.status == "optimal"
        assert exact.importance >= floor


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_exhaustive(self, seed):
        rng = np.random.default_rng(4000 + seed)
        problem, _ = random_problem(rng, signed_scores=bool(seed % 3 == 0))
        oracle = solve_exhaustive(problem)
        sol = solve(problem)
        assert sol.status in ("optimal", "infeasible")
        assert sol.status == oracle.status
        if sol.status == "optimal":
            assert sol.importance == oracle.importance
            assert sol.latency <= problem.budget
            assert sol.assignment == oracle.assignment

    def test_unbounded_budget_takes_every_max_option(self):
        rng = np.random.default_rng(70)
        problem, _ = random_problem(rng, budget=float("inf"))
        sol = solve(problem)
        assert sol.status == "optimal"
        arch = problem.arch
        for block in arch.blocks:
            assert sol.assignment.kappa_of(block) == 1
            for d in block.dims:
                assert sol.assignment.omega[d] == arch.dims[d].option_count

    @pytest.mark.parametrize("budget", [1e306, 1e308, 1.7e308])
    @pytest.mark.parametrize("mode", ["branch_and_bound", "heuristic_only"])
    def test_huge_finite_budget_gives_the_unbounded_answer(self, mode, budget):
        # A room past every hull segment must not overflow the LP bound's
        # arithmetic (the suite turns a RuntimeWarning into a failure).
        arch = parse_architecture((DATA / "tiny_mixed.arch.json").read_text())
        vectors = build_all_vectors(arch, synth_scores(arch, 0))
        problem = assemble(arch, vectors, synth_lut(arch, LatencyModelParams(), 0), math.inf)
        huge = assemble(problem.arch, problem.vectors, problem.tables, budget)
        want, got = solve(problem, mode=mode), solve(huge, mode=mode)
        assert got.status == want.status != "infeasible"
        assert got.assignment == want.assignment
        assert (got.importance, got.latency, got.bound) == (
            want.importance, want.latency, want.bound)

    def test_deterministic_repeat_runs(self):
        rng = np.random.default_rng(71)
        problem, _ = random_problem(rng)
        a = solve(problem)
        b = solve(problem)
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
            sol = solve(p)
            if sol.status == "infeasible":
                continue
            assert sol.importance >= last - 1e-12
            last = sol.importance

    def test_optimality_certificate(self):
        rng = np.random.default_rng(74)
        for _ in range(10):
            problem, _ = random_problem(rng)
            sol = solve(problem)
            if sol.status == "optimal":
                assert sol.importance <= sol.bound + 1e-9 * abs(sol.bound) + 1e-12

    def test_infeasible_instance(self):
        problem, _ = one_dim_problem([1.0, 3.0], [1.0, 2.0], budget=0.5)
        sol = solve(problem)
        assert sol.status == "infeasible"
        assert sol.assignment is None

    def test_block_past_int64_state_codes_is_solved(self):
        # 16 layers of 16 options: 2**64 states, so the frontier pass codes
        # them as Python ints.
        dims = [trunk_dim("t")] + [conv_dim(f"c{i}", 16) for i in range(1, 17)]
        blocks = [BlockSpec(id=1, kind="cnn_chain", dims=tuple(d.id for d in dims[1:]),
                            removable=False, input_ref="t")]
        arch = make_arch(dims, blocks)
        rng = np.random.default_rng(0)
        tables = random_tables(arch, rng)
        dense = constraint_value(dense_assignment(arch), tables, arch)
        problem = assemble(arch, build_all_vectors(arch, random_scores(arch, rng)), tables,
                           dense / 2)
        sol = solve(problem)
        assert sol.status == "optimal" and sol.latency <= problem.budget
        assert sol.importance >= solve(problem, mode="heuristic_only").importance

    def test_time_limit_degrades_to_feasible_heuristic(self):
        rng = np.random.default_rng(75)
        problem, _ = random_problem(rng, budget=None)
        sol = solve(problem, time_limit=1e-9)
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
            exact = solve(problem)
            loose = solve(problem, tolerance=0.5)
            assert loose.status == exact.status
            if exact.status == "optimal":
                assert loose.bound - loose.importance <= 0.5 + 1e-9
                assert loose.importance >= exact.importance - 0.5 - 1e-9
                assert loose.latency <= problem.budget

    def test_vit_b12_data_seed_3_is_proved_optimal(self):
        # This instance once ran into the 60 s limit (feasible_heuristic).
        problem = vit_b12_problem(seed=3, budget_fraction=0.25)
        sol = solve(problem, time_limit=30)
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
            "t": np.zeros(4),
            "c1": np.array([0.3, 4e-17]),
            "c2": np.array([1.0]),
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
        sol = solve(problem)
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
            scaled_raw = {d: 8.0 * r for d, r in raw.items()}
            scaled = assemble(arch, build_all_vectors(arch, scaled_raw), tables, budget)
            sol = solve(scaled)
            assert sol.assignment == ref.assignment
            assert sol.importance == 8.0 * ref.importance
            checked += 1


    def test_heuristic_only_merges_when_the_rounding_finds_no_plan(self):
        # The rounding's fit test sums the later blocks' needs apart, so at
        # this budget it rejects the one plan, which fits.
        problem = three_chain_problem()
        assert constraint_value(dense_assignment(problem.arch), problem.tables,
                                problem.arch) == THREE_CHAIN_BUDGET
        assert solve_exhaustive(problem).status == "optimal"
        sol = solve(problem, mode="heuristic_only")
        assert sol.status == "feasible_heuristic"
        assert sol.assignment == solve(problem).assignment
        assert sol.latency == THREE_CHAIN_BUDGET
        assert sol.importance == 3.0
        assert sol.bound >= sol.importance

    @pytest.mark.parametrize("mode", ["exhaustive", "branch_and_bound", "heuristic_only"])
    def test_plan_one_ulp_over_the_budget_is_never_returned(self, mode):
        # The merge's room lies a hair above the budget; a complete plan
        # must still fit the budget itself.
        problem = three_chain_problem(budget=math.nextafter(THREE_CHAIN_BUDGET, 0.0))
        assert solve(problem, mode=mode).status == "infeasible"

    def test_rounding_breaks_slope_ties_toward_earlier_blocks(self):
        # Both chains' one hull segment has slope 1 and the budget takes
        # one: the rounding gives it to the earlier block, while the merge
        # keeps the plan first in tie_key order.
        dims = [trunk_dim("t"), conv_dim("c1", 2), conv_dim("c2", 2)]
        blocks = [
            BlockSpec(id=i, kind="cnn_chain", dims=(f"c{i}",), removable=False, input_ref="t")
            for i in (1, 2)
        ]
        arch = make_arch(dims, blocks)
        raw = {"t": np.zeros(4)}
        raw.update({f"c{i}": np.ones(2) for i in (1, 2)})
        tables = TableSet()
        for i in (1, 2):
            tables.add(LatencyTable(block_id=i, part="conv_layer", layer=1, axes=("t", f"c{i}"),
                                    data=np.array([[1.0, 2.0]])))
        problem = assemble(arch, build_all_vectors(arch, raw), tables, 3.0)
        heuristic = solve(problem, mode="heuristic_only")
        assert heuristic.assignment.omega == {"c1": 2, "c2": 1}
        assert solve(problem).assignment.omega == {"c1": 1, "c2": 2}


class TestOneRecheck:
    """Every solver and mode reports its plan through one recheck: a plan
    whose sums are not the public evaluators' raises ``SolveError``."""

    @pytest.mark.parametrize("mode", ["branch_and_bound", "heuristic_only"])
    def test_frontier_sums_off_the_evaluators_raise(self, mode):
        problem = three_chain_problem(budget=1.0)
        assert solve(problem, mode=mode).importance == 3.0
        problem = three_chain_problem(budget=1.0)
        problem.core[1][0].imp += 1e-6
        with pytest.raises(SolveError, match="recheck"):
            solve(problem, mode=mode)

    def test_state_sums_off_the_evaluators_raise(self):
        problem = three_chain_problem(budget=1.0)
        assert solve_exhaustive(problem).importance == 3.0
        # Shifted copies: the model's vectors may share memory with the
        # problem's importance vectors.
        problem.models[0].imp = [v + 1e-6 for v in problem.models[0].imp]
        with pytest.raises(SolveError, match="recheck"):
            solve_exhaustive(problem)


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
    """The solver's settings, keywords of ``solve`` and ``solve_budgets``,
    are checked in the order mode, time_limit, tolerance, before any
    budget."""

    BAD = {
        ("mode", "greedy"): "unknown solver mode 'greedy'",
        ("time_limit", float("nan")): "time_limit must be positive, got nan",
        ("time_limit", 0.0): "time_limit must be positive, got 0.0",
        ("tolerance", float("nan")): "tolerance must be nonnegative, got nan",
        ("tolerance", -1.0): "tolerance must be nonnegative, got -1.0",
    }

    @pytest.mark.parametrize("field, value", list(BAD))
    def test_invalid_field_rejected(self, field, value):
        problem, _ = one_dim_problem([1.0], [1.0], budget=2.0)
        for call in (lambda: solve(problem, **{field: value}),
                     lambda: solve_budgets(problem, [2.0, 1.0], **{field: value}),
                     lambda: solve_budgets(problem, [], **{field: value})):
            with pytest.raises(ValidationError) as caught:
                call()
            assert str(caught.value) == self.BAD[field, value]

    @pytest.mark.parametrize("budget", [-1.0, math.nan, "x"])
    def test_a_bad_setting_is_reported_before_a_bad_budget(self, budget):
        problem, _ = one_dim_problem([1.0], [1.0], budget=2.0)
        for settings in ({"mode": "greedy", "time_limit": 0.0, "tolerance": -1.0},
                         {"time_limit": 0.0, "tolerance": -1.0}, {"tolerance": -1.0}):
            with pytest.raises(ValidationError) as caught:
                solve_budgets(problem, [2.0, budget], **settings)
            assert str(caught.value) == self.BAD[next(iter(settings.items()))]

    def test_a_positional_or_misspelt_setting_is_a_type_error(self):
        problem, _ = one_dim_problem([1.0], [1.0], budget=2.0)
        for call in (lambda: solve(problem, "exhaustive"),
                     lambda: solve_budgets(problem, [2.0], "exhaustive"),
                     lambda: solve(problem, time_limt=1.0),
                     lambda: solve_budgets(problem, [2.0], modes="exhaustive")):
            with pytest.raises(TypeError):
                call()


class TestSolveDispatcher:
    def test_modes(self):
        rng = np.random.default_rng(90)
        problem, _ = random_problem(rng, state_cap=2000, chained_cap=2000)
        ex = solve(problem, mode="exhaustive")
        bb = solve(problem, mode="branch_and_bound")
        he = solve(problem, mode="heuristic_only")
        assert ex.status == bb.status
        assert he.status == ("feasible_heuristic" if ex.status == "optimal" else "infeasible")
        if ex.status == "optimal":
            assert bb.importance == ex.importance
            assert he.importance <= ex.importance + 1e-12
            assert he.latency <= problem.budget

    def test_every_mode_validates_its_config(self):
        problem, _ = one_dim_problem([1.0], [1.0], budget=2.0)
        for mode in ("exhaustive", "branch_and_bound", "heuristic_only"):
            with pytest.raises(ValidationError, match="time_limit"):
                solve(problem, mode=mode, time_limit=0.0)
        with pytest.raises(ValidationError, match="mode"):
            solve(problem, mode="greedy")

    def test_solutions_are_recheckable(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            problem, _ = random_problem(rng)
            sol = solve(problem)
            if sol.status != "infeasible":
                lat = constraint_value(sol.assignment, problem.tables, problem.arch)
                imp = objective_value(sol.assignment, problem.vectors, problem.arch)
                assert lat == sol.latency
                assert imp == sol.importance
                assert lat <= problem.budget


def _fields(sol):
    return (sol.status, sol.importance, sol.latency, sol.bound, sol.node_count, sol.message,
            sol.assignment)


class TestSolveBudgets:
    def test_sixteen_budgets_at_a_vanishing_time_limit(self):
        # The one deadline passes before the merge's first chunk, so every
        # budget reports as a timed-out solve of its own does.
        problem, _ = resnet50_like_problem()
        dense = constraint_value(dense_assignment(problem.arch), problem.tables, problem.arch)
        budgets = [float(f * dense) for f in np.linspace(0.01, 1.2, 16)]
        batch = solve_budgets(problem, budgets, time_limit=1e-9)
        assert len(batch) == 16
        for budget, got in zip(budgets, batch):
            fresh = assemble(problem.arch, problem.vectors, problem.tables, budget)
            assert _fields(got) == _fields(solve(fresh, time_limit=1e-9))
            assert got.status in ("feasible_heuristic", "infeasible")
            if got.status == "feasible_heuristic":
                assert got.message.startswith("time limit reached")
                assert got.latency <= budget and got.bound >= got.importance
        assert {s.status for s in batch} == {"feasible_heuristic", "infeasible"}

    def test_the_batch_has_one_deadline_for_all_its_budgets(self, monkeypatch):
        problem, _ = resnet50_like_problem()
        merge, seen = solver._pareto_dp, []

        def spy(models, frontiers, bound, floor, tolerance, deadline, *rest):
            seen.append((floor.size, deadline - solver.time.perf_counter()))
            return merge(models, frontiers, bound, floor, tolerance, deadline, *rest)

        monkeypatch.setattr(solver, "_pareto_dp", spy)
        budgets = [problem.budget * f for f in (0.5, 1.0, 1.5)]
        solve_budgets(problem, budgets, time_limit=100.0)
        ((merged, left),) = seen
        assert merged == 3 and 299.0 < left <= 300.0

    def test_budgets_are_validated_and_an_empty_list_is_solved(self):
        problem, _ = one_dim_problem([1.0], [1.0], budget=2.0)
        with pytest.raises(ValidationError, match="budget must be positive"):
            solve_budgets(problem, [2.0, -1.0])
        with pytest.raises(ValidationError, match="time_limit"):
            solve_budgets(problem, [2.0], time_limit=0.0)
        assert solve_budgets(problem, []) == []


class TestPreCut:
    """The merge's pre-cut: each partial plan expands only the points of its
    budget and input option that score above its need, strictly."""

    # Few distinct values, so scores tie with each other and with the needs.
    VALUES = np.array([-1.5, -0.0, 0.0, 0.5, 2.0])

    @pytest.mark.parametrize("seed", range(24))
    def test_counts_equal_a_count_per_parent(self, seed):
        rng = np.random.default_rng(seed)
        budgets, options = 1 + seed % 3, 1 + seed // 3 % 4
        sizes = rng.integers(0, 6, options)
        inp = np.repeat(np.arange(options), sizes)
        offsets = np.cumsum(sizes) - sizes
        scores = rng.choice(self.VALUES, size=(budgets, inp.size))
        bud = np.sort(rng.integers(0, budgets, 16))  # budget-major, as in the merge
        sets = rng.integers(0, options, bud.size) if options > 1 else 0
        need = rng.choice(np.append(self.VALUES, -np.inf), bud.size)
        perm, start, counts = solver._precut(scores, inp, offsets, bud, sets, need)
        for p, (b, s) in enumerate(zip(bud, np.broadcast_to(sets, bud.shape))):
            run = np.flatnonzero(inp == s)
            best_first = sorted(run, key=lambda j: (-scores[b, j], j))
            assert perm[start[p]:start[p] + run.size].tolist() == best_first
            assert counts[p] == np.count_nonzero(scores[b, run] > need[p])

    def test_ties_at_the_need_stay_out_and_a_floor_of_minus_infinity_takes_all(self):
        # Two budgets by two input options; each run holds a point tied at the need.
        scores = np.array([[0.0, 1.0, -0.0, 3.0, 0.0], [3.0, -0.0, 1.0, 0.0, 2.0]])
        inp, offsets = np.array([0, 0, 0, 1, 1]), np.array([0, 3])
        bud, sets = np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 1])
        need = np.array([-0.0, 0.0, 1.0, 2.0, -np.inf])
        perm, start, counts = solver._precut(scores, inp, offsets, bud, sets, need)
        assert counts.tolist() == [1, 1, 1, 0, 2]
        assert start.tolist() == [0, 3, 5, 8, 8]
        assert perm.tolist() == [1, 0, 2, 3, 4, 0, 2, 1, 4, 3]
