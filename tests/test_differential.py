"""Differential tests of the solver against independent references.

* ``repair_heuristic`` re-prices only the moves a step changed; it must
  return exactly what the full-rescan loop below returns.
* ``solve_branch_and_bound`` must match ``solve_exhaustive`` on
  integer-valued instances, where many states tie on importance and the
  ``tie_key`` order decides the answer.
* each block's state tables, which both solvers read, must give every
  state the latency of ``block_latency`` and the importance subtotal of
  ``objective_value``, per option of the conv output a chain reads.
* each block frontier the solver builds must be exactly the tie-safe Pareto
  filter of the block's enumerated states.
* a problem derived by ``PruningProblem.with_budget`` shares the budget-free
  core, and must solve exactly as a freshly assembled one.

Both draw chains fed by a permanent block's conv output, the one
cross-block dependency in the model.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latprune import (
    Assignment,
    BlockSpec,
    LatencyTable,
    SolverConfig,
    TableSet,
    ValidationError,
    assemble,
    build_all_vectors,
    constraint_value,
    repair_heuristic,
    solve_branch_and_bound,
    solve_exhaustive,
)
from latprune.importance import RawScores
from latprune.latency import block_latency
from latprune.solver import _frontiers

from conftest import (
    conv_dim,
    dense_assignment,
    integer_problem,
    make_arch,
    random_architecture,
    random_problem,
    tf_dims,
    trunk_dim,
)


def full_rescan_repair(problem, start):
    """Reference greedy repair: prices every move again after each step."""
    arch = problem.arch
    asg = start.copy()
    for block in arch.blocks:
        if asg.kappa_of(block) == 0:
            for d in block.dims:
                asg.omega[d] = 1
    asg.validate_for(arch)

    readers = {d: [] for d in problem.dim_order}
    for block in arch.blocks:
        if block.kind == "cnn_chain" and block.input_ref in readers:
            readers[block.input_ref].append(block)

    def blocks_latency(a, blocks):
        total = 0.0
        for b in blocks:
            if a.kappa_of(b) == 1:
                total += block_latency(a, problem.tables, arch, b)
        return total

    latency = constraint_value(asg, problem.tables, arch)
    while latency > problem.budget:
        best = None
        order = 0
        for block in arch.blocks:
            if block.removable and asg.kappa[block.id] == 1:
                saved = block_latency(asg, problem.tables, arch, block)
                if saved > 0:
                    lost = sum(
                        float(problem.vectors[d].values[asg.omega[d] - 1])
                        for d in block.dims
                    )
                    move = (lost / saved, lost, order, "kappa", block.id)
                    if best is None or move[:3] < best[:3]:
                        best = move
            order += 1
        for d in problem.dim_order:
            block = arch.owner_block(d)
            j = asg.omega[d]
            if asg.kappa_of(block) == 1 and j > 1:
                affected = [block] + readers[d]
                before = blocks_latency(asg, affected)
                asg.omega[d] = j - 1
                saved = before - blocks_latency(asg, affected)
                asg.omega[d] = j
                if saved > 0:
                    vec = problem.vectors[d].values
                    lost = float(vec[j - 1]) - float(vec[j - 2])
                    move = (lost / saved, lost, order, "omega", d)
                    if best is None or move[:3] < best[:3]:
                        best = move
            order += 1
        if best is None:
            return None
        _, _, _, kind, key = best
        if kind == "kappa":
            asg.kappa[key] = 0
            for d in arch.blocks[key - 1].dims:
                asg.omega[d] = 1
        else:
            asg.omega[key] -= 1
        latency = constraint_value(asg, problem.tables, arch)
    return asg


@st.composite
def instances(draw, max_options=3, tf_options=2, max_layers=3, top=3):
    """(arch, raw scores, tables) with integer scores in [-1, top] and
    latencies in [0, top].

    When `chained` is drawn, block 1 is a permanent chain and every later
    block is a chain reading one of its conv outputs."""
    chained = draw(st.booleans())
    n_blocks = draw(st.integers(2 if chained else 1, 3))
    dims = [trunk_dim("trunk")]
    blocks = []
    producers = []
    for b in range(1, n_blocks + 1):
        first = b == 1 and chained
        kind = "cnn_chain" if chained else draw(st.sampled_from(["cnn_chain", "transformer"]))
        removable = False if first else draw(st.booleans())
        if kind == "transformer":
            roles = ("emb", "head", "qk", "v", "mlp")
            options = {r: draw(st.integers(1, tf_options)) for r in roles}
            block_dims = tf_dims(f"b{b}", options)
            input_ref = None
        else:
            n_layers = draw(st.integers(1, max_layers))
            block_dims = [
                conv_dim(f"b{b}_c{i}", draw(st.integers(1, max_options)), draw(st.integers(1, 2)))
                for i in range(1, n_layers + 1)
            ]
            input_ref = draw(st.sampled_from(producers)) if chained and not first else "trunk"
            if first:
                producers = [d.id for d in block_dims]
        dims.extend(block_dims)
        blocks.append(
            BlockSpec(
                id=b,
                kind=kind,
                dims=tuple(d.id for d in block_dims),
                removable=removable,
                input_ref=input_ref,
            )
        )
    arch = make_arch(dims, blocks)

    def integers(n, lo, hi):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)), dtype=float)

    raw = {
        d.id: RawScores(dim_id=d.id, scores=integers(d.max_elements, -1, top))
        for d in arch.dims.values()
    }
    tables = TableSet()
    for block in arch.blocks:
        for part, layer, dims in arch.parts(block):
            shape = tuple(d.option_count for d in dims)
            tables.add(LatencyTable(
                block_id=block.id, part=part, layer=layer, axes=tuple(d.id for d in dims),
                data=integers(math.prod(shape), 0, top).reshape(shape),
            ))
    return arch, raw, tables


@st.composite
def repair_cases(draw):
    arch, raw, tables = draw(instances(max_options=5, top=draw(st.sampled_from([3, 50]))))
    dense = constraint_value(dense_assignment(arch), tables, arch)
    budget = draw(st.integers(1, int(dense) + 1)) - draw(st.sampled_from([0.0, 0.5]))
    start = Assignment(
        omega={
            d: draw(st.integers(1, arch.dims[d].option_count))
            for b in arch.blocks for d in b.dims
        },
        kappa={b.id: draw(st.integers(0, 1)) for b in arch.blocks if b.removable},
    )
    if draw(st.booleans()):
        start = dense_assignment(arch)
    problem = assemble(arch, build_all_vectors(arch, raw), tables, budget)
    return problem, start


@settings(max_examples=300, deadline=None)
@given(repair_cases())
def test_incremental_repair_matches_full_rescan(case):
    problem, start = case
    expected = full_rescan_repair(problem, start)
    got = repair_heuristic(problem, start)
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert got.omega == expected.omega
        assert got.kappa == expected.kappa


def all_tied_chain():
    """(arch, raw scores, tables) of one 5-layer chain with 10 options per
    layer and all scores zero: its 10^5 states tie on importance."""
    layers = [conv_dim(f"c{i}", 10) for i in range(1, 6)]
    arch = make_arch([trunk_dim("trunk"), *layers], [BlockSpec(
        id=1, kind="cnn_chain", dims=tuple(d.id for d in layers), removable=False,
        input_ref="trunk")])
    raw = {d.id: RawScores(dim_id=d.id, scores=np.zeros(d.max_elements)) for d in arch.dims.values()}
    rng = np.random.default_rng(0)
    tables = TableSet()
    for part, layer, dims in arch.parts(arch.blocks[0]):
        tables.add(LatencyTable(block_id=1, part=part, layer=layer, axes=tuple(d.id for d in dims),
                                data=rng.integers(1, 4, tuple(d.option_count for d in dims)) * 1.0))
    return arch, raw, tables


@settings(max_examples=150, deadline=None)
@given(instances(max_layers=2), st.integers(0, 100))
@example(all_tied_chain(), 300)  # every state fits: the tie key alone decides
def test_branch_and_bound_tie_break_matches_exhaustive(case, percent):
    arch, raw, tables = case
    dense = constraint_value(dense_assignment(arch), tables, arch)
    budget = max(1.0, float(round(dense * percent / 100)))
    problem = assemble(arch, build_all_vectors(arch, raw), tables, budget)
    oracle = solve_exhaustive(problem)
    sol = solve_branch_and_bound(problem)
    assert sol.status == oracle.status
    if oracle.status == "optimal":
        assert sol.importance == oracle.importance
        assert sol.assignment == oracle.assignment
        assert problem.tie_key(sol.assignment) == problem.tie_key(oracle.assignment)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_state_tables_match_the_public_evaluators(case):
    arch, raw, tables = case
    problem = assemble(arch, build_all_vectors(arch, raw), tables, 1.0)
    for model in problem.models:
        imp, lat = model.state_tables()
        inputs = 1 if model.input_dim_id is None else arch.dims[model.input_dim_id].option_count
        assert imp.shape == (model.states + model.block.removable,)
        assert lat.shape == (imp.size, inputs)
        for state in range(imp.size):
            kappa, omega = model.decode_state(state)
            if not kappa:
                assert imp[state] == 0.0 and (lat[state] == 0.0).all()
                continue
            subtotal = 0.0
            for d in model.dim_ids:
                subtotal += float(problem.vectors[d].values[omega[d] - 1])
            assert imp[state] == subtotal
            for column in range(inputs):
                plan = Assignment(omega=dict(omega))
                if model.input_dim_id is not None:
                    plan.omega[model.input_dim_id] = column + 1
                assert lat[state, column] == block_latency(plan, tables, arch, model.block)


def pareto_reference(model, column, reads, margin):
    """{state: (latency, importance)} of the states the tie-safe filter keeps,
    by enumeration: a state goes when another with the same options on the
    read dimensions is no slower and either more important by over
    `margin`, or equal in both sums and earlier in ``tie_key`` order."""
    imp, lat = model.state_tables()
    lat = lat[:, column]
    removed = np.zeros(imp.size, dtype=int)
    if model.block.removable:
        removed[-1] = 1
    key = removed * imp.size + np.arange(imp.size)  # kept first, then row-major
    group = np.zeros(imp.size, dtype=int)
    for p in reads:
        group = group * 100 + model.option_of_dim(model.dim_ids[p])
    kept = {}
    for i in range(imp.size):
        rivals = (group == group[i]) & (lat <= lat[i])
        beaten = rivals & (imp > imp[i] + margin)
        tied = rivals & (lat == lat[i]) & (imp == imp[i]) & (key < key[i])
        if not (beaten | tied).any():
            kept[i] = (float(lat[i]), float(imp[i]))
    return kept


def middle_read_architecture(rng):
    """A permanent 3-layer chain whose first two layers feed later chains."""
    def layer(name, top):
        return conv_dim(name, int(rng.integers(1, top + 1)), int(rng.integers(1, 3)))

    producer = [layer(f"p_c{i}", 4) for i in (1, 2, 3)]
    first = [layer(f"a_c{i}", 3) for i in (1, 2)]
    second = [layer("b_c1", 3)]
    blocks = [
        BlockSpec(id=1, kind="cnn_chain", dims=tuple(d.id for d in producer),
                  removable=False, input_ref="trunk"),
        BlockSpec(id=2, kind="cnn_chain", dims=tuple(d.id for d in first),
                  removable=True, input_ref="p_c1"),
        BlockSpec(id=3, kind="cnn_chain", dims=("b_c1",),
                  removable=bool(rng.integers(2)), input_ref="p_c2"),
    ]
    return make_arch([trunk_dim("trunk"), *producer, *first, *second], blocks)


def test_frontiers_equal_pareto_filter_of_enumerated_states():
    seen = {"chained": 0, "read": 0, "removable": 0, "transformer": 0, "tied heads": 0}
    margin = 1e-9
    for seed in range(90):
        rng = np.random.default_rng(7000 + seed)
        tied = seed % 3 == 2
        if tied:
            arch = (middle_read_architecture(rng) if seed % 2
                    else random_architecture(rng, state_cap=5000, chained_cap=5000))
            problem = integer_problem(rng, arch)
        else:
            problem, _ = random_problem(
                rng, signed_scores=bool(seed % 3), state_cap=5000, chained_cap=5000
            )
        for model, front in zip(problem.models, _frontiers(problem.models, margin)):
            pts = front.points
            seen["chained"] += model.input_dim_id is not None
            seen["read"] += bool(front.reads)
            seen["removable"] += model.block.removable
            seen["transformer"] += model.block.kind == "transformer"
            # Integer sums tie exactly, so the tie-break decides which heads survive.
            seen["tied heads"] += tied and model.block.kind == "transformer" and model.shape[1] >= 2
            for column, (lo, size) in enumerate(zip(front.offsets, front.sizes)):
                got = {}
                for i in range(lo, lo + size):
                    state = (
                        model.states
                        if pts.removed[i]
                        else int(np.ravel_multi_index(tuple(pts.opts[i]), model.shape))
                    )
                    got[state] = (float(pts.lat[i]), float(pts.imp[i]))
                assert got == pareto_reference(model, column, front.reads, margin)
    assert all(seen.values()), seen


def _outcome(problem, mode):
    sol = solve_branch_and_bound(problem, SolverConfig(mode=mode))
    return sol.status, sol.importance, sol.latency, sol.bound, sol.node_count, sol.assignment


@settings(max_examples=120, deadline=None)
@given(instances(max_layers=2), st.data())
def test_with_budget_solves_as_a_fresh_assemble(case, data):
    arch, raw, tables = case
    vectors = build_all_vectors(arch, raw)
    dense = constraint_value(dense_assignment(arch), tables, arch)
    percents = data.draw(st.lists(st.integers(0, 110), min_size=2, max_size=5))
    budgets = data.draw(st.permutations([max(0.5, dense * p / 100) for p in percents] + [math.inf]))
    mode = data.draw(st.sampled_from(["branch_and_bound", "heuristic_only"]))
    base = assemble(arch, vectors, tables, budgets[0])
    outcomes = []
    for budget in budgets:
        problem = base.with_budget(budget)
        assert problem.budget == budget and problem._core is base._core
        outcomes.append(_outcome(problem, mode))
        assert outcomes[-1] == _outcome(assemble(arch, vectors, tables, budget), mode)
    # No solve changed the shared core: the first budget solves as before.
    assert _outcome(base.with_budget(budgets[0]), mode) == outcomes[0]


@pytest.mark.parametrize("budget", [0, -1.0, math.nan])
def test_with_budget_rejects_what_assemble_rejects(budget):
    problem, _ = random_problem(np.random.default_rng(3))
    with pytest.raises(ValidationError) as fresh:
        assemble(problem.arch, problem.vectors, problem.tables, budget)
    with pytest.raises(ValidationError) as derived:
        problem.with_budget(budget)
    assert str(derived.value) == str(fresh.value)


@pytest.mark.parametrize("budget", [True, False, "5", None])
def test_budget_that_is_not_a_number_is_named_so(budget):
    problem, _ = random_problem(np.random.default_rng(3))
    with pytest.raises(ValidationError, match="budget must be a real number"):
        assemble(problem.arch, problem.vectors, problem.tables, budget)
    with pytest.raises(ValidationError, match="budget must be a real number"):
        problem.with_budget(budget)


@pytest.mark.parametrize("budget", [np.int64(5), np.float32(0.5)], ids=["int64", "float32"])
def test_numpy_scalar_budgets_are_accepted(budget):
    problem, _ = random_problem(np.random.default_rng(3))
    for derived in (assemble(problem.arch, problem.vectors, problem.tables, budget),
                    problem.with_budget(budget)):
        assert type(derived.budget) is float and derived.budget == float(budget)
