"""Differential tests of the solver against independent references.

* ``solve`` must match ``solve_exhaustive`` on
  integer-valued instances, where many states tie on importance and the
  ``tie_key`` order decides the answer.
* each block's state tables, which both solvers read, must give every
  state the latency of ``block_latency`` and the importance subtotal of
  ``objective_value``, per option of the conv output a chain reads.
* each block frontier the solver builds must be exactly the tie-safe Pareto
  filter of the block's enumerated states, and one grouped Pareto filter
  must keep what a filter per group keeps.
* the LP rounding that seeds the merge must fit the budget whenever the
  exhaustive oracle finds a plan, and ``heuristic_only`` must then return
  a ``feasible_heuristic`` plan.  That holds up to the order of float
  additions: the integer-valued draws here sum exactly, and where the
  rounding misses a plan at the budget's last bit, ``heuristic_only``
  falls back to the merge (``tests/test_solver.py``).
* one problem solved by ``solve_budgets`` at budget after budget must
  solve each exactly as a freshly assembled one, and no solve may change
  its budget-free core; ``solve_budgets`` must check every budget as
  ``assemble`` does before it solves any.
* on integer-valued instances of 6 to 12 blocks, far above the exhaustive
  guard, ``solve`` must find the importance and
  ``tie_key`` of an exact Pareto merge of the blocks' enumerated states,
  with stages in one chunk and split into many; so must a merge seeded
  just below that optimum, alone and in a batch whose budgets carry other
  floors.
* ``solve_budgets`` must equal a separate ``solve`` per budget, field for
  field and in every mode, on lists with a repeated, an infeasible and a
  huge budget, with chunks that span budgets; and an unseeded batched
  merge, whose floors rise chunk by chunk at the last stage, must equal
  each budget's merge alone, node counts included.
* with importance and latency scaled by powers of two over float64's whole
  exponent range, each latency table by its own, ``branch_and_bound`` must
  return exhaustive's status and importance or refuse the problem naming
  the scores, and ``heuristic_only`` must report finite sums or refuse it
  too; neither may warn.

The drawn instances include chains fed by a permanent block's conv output,
nested or not, the one cross-block dependency in the model.
"""

import json
import math
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latprune import (
    Assignment,
    BlockSpec,
    LatencyTable,
    TableSet,
    ValidationError,
    assemble,
    build_all_vectors,
    constraint_value,
    parse_architecture,
    parse_lut,
    parse_scores,
    solve,
    solve_budgets,
    solve_exhaustive,
)
from latprune import solver
from latprune.cli import main
from latprune.importance import ImportanceVector
from latprune.latency import block_latency
from latprune.solver import _frontiers, _lp_rounding, _pareto_dp, _plan, _room

from conftest import (
    conv_dim,
    dense_assignment,
    integer_problem,
    make_arch,
    minimal_assignment,
    pick_budget,
    random_architecture,
    random_problem,
    tf_dims,
    trunk_dim,
)

DATA = Path(__file__).parent.parent / "demos" / "data"


@st.composite
def instances(draw, max_options=3, tf_options=2, max_layers=3, top=3, min_blocks=1, max_blocks=3):
    """(arch, raw scores, tables) with integer scores in [-1, top] and
    latencies in [0, top], of `min_blocks` to `max_blocks` blocks (at least
    two when chained).

    When `chained` is drawn, block 1 is a permanent chain and every later
    block is a chain reading a conv output of an earlier permanent chain, so
    chains may nest (block 3 reading block 2 reading block 1)."""
    chained = draw(st.booleans())
    n_blocks = draw(st.integers(max(min_blocks, 2 if chained else 1), max_blocks))
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
            if chained and not removable:
                producers += [d.id for d in block_dims]
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
        d.id: integers(d.max_elements, -1, top)
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


def all_tied_chain():
    """(arch, raw scores, tables) of one 5-layer chain with 10 options per
    layer and all scores zero: its 10^5 states tie on importance."""
    layers = [conv_dim(f"c{i}", 10) for i in range(1, 6)]
    arch = make_arch([trunk_dim("trunk"), *layers], [BlockSpec(
        id=1, kind="cnn_chain", dims=tuple(d.id for d in layers), removable=False,
        input_ref="trunk")])
    raw = {d.id: np.zeros(d.max_elements) for d in arch.dims.values()}
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
    sol = solve(problem)
    assert sol.status == oracle.status
    if oracle.status == "optimal":
        assert sol.importance == oracle.importance
        assert sol.assignment == oracle.assignment
        assert problem.tie_key(sol.assignment) == problem.tie_key(oracle.assignment)


def pareto_merge_optimum(problem):
    """(importance, tie key) of the best plan, or None when none fits, by an
    exact merge of every block's enumerated states in block order.

    Plans are kept apart per option of the producer dimensions a later
    chain reads, and a plan over the budget goes.  A plan goes also when
    another of its group is no slower and strictly more important, or equal
    on both sums with a smaller (kappa, omega) prefix, which orders the
    plans it leads to as ``tie_key`` does.  Integer-valued instances keep
    every sum exact; there is no hull, bound, pre-cut, margin or chunking.
    """
    models = problem.models
    lat, imp = np.zeros(1), np.zeros(1)
    kappa, omega, opened = (np.zeros((1, 0), dtype=int) for _ in range(3))
    open_dims = []
    for k, model in enumerate(models):
        s_imp, s_lat = model.state_tables()
        s_opts = np.stack([model.option_of_dim(d) for d in model.dim_ids], axis=1)
        s_removed = (np.arange(s_imp.size) == model.states)[:, None].astype(int)
        par, s = np.divmod(np.arange(lat.size * s_imp.size), s_imp.size)
        column = 0
        if model.input_dim_id is not None:
            column = opened[par, open_dims.index(model.input_dim_id)] - 1
        lat, imp = lat[par] + s_lat[s, column], imp[par] + s_imp[s]
        kappa = np.hstack([kappa[par], s_removed[s, :int(model.block.removable)]])
        omega = np.hstack([omega[par], s_opts[s]])
        read = {m.input_dim_id for m in models[k + 1:]}
        dims = open_dims + model.dim_ids
        cols = [c for c, d in enumerate(dims) if d in read]
        open_dims = [dims[c] for c in cols]
        opened = np.hstack([opened[par], s_opts[s]])[:, cols]
        group = opened @ 10 ** np.arange(len(cols))  # options are below 10
        keys = np.hstack([kappa, omega])
        order = np.lexsort((*keys.T[::-1], -imp, lat, group))
        order = order[lat[order] <= problem.budget]
        kept = []
        for run in np.split(order, np.flatnonzero(np.diff(group[order])) + 1):
            l, v = lat[run], imp[run]
            beaten = np.maximum.accumulate(v)[:-1] > v[1:]
            tied = (l[1:] == l[:-1]) & (v[1:] == v[:-1])  # the earlier has the smaller key
            keep = np.ones(run.size, dtype=bool)
            keep[1:] = ~(beaten | tied)
            kept.append(run[keep])
        kept = np.concatenate(kept)
        lat, imp, kappa, omega, opened = (a[kept] for a in (lat, imp, kappa, omega, opened))
    if not lat.size:
        return None
    keys = np.hstack([kappa, omega])
    best = np.lexsort((*keys.T[::-1], -imp))[0]
    return float(imp[best]), tuple(int(x) for x in keys[best])


@pytest.mark.parametrize("chunk", [solver._CHUNK, 7])  # 7 splits nearly every stage
@settings(max_examples=60, deadline=None)
@given(instances(min_blocks=6, max_blocks=12), st.integers(0, 100))
def test_branch_and_bound_matches_an_exact_pareto_merge(chunk, case, percent):
    arch, raw, tables = case
    # From the plan of every first option to the dense plan: some plan fits.
    low = constraint_value(minimal_assignment(arch), tables, arch)
    dense = constraint_value(dense_assignment(arch), tables, arch)
    budget = max(1.0, low + round((dense - low) * percent / 100))
    problem = assemble(arch, build_all_vectors(arch, raw), tables, budget)
    want = pareto_merge_optimum(problem)
    with mock.patch.object(solver, "_CHUNK", chunk):
        sol = solve(problem)
        if want is not None:
            # Seeded just below the optimum, the merge must still find it,
            # alone and in a batch whose budgets carry other floors.
            optimum = want[0]
            below = math.nextafter(optimum, -math.inf)
            floors = [below, -math.inf, optimum + 1, optimum - 1]
            found = [m[:2] for m in merge(problem, [problem.budget] * 4, floors)]
            assert found == [want, want, (None, None), want]
            assert merge(problem, [problem.budget], [below])[0][:2] == want
    if want is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert (sol.importance, problem.tie_key(sol.assignment)) == want


def merge(problem, budgets, floors):
    """Per budget, (importance, tie key, node count, largest pruned bound)
    of one batched merge of `budgets` at importance `floors`; importance and
    tie key are None where the merge finds no leaf."""
    margin, frontiers, bound, _ = problem.core
    room = np.array([_room(b) for b in budgets])
    limit = np.minimum(budgets, room)
    leaves, nodes, pruned, timed_out = _pareto_dp(
        problem.models, frontiers, bound, np.array(floors, dtype=float), 0.0, math.inf, margin,
        room, limit)
    assert not timed_out.any()
    out = []
    for leaf, count, best_cut in zip(leaves, nodes.tolist(), pruned.tolist()):
        found = (None, None) if leaf is None else (
            leaf[0], problem.tie_key(_plan(problem, frontiers, leaf[2])))
        out.append((*found, count, best_cut))
    return out


def nested_chain():
    """(arch, raw scores, tables) of three permanent one-layer chains, b3
    reading b2 reading b1, where the richer b1 option leaves b2 only a
    choice between 9 ms of its own and 5 ms more in b3.  Under a 3 ms budget
    only b1's lean option fits, which a rounding that prices each chain's
    input at its cheapest option does not see."""
    layers = [conv_dim("b1_c1", 2), conv_dim("b2_c1", 2), conv_dim("b3_c1", 1)]
    arch = make_arch([trunk_dim("trunk"), *layers], [
        BlockSpec(id=b, kind="cnn_chain", dims=(d.id,), removable=False, input_ref=ref)
        for b, d, ref in zip((1, 2, 3), layers, ("trunk", "b1_c1", "b2_c1"))
    ])
    raw = {d.id: np.ones(d.max_elements) for d in arch.dims.values()}
    latency = {1: [[1.0, 1.0]], 2: [[1.0, 1.0], [9.0, 1.0]], 3: [[0.0], [5.0]]}
    tables = TableSet()
    for block in arch.blocks:
        (part, layer, dims), = arch.parts(block)
        tables.add(LatencyTable(block_id=block.id, part=part, layer=layer,
                                axes=tuple(d.id for d in dims), data=np.array(latency[block.id])))
    return arch, raw, tables


@settings(max_examples=300, deadline=None)
@given(instances(max_options=4), st.integers(0, 100))
@example(nested_chain(), 20)  # a 3 ms budget: 2 ms for every first option, 7 ms dense
def test_lp_rounding_fits_whenever_a_plan_does(case, percent):
    arch, raw, tables = case
    # From the plan of every first option to the dense plan: some plan fits.
    low = constraint_value(minimal_assignment(arch), tables, arch)
    dense = constraint_value(dense_assignment(arch), tables, arch)
    budget = max(1.0, low + round((dense - low) * percent / 100))
    problem = assemble(arch, build_all_vectors(arch, raw), tables, budget)
    assert solve_exhaustive(problem).status == "optimal"
    rounded = _lp_rounding(budget, *problem.core[1:])
    assert rounded is not None
    assert constraint_value(_plan(problem, problem.core[1], rounded[2]), tables, arch) <= budget
    heuristic = solve(problem, mode="heuristic_only")
    assert heuristic.status == "feasible_heuristic"


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
            kappa = not (model.block.removable and state == model.states)
            omega = {d: int(model.option_of_dim(d)[state]) for d in model.dim_ids}
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


# Group ids as the frontier pass and the merge make them: up to _CODE_CAP,
# past float64's exact integers, where neighbours round to one float.
GROUP_IDS = [0, 1, 7, 2**53, 2**53 + 1, 2**53 + 2, solver._CODE_CAP - 2, solver._CODE_CAP - 1]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_grouped_pareto_equals_each_group_alone(data):
    """One grouped ``_pareto`` call keeps exactly what a call per group
    keeps, groups ascending, on tied latencies and importances, negative
    importances and group ids above 2**53."""
    n = data.draw(st.integers(1, 40))

    def column(values):
        return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

    group = column(st.sampled_from(GROUP_IDS)).astype(np.int64)
    lat = column(st.integers(0, 4)).astype(float)
    imp = column(st.sampled_from([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0]))
    keys = (column(st.booleans()), np.array(data.draw(st.permutations(range(n)))))
    margin = data.draw(st.sampled_from([0.0, 1e-9, 0.75]))
    got = solver._pareto(lat, imp, keys, margin, group)
    want = []
    for g in sorted(set(group.tolist())):
        ids = np.flatnonzero(group == g)
        want += ids[solver._pareto(lat[ids], imp[ids], [k[ids] for k in keys], margin)].tolist()
    assert got.tolist() == want


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
            pts = front
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


@pytest.mark.parametrize("seed", range(12))
def test_frontiers_on_python_int_codes_equal_the_int64_ones(seed):
    """A block whose state codes could pass int64 codes them as Python ints;
    with the cap at 2 every block does, and the frontiers must not change."""
    problem, _ = random_problem(np.random.default_rng(8000 + seed), signed_scores=bool(seed % 2),
                                state_cap=5000, chained_cap=5000)
    want = _frontiers(problem.models, 1e-9)
    with mock.patch.object(solver, "_CODE_CAP", 2):
        got = _frontiers(problem.models, 1e-9)
    for a, b in zip(want, got):
        for name in ("lat", "imp", "rank", "opts", "inp", "hull"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def _fields(sol):
    return (sol.status, sol.importance, sol.latency, sol.bound, sol.node_count, sol.message,
            sol.assignment)


def kept_or_removed_tie():
    """A problem of three removable one-option chains, of 1, 2 and 1 ms and
    as much importance, under a 3 ms budget.  Keeping blocks (1, 2) or
    (2, 3) ties on both sums, and ``tie_key`` picks (1, 2), the plan that
    removes the later block.  Unseeded, the merge reaches block 3 with the
    plans keeping blocks (1, 2), (1), (2) and none, kept/removed codes 0 to
    3, which a cap of 4 ranks again there."""
    cost = {1: 1.0, 2: 2.0, 3: 1.0}
    layers = [conv_dim(f"b{b}_c1", 1) for b in cost]
    arch = make_arch([trunk_dim("trunk"), *layers], [
        BlockSpec(id=b, kind="cnn_chain", dims=(f"b{b}_c1",), removable=True, input_ref="trunk")
        for b in cost])
    raw = {"trunk": np.ones(4)}
    tables = TableSet()
    for b, ms in cost.items():
        raw[f"b{b}_c1"] = np.array([ms])
        tables.add(LatencyTable(block_id=b, part="conv_layer", layer=1,
                                axes=("trunk", f"b{b}_c1"), data=np.array([[ms]])))
    return assemble(arch, build_all_vectors(arch, raw), tables, 3.0)


def two_open_producers(rng):
    """An integer problem where blocks 2 and 3 read the two layers of
    permanent block 1, 10 options each, so the merge groups its plans by two
    open producer options at once."""
    producer = [conv_dim("a1", 10), conv_dim("a2", 10)]
    readers = [conv_dim("b1", 3, 2), conv_dim("c1", 3)]
    arch = make_arch([trunk_dim("trunk"), *producer, *readers], [
        BlockSpec(id=1, kind="cnn_chain", dims=("a1", "a2"), removable=False, input_ref="trunk"),
        BlockSpec(id=2, kind="cnn_chain", dims=("b1",), removable=True, input_ref="a1"),
        BlockSpec(id=3, kind="cnn_chain", dims=("c1",), removable=True, input_ref="a2"),
    ])
    return integer_problem(rng, arch)


@pytest.mark.parametrize("cap", [2**6, 4])
def test_codes_made_dense_under_a_low_cap_solve_as_before(cap):
    """The merge's two overflow guards, ``_group_ids`` and ``_pareto_dp``
    making their codes dense once the next digit could take them past
    ``_CODE_CAP``, run at almost every stage under a low cap and must leave
    every solve's status, sums, bound, node count and plan as they are, and
    the plan an unseeded merge picks among ties."""
    callers = set()
    dense = solver._dense

    def spy(code):
        callers.add(sys._getframe(1).f_code.co_name)
        return dense(code)

    problems = [kept_or_removed_tie()]
    for seed in range(40):
        rng = np.random.default_rng(9100 + seed)
        if seed % 8:
            arch = random_architecture(rng, max_blocks=5, state_cap=50_000, chained_cap=20_000)
            problem = integer_problem(rng, arch)
        else:
            problem = two_open_producers(rng)
        budget = pick_budget(problem.arch, problem.tables, rng)
        problems.append(assemble(problem.arch, problem.vectors, problem.tables, budget))
    assert solve(problems[0]).assignment.kappa == {1: 1, 2: 1, 3: 0}
    for problem in problems:
        budgets = [problem.budget * f for f in (0.8, 1.0, 1.25)]
        # Unseeded, the merge's leaf alone decides each tie, a seed never.
        unseeded = [-math.inf] * len(budgets)
        want = [_fields(sol) for sol in solve_budgets(problem, budgets)]
        want_merge = merge(problem, budgets, unseeded)
        with (mock.patch.object(solver, "_CODE_CAP", cap),
              mock.patch.object(solver, "_dense", spy)):
            got = [_fields(sol) for sol in solve_budgets(assemble(
                problem.arch, problem.vectors, problem.tables, problem.budget), budgets)]
            got_merge = merge(problem, budgets, unseeded)
        assert got == want
        assert got_merge == want_merge
    assert {"_group_ids", "_pareto_dp"} <= callers


def test_folded_merge_equals_one_that_never_folds():
    """A merge stage folds the chunk survivors it holds once they pass
    ``_FOLD`` chunks' worth.  With 7-plan chunks it folds in the middle of
    many stages and must return, per budget, the leaves, node counts and
    largest pruned bounds of a merge whose threshold no stage reaches, with
    one budget and with several, unseeded and as ``solve_budgets`` seeds
    it.  That merge filters each stage's chunk survivors at its end by the
    rule written out here, not by ``_fold``, so a fault of ``_fold`` shows."""

    def stage_end(kept, bud, margin):
        """The survivors that no survivor of the same budget and open
        producer options dominates, ties broken by the plans' codes."""
        par, pt, c_lat, c_imp, kappa_code, omega_code, cols = map(np.concatenate, zip(*kept))
        rows = np.column_stack((bud[par], cols))
        group = np.unique(rows, axis=0, return_inverse=True)[1].reshape(-1)
        keep = solver._pareto(c_lat, c_imp, (kappa_code, omega_code), margin, group)
        return [a[keep] for a in (par, pt, c_lat, c_imp, kappa_code, omega_code, cols)]

    def run(threshold, fold, problem, budgets):
        mid_stage = []

        def spy(kept, bud, margin):
            caller = sys._getframe(1).f_locals
            mid_stage.append(caller["lo"] < caller["lat"].size)  # chunks still to come
            return fold(kept, bud, margin)

        margin, frontiers, bound, _ = problem.core
        room = np.array([_room(b) for b in budgets])
        with (mock.patch.object(solver, "_CHUNK", 7), mock.patch.object(solver, "_FOLD", threshold),
              mock.patch.object(solver, "_fold", spy)):
            leaves, nodes, pruned, _ = _pareto_dp(
                problem.models, frontiers, bound, np.full(len(budgets), -math.inf), 0.0,
                math.inf, margin, room, np.minimum(budgets, room))
            solved = [_fields(sol) for sol in solve_budgets(problem, budgets)]
        return (leaves, nodes.tolist(), pruned.tolist(), solved), sum(mid_stage)

    folds = 0
    for seed in range(40):
        rng = np.random.default_rng(9300 + seed)
        arch = random_architecture(rng, max_blocks=8, state_cap=10**7, chained_cap=10**6)
        problem = integer_problem(rng, arch)
        budget = pick_budget(arch, problem.tables, rng)
        problem = assemble(arch, problem.vectors, problem.tables, budget)
        for budgets in ([budget], [budget * 0.8, budget, budget * 1.25]):
            never, none = run(2**40, stage_end, problem, budgets)
            folded, mid_stage = run(solver._FOLD, solver._fold, problem, budgets)
            assert none == 0
            assert folded == never
            folds += mid_stage
    assert folds > 20


@settings(max_examples=120, deadline=None)
@given(instances(max_layers=2), st.data())
def test_with_budget_solves_as_a_fresh_assemble(case, data):
    """One problem solved at budget after budget by ``solve_budgets`` solves
    each as a fresh ``assemble`` does, and keeps its core unchanged."""
    arch, raw, tables = case
    vectors = build_all_vectors(arch, raw)
    dense = constraint_value(dense_assignment(arch), tables, arch)
    percents = data.draw(st.lists(st.integers(0, 110), min_size=2, max_size=5))
    budgets = data.draw(st.permutations([max(0.5, dense * p / 100) for p in percents] + [math.inf]))
    mode = data.draw(st.sampled_from(["branch_and_bound", "heuristic_only"]))
    base = assemble(arch, vectors, tables, budgets[0])
    outcomes = []
    for budget in budgets:
        outcomes.append(_fields(solve_budgets(base, [budget], mode=mode)[0]))
        assert outcomes[-1] == _fields(solve(assemble(arch, vectors, tables, budget), mode=mode))
    # No solve changed the problem's core: the first budget solves as before.
    assert _fields(solve(base, mode=mode)) == outcomes[0]


@pytest.mark.parametrize("chunk", [solver._CHUNK, 7])  # 7 spans budgets and splits the last stage
@settings(max_examples=80, deadline=None)
@given(instances(max_layers=2), st.lists(st.integers(0, 110), min_size=1, max_size=6), st.data())
def test_solve_budgets_equals_separate_solves(chunk, case, percents, data):
    arch, raw, tables = case
    dense = constraint_value(dense_assignment(arch), tables, arch)
    budgets = [max(0.5, float(round(dense * p / 100))) for p in percents]
    # A repeat, a budget under every plan that takes time, and a huge one.
    budgets += [budgets[0], 0.5, data.draw(st.sampled_from([1e300, 1.7e308]))]
    budgets = data.draw(st.permutations(budgets))
    problem = assemble(arch, build_all_vectors(arch, raw), tables, budgets[0])
    with mock.patch.object(solver, "_CHUNK", chunk):
        for mode in ("branch_and_bound", "heuristic_only", "exhaustive"):
            batch = solve_budgets(problem, budgets, mode=mode)
            assert len(batch) == len(budgets)
            for budget, got in zip(budgets, batch):
                fresh = assemble(arch, problem.vectors, tables, budget)
                assert _fields(got) == _fields(solve(fresh, mode=mode))
        # Unseeded, every budget's floor rises many times in its last stage.
        floors = [-math.inf] * len(budgets)
        assert merge(problem, budgets, floors) == [merge(problem, [b], [-math.inf])[0] for b in budgets]


@pytest.mark.parametrize("budget", [0, -1.0, math.nan])
def test_with_budget_rejects_what_assemble_rejects(budget):
    """``solve_budgets`` checks each budget as ``assemble`` does, and a bad
    budget after a good one raises before either is solved."""
    problem, _ = random_problem(np.random.default_rng(3))
    with pytest.raises(ValidationError) as fresh:
        assemble(problem.arch, problem.vectors, problem.tables, budget)
    with pytest.raises(ValidationError) as batch:
        solve_budgets(problem, [budget])
    assert str(batch.value) == str(fresh.value)
    # Every solve of the good budget passes one of these; none may run.
    error = AssertionError("a budget was solved before every budget was checked")
    for mode in ("branch_and_bound", "heuristic_only", "exhaustive"):
        with (mock.patch.object(solver, "_lp_rounding", side_effect=error),
              mock.patch.object(solver, "_pareto_dp", side_effect=error),
              mock.patch.object(solver, "_enumerate", side_effect=error),
              pytest.raises(ValidationError) as late):
            solve_budgets(problem, [problem.budget, budget], mode=mode)
        assert str(late.value) == str(fresh.value)


@pytest.mark.parametrize("budget", [True, False, "5", None])
def test_budget_that_is_not_a_number_is_named_so(budget):
    problem, _ = random_problem(np.random.default_rng(3))
    with pytest.raises(ValidationError, match="budget must be a real number"):
        assemble(problem.arch, problem.vectors, problem.tables, budget)
    with pytest.raises(ValidationError, match="budget must be a real number"):
        solve_budgets(problem, [budget])


@pytest.mark.parametrize("budget", [np.int64(5), np.float32(0.5)], ids=["int64", "float32"])
def test_numpy_scalar_budgets_are_accepted(budget):
    """A numpy scalar budget solves as the float it equals."""
    problem, _ = random_problem(np.random.default_rng(3))
    fresh = assemble(problem.arch, problem.vectors, problem.tables, budget)
    assert type(fresh.budget) is float and fresh.budget == float(budget)
    got, = solve_budgets(problem, [budget])
    assert _fields(got) == _fields(solve(fresh))


def agrees_or_refuses(arch, vectors, tables, budget):
    """`branch_and_bound` returns exhaustive's status and importance, or
    refuses the problem (exit 3 in the CLI); `heuristic_only` raises nothing
    else and reports only finite sums."""
    try:
        problem = assemble(arch, vectors, tables, budget)
    except ValidationError as exc:  # totals past float64's range, or a budget of 0
        assert any(name in str(exc) for name in ("importance", "lut", "budget")), exc
        return None
    oracle = solve_exhaustive(problem)
    refused = []
    for mode in ("branch_and_bound", "heuristic_only"):
        try:
            sol = solve(problem, mode=mode)
        except ValidationError as exc:
            assert "scores" in str(exc)
            refused.append(mode)
            continue
        assert all(math.isfinite(v) for v in (sol.importance, sol.latency, sol.bound)
                   if v is not None)
        if mode == "branch_and_bound":
            assert (sol.status, sol.importance) == (oracle.status, oracle.importance)
    assert refused in ([], ["branch_and_bound", "heuristic_only"])
    return oracle, refused


def chains(count):
    """(arch, raw scores, tables) of `count` one-layer chains on the trunk,
    the first permanent and the others removable, every score and latency 1."""
    layers = [conv_dim(f"b{b}_c1", 1) for b in range(1, count + 1)]
    arch = make_arch([trunk_dim("trunk"), *layers], [
        BlockSpec(id=b, kind="cnn_chain", dims=(d.id,), removable=b > 1, input_ref="trunk")
        for b, d in enumerate(layers, 1)
    ])
    raw = {d.id: np.ones(d.max_elements) for d in arch.dims.values()}
    tables = TableSet()
    for block in arch.blocks:
        (part, layer, dims), = arch.parts(block)
        tables.add(LatencyTable(block_id=block.id, part=part, layer=layer,
                                axes=tuple(d.id for d in dims), data=np.ones((1, 1))))
    return arch, raw, tables


@settings(max_examples=200, deadline=None)
@given(instances(max_layers=2), st.integers(0, 110), st.integers(-1080, 1023),
       st.integers(-1080, 1022), st.lists(st.integers(0, 64), min_size=1, max_size=3))
# The 2^58 ms chain's slope times the permanent 2^64 ms chain's latency
# overflowed in the pre-cut.
@example(chains(2), 99, 1018, 64, [0, 6])
# The 1 ms chain's slope times the overshoot of the 2^64 ms chain, which does
# not fit, overflowed in the LP bound.
@example(chains(3), 50, 1000, 64, [64, 0, 64])
# The 2^58 ms chain's slope times the 2^64 ms chain's latency: that chain does
# not fit, and its pre-cut score is -inf.
@example(chains(3), 1, 1020, 64, [64, 6, 0])
def test_any_magnitude_solves_as_exhaustive_or_is_refused(case, percent, e, f, g):
    """Importance scaled by 2^e, the i-th latency table by its own 2^(f - g[i])
    (cyclically), so blocks' latencies may differ widely, and the budget by
    2^(f - 64), over float64's whole exponent range: scaling by a power of
    two is exact until a value leaves the normal range, so the instance is
    the drawn one."""
    arch, raw, tables = case
    spread = TableSet()  # entries still integers at 2^(64 - g[i]): the budget rounds there
    for i, t in enumerate(tables):
        spread.add(LatencyTable(block_id=t.block_id, part=t.part, layer=t.layer,
                                axes=t.axes, data=np.ldexp(t.data, 64 - g[i % len(g)])))
    dense = constraint_value(dense_assignment(arch), spread, arch)
    with np.errstate(over="ignore"):  # an inf entry is refused by assemble
        vectors = {d: ImportanceVector(values=np.ldexp(v.values, e))
                   for d, v in build_all_vectors(arch, raw).items()}
        scaled = TableSet()
        for t in spread:
            scaled.add(LatencyTable(block_id=t.block_id, part=t.part, layer=t.layer,
                                    axes=t.axes, data=np.ldexp(t.data, f - 64)))
        budget = float(np.ldexp(max(1.0, float(round(dense * percent / 100))), f - 64))
    agrees_or_refuses(arch, vectors, scaled, budget)


def test_hull_slope_past_float64_is_refused_naming_the_scores(tmp_path, capsys):
    """tiny_mixed as `latprune synth --seed 0` writes it, with the first
    score of every dimension at 1e307 and the rest at 0.5: every total is
    finite, but an importance step over a ~0.01 ms latency step is not.
    Branch-and-bound reported a worse plan than exhaustive as optimal. In
    the CLI, `solve` and `sweep` exit 3 naming the scores and write nothing;
    `check` builds no bound, so it prints OK (README, "Finite slopes")."""
    arch_path, inputs = DATA / "tiny_mixed.arch.json", tmp_path / "inputs"
    assert main(["synth", "--arch", str(arch_path), "--seed", "0", "--out", str(inputs)]) == 0
    doc = json.loads((inputs / "scores.json").read_text())
    for record in doc["scores"]:
        record["scores"] = [1e307] + [0.5] * (len(record["scores"]) - 1)
    (inputs / "scores.json").write_text(json.dumps(doc))
    arch = parse_architecture(arch_path.read_text())
    raw = parse_scores((inputs / "scores.json").read_text())
    tables = parse_lut((inputs / "lut.json").read_text())
    oracle, refused = agrees_or_refuses(arch, build_all_vectors(arch, raw), tables, 0.12)
    assert (oracle.status, oracle.importance) == ("optimal", 7e307)
    assert refused == ["branch_and_bound", "heuristic_only"]
    docs = ["--arch", str(arch_path), "--scores", str(inputs / "scores.json"),
            "--lut", str(inputs / "lut.json")]
    capsys.readouterr()
    for command, budget in (("solve", "--budget-ms=0.12"), ("sweep", "--budgets=0.1,0.12")):
        out = tmp_path / command
        assert main([command, *docs, budget, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(
            "error: importance vectors: a hull step's importance per ms passes float64's range; "
            "scale the scores down"
        )
        assert not out.exists()
    assert main(["check", *docs]) == 0
    assert capsys.readouterr().out.endswith("problem shapes: OK\nOK\n")


def test_latencies_far_apart_solve_as_exhaustive_without_overflow(tmp_path, capsys):
    """A permanent 1e300 ms chain and a removable 2e291 ms one scoring 1e300,
    under a 1e300 ms budget.  The pre-cut priced 1e300 ms at the removable
    chain's slope, 5e8 per ms, which overflowed: the merge expanded no plan.
    `solve` in every mode and `sweep` exit 0 with exhaustive's importance, and
    a warning would fail the test (tier-1 makes it an error)."""
    dims = [("stem", "fixed_external"), ("b1_c1", "conv_out"), ("b2_c1", "conv_out")]
    docs = {
        "arch": {"name": "far", "dims": [
            {"id": d, "role": role, "option_count": 1, "group_size": 1, "max_elements": 1}
            for d, role in dims], "blocks": [
            {"id": b, "kind": "cnn_chain", "removable": b == 2, "input_ref": "stem",
             "dims": [f"b{b}_c1"]} for b in (1, 2)]},
        "scores": {"scores": [{"dim_id": d, "scores": [s]}
                              for (d, _), s in zip(dims, (1.0, 1.0, 1e300))]},
        "lut": {"tables": [
            {"block_id": b, "part": "conv_layer", "layer": 1, "axes": ["stem", f"b{b}_c1"],
             "shape": [1, 1], "data": [ms]} for b, ms in ((1, 1e300), (2, 2e291))]},
    }
    args = []
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        args += [f"--{name}", str(tmp_path / f"{name}.json")]
    reports = {}
    for mode in ("exhaustive", "branch_and_bound", "heuristic_only"):
        out = tmp_path / mode
        assert main(["solve", *args, "--budget-ms", "1e300", "--mode", mode,
                     "--out", str(out)]) == 0
        reports[mode] = json.loads((out / "report.json").read_text())
    assert {r["importance"] for r in reports.values()} == {reports["exhaustive"]["importance"]}
    assert reports["branch_and_bound"]["node_count"] > 0
    assert main(["sweep", *args, "--budgets", "1e300", "--out", str(tmp_path / "sweep")]) == 0
    row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[2].split(",")
    assert row[1:3] == ["optimal", repr(reports["exhaustive"]["importance"])]
    assert int(row[-1]) > 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("lat, imp, hull", [
    # (18 - 12) * 5.6e307 and (20 - 12) * 2.2e307 both overflow to inf,
    # which dropped the vertex at 2.2e307.
    ([0.0, 1.1235582092889474e307, 2.247116418577895e307, 5.617791046444737e307],
     [12.0, 14.0, 18.0, 20.0], [0, 2, 3]),
    # Every cross product underflows to 0.0.
    ([0.0, 1e-200, 4e-200], [0.0, 3e-200, 4e-200], [0, 1, 2]),
], ids=["overflow", "underflow"])
def test_hull_keeps_vertices_whose_cross_products_leave_float64(lat, imp, hull):
    """The vertices are those of the same points at ordinary magnitudes."""
    assert solver._hull(np.array(lat), np.array(imp)).tolist() == hull
    assert solver._hull(np.array(lat) / lat[-1], np.array(imp) / imp[-1]).tolist() == hull
