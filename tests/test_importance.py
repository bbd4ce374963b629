import json
import re
import sys
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latprune import (
    Assignment,
    ValidationError,
    build_all_vectors,
    build_importance_vector,
    objective_value,
    parse_scores,
    serialize_scores,
    synth_scores,
)
from latprune.arch import checked_vectors, kept_counts, kept_elements
from latprune.importance import FOLD_FROM, checked_scores

from conftest import (
    BlockSpec,
    conv_dim,
    dense_assignment,
    make_arch,
    random_architecture,
    random_problem,
    random_scores,
    trunk_dim,
)


def vec(values):
    return np.asarray(values, dtype=float)


# Scores whose order or sums a reader can get wrong: ties, both zeros, the
# smallest subnormals and values whose sums overflow to infinity.
EDGE_SCORES = [0.0, -0.0, 5e-324, -5e-324, 1.0, -2.5, 1e308, -1e308]

# The two ways `build_importance_vector` folds, as `mock.patch.dict(sys.modules,
# state)` states: numpy loaded, as in a solve, and every import of it
# failing, as in a check.
NUMPY_STATES = ({}, {"numpy": None})


def assert_folded_as_the_stable_sort(scores, group):
    """The vector is numpy's cumulative sum in stable descending order, read
    at the kept counts (the formulation the reader replaced), bit for bit,
    and its cutoffs are the sorted scores there: folded by numpy, as in a
    process that has it loaded, and by the standard library, as in one that
    has not."""
    x = np.array(scores, dtype=np.float64)
    dim = conv_dim("d", -(-x.size // group), group=group, max_elements=x.size)
    kept = np.array([kept_elements(dim, j) for j in range(1, dim.option_count + 1)])
    ordered = x[np.argsort(-x, kind="stable")]
    with np.errstate(over="ignore"):
        want = np.cumsum(ordered)[kept - 1]
    for state in NUMPY_STATES:
        with mock.patch.dict(sys.modules, state):
            got = build_importance_vector(array("d", scores), dim)
        assert isinstance(got.values, array) and got.values.typecode == "d"
        assert got.values.tobytes() == want.tobytes()
        assert got.cutoffs.tobytes() == ordered[kept - 1].tobytes()


class TestVectorsAgainstTheStableSort:
    @example([1.0, 0.0, -0.0] * 20, 1)
    @example([-0.0, 0.0, -0.0], 1)
    @example([1e308, 1e308, -1e308, 5e-324], 1)
    @given(st.lists(st.sampled_from(EDGE_SCORES), min_size=1, max_size=300), st.integers(1, 8))
    def test_tied_scores_fold_as_the_stable_sort(self, scores, group):
        assert_folded_as_the_stable_sort(scores, group)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300,
                    unique=True), st.integers(1, 8))
    def test_distinct_scores_fold_as_the_stable_sort(self, scores, group):
        assert_folded_as_the_stable_sort(scores, group)


class TestBuildVector:
    def test_prefix_sums_of_descending_sort(self):
        dim = conv_dim("d", 3)
        out = build_importance_vector(vec([0.2, 0.9, 0.5]), dim)
        assert np.allclose(out.values, [0.9, 1.4, 1.6])

    def test_uniform_scores_with_grouping(self):
        dim = conv_dim("d", 2, group=2, max_elements=4)
        out = build_importance_vector(vec([1, 1, 1, 1]), dim)
        assert np.allclose(out.values, [2.0, 4.0])

    def test_negative_scores_allowed(self):
        dim = conv_dim("d", 2)
        out = build_importance_vector(vec([0.5, -0.1]), dim)
        assert np.allclose(out.values, [0.5, 0.4])
        assert out.values[1] < out.values[0]

    def test_length_mismatch(self):
        dim = conv_dim("d", 3)
        with pytest.raises(ValidationError, match="expected 3"):
            build_importance_vector(vec([1.0, 2.0]), dim)

    def test_clamped_option_sums_all_elements(self):
        dim = conv_dim("d", 2, group=2, max_elements=3)
        out = build_importance_vector(vec([3.0, 1.0, 2.0]), dim)
        assert np.allclose(out.values, [5.0, 6.0])

    # A last option that clamps to max_elements, and one that does not.
    @example(options=3, group=4, short=3, seed=0)
    @example(options=3, group=4, short=0, seed=0)
    @given(st.integers(1, 12), st.integers(1, 8), st.integers(0, 7), st.integers(0, 2**32 - 1))
    def test_vector_equals_the_per_option_loop(self, options, group, short, seed):
        dim = conv_dim("d", options, group=group,
                       max_elements=options * group - min(short, group - 1))
        scores = np.random.default_rng(seed).normal(size=dim.max_elements)
        kept = [kept_elements(dim, j) for j in range(1, options + 1)]
        assert kept_counts(dim).tolist() == kept
        prefix = np.cumsum(np.sort(scores)[::-1])
        want = np.array([prefix[k - 1] for k in kept])
        got = build_importance_vector(vec(scores), dim).values
        assert got.tobytes() == want.tobytes()

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
    def test_nonnegative_scores_give_nondecreasing_vector(self, scores):
        dim = conv_dim("d", len(scores))
        out = build_importance_vector(vec(scores), dim)
        assert np.all(np.diff(out.values) >= -0.0)

    @settings(max_examples=30)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=10), st.randoms())
    def test_permutation_invariance(self, scores, pyrandom):
        dim = conv_dim("d", len(scores))
        base = build_importance_vector(vec(scores), dim)
        shuffled = list(scores)
        pyrandom.shuffle(shuffled)
        again = build_importance_vector(vec(shuffled), dim)
        assert np.allclose(base.values, again.values, rtol=0, atol=1e-12)


def outcome(check, *args) -> str:
    """"OK", or "FAIL" and the message of the ValidationError `check` raises."""
    try:
        check(*args)
    except ValidationError as exc:
        return f"FAIL {exc}"
    return "OK"


def fold_and_check(arch, raw_scores):
    """What ``checked_scores`` stands in for."""
    return checked_vectors(arch, build_all_vectors(arch, raw_scores))


# Magnitudes from 0 to 1.7e308, two thirds of them within a few powers of
# two of the largest float64, where a fold may overflow or may not; of
# those, half are of one sign and above 2**1022, so that two of them in a
# sum overflow.
LARGE_SCORES = st.one_of(
    st.floats(-1.7e308, 1.7e308),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(1012, 1023)),
    st.floats(2.0**1022, 1.7e308),
)


class TestCheckedScores:
    """`checked_scores` bounds the importance vectors' totals instead of
    folding the scores; its outcome is that of folding them and checking
    the vectors, the order of its messages included."""

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1),
           st.one_of(st.none(), st.sampled_from(["missing", "short", "undeclared"])), st.data())
    def test_outcome_is_that_of_folding(self, seed, edit, data):
        arch = random_architecture(np.random.default_rng(seed), max_blocks=2)
        raw = {dim.id: array("d", data.draw(st.lists(
                   LARGE_SCORES, min_size=dim.max_elements, max_size=dim.max_elements)))
               for dim in arch.dims.values()}
        dim_id = data.draw(st.sampled_from(sorted(raw)))
        if edit == "missing":
            del raw[dim_id]
        elif edit == "short":
            raw[dim_id] = raw[dim_id][:-1] if len(raw[dim_id]) > 1 else raw[dim_id] * 2
        elif edit == "undeclared":
            raw["undeclared"] = array("d", [1.0])
        assert outcome(checked_scores, arch, raw) == outcome(fold_and_check, arch, raw)

    @pytest.mark.parametrize("scores, folded, ok", [
        ([2.0**1018, 0.0], False, True),
        ([2.0**1019 * (1 - 2**-53), -0.0], False, True),  # the bound one ulp below FOLD_FROM
        ([0.0, -2.0**1019], True, True),  # at FOLD_FROM: folded, and the total is finite
        ([1.7e308, -1.7e308], True, True),  # past it, and the sums cancel
        ([1.7e308, 1.7e308], True, False),  # past it, and the second option overflows
    ], ids=["below", "one-ulp-below", "at", "cancelling", "overflowing"])
    def test_folds_only_from_the_bound(self, folds, scores, folded, ok):
        arch = make_arch([trunk_dim("trunk", 2), conv_dim("c", 2)],
                         [BlockSpec(id=1, kind="cnn_chain", dims=("c",), removable=False,
                                    input_ref="trunk")])
        raw = {"trunk": array("d", [0.0, 0.0]), "c": array("d", scores)}
        assert (2 * max(map(abs, scores)) >= FOLD_FROM) == folded
        got = outcome(checked_scores, arch, raw)
        assert bool(folds) == folded
        assert got == outcome(fold_and_check, arch, raw)
        assert (got == "OK") == ok

    def test_returns_the_scores(self):
        arch = make_arch([trunk_dim("trunk", 2)], [])
        raw = {"trunk": array("d", [1.0, 2.0])}
        assert checked_scores(arch, raw) is raw


class TestObjective:
    def _two_dim_arch(self):
        dims = [trunk_dim("t"), conv_dim("c1", 2), conv_dim("c2", 2)]
        blocks = [
            BlockSpec(id=1, kind="cnn_chain", dims=("c1", "c2"), removable=True, input_ref="t")
        ]
        return make_arch(dims, blocks)

    def test_simple_sum(self):
        arch = self._two_dim_arch()
        vectors = {
            "t": build_importance_vector(vec([0.0] * 4), arch.dim("t")),
            "c1": build_importance_vector(vec([1.4, 0.1]), arch.dim("c1")),
            "c2": build_importance_vector(vec([2.0, 0.5]), arch.dim("c2")),
        }
        asg = Assignment(omega={"c1": 1, "c2": 1}, kappa={1: 1})
        assert objective_value(asg, vectors, arch) == pytest.approx(3.4)

    def test_removed_block_contributes_zero(self):
        arch = self._two_dim_arch()
        vectors = {
            "t": build_importance_vector(vec([0.0] * 4), arch.dim("t")),
            "c1": build_importance_vector(vec([1.4, 0.1]), arch.dim("c1")),
            "c2": build_importance_vector(vec([2.0, 0.5]), arch.dim("c2")),
        }
        asg = Assignment(omega={"c1": 1, "c2": 1}, kappa={1: 0})
        assert objective_value(asg, vectors, arch) == 0.0

    def test_matches_plain_python_recomputation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            problem, _ = random_problem(rng, signed_scores=True)
            arch = problem.arch
            asg = Assignment(
                omega={
                    d: int(rng.integers(1, arch.dims[d].option_count + 1))
                    for b in arch.blocks
                    for d in b.dims
                },
                kappa={b.id: int(rng.integers(0, 2)) for b in arch.blocks if b.removable},
            )
            got = objective_value(asg, problem.vectors, arch)
            want = sum(
                sum(float(problem.vectors[d].values[asg.omega[d] - 1]) for d in b.dims)
                for b in arch.blocks
                if asg.kappa_of(b) == 1
            )
            assert got == pytest.approx(want, rel=1e-12)

    def test_gating_delta_is_block_partial_sum(self):
        rng = np.random.default_rng(3)
        removable = []
        while not removable:
            problem, _ = random_problem(rng)
            arch = problem.arch
            removable = [b for b in arch.blocks if b.removable]
        asg = dense_assignment(arch)
        block = removable[0]
        with_block = objective_value(asg, problem.vectors, arch)
        partial = sum(
            float(problem.vectors[d].values[asg.omega[d] - 1]) for d in block.dims
        )
        asg.kappa[block.id] = 0
        without = objective_value(asg, problem.vectors, arch)
        assert with_block - without == pytest.approx(partial, rel=1e-12)

    def test_missing_vector_raises(self):
        arch = self._two_dim_arch()
        asg = Assignment(omega={"c1": 1, "c2": 1}, kappa={1: 1})
        with pytest.raises(ValidationError, match="c2"):
            objective_value(asg, {"c1": build_importance_vector(vec([1, 2]), arch.dim("c1"))}, arch)

    def test_option_out_of_range_named(self):
        arch = self._two_dim_arch()
        vectors = build_all_vectors(arch, {d: vec([1.0] * arch.dims[d].max_elements)
                                           for d in arch.dims})
        asg = Assignment(omega={"c1": 1, "c2": 3}, kappa={1: 1})
        with pytest.raises(ValidationError, match=r"'c2': option 3 out of range \[1, 2\]"):
            objective_value(asg, vectors, arch)

    def test_scaling_by_power_of_two_is_exact(self):
        rng = np.random.default_rng(9)
        arch = random_architecture(rng)
        raw = random_scores(arch, rng)
        scaled_raw = {d: 4.0 * r for d, r in raw.items()}
        vectors = build_all_vectors(arch, raw)
        scaled = build_all_vectors(arch, scaled_raw)
        asg = dense_assignment(arch)
        assert 4.0 * objective_value(asg, vectors, arch) == objective_value(
            asg, scaled, arch
        )


class TestParseScores:
    def test_single_dim(self):
        out = parse_scores(json.dumps([{"dim_id": "a", "scores": [1.0, 2.0, 3.0]}]))
        assert set(out) == {"a"}
        assert out["a"] == array("d", [1.0, 2.0, 3.0])

    def test_duplicate_dim_rejected(self):
        doc = json.dumps(
            [
                {"dim_id": "a", "scores": [1.0]},
                {"dim_id": "a", "scores": [2.0]},
            ]
        )
        with pytest.raises(ValidationError, match="'a'"):
            parse_scores(doc)

    def test_non_finite_value_reports_element(self):
        with pytest.raises(ValidationError, match="element 1"):
            parse_scores(json.dumps([{"dim_id": "a", "scores": [1.0, float("nan")]}]))

    # Finite scores whose sum overflows before the first non-finite one.
    @example([1e308, 1e308, float("inf")])
    @example([1e308, 1e308])
    @given(st.lists(st.sampled_from(EDGE_SCORES + [float("nan"), float("inf"), -float("inf")]),
                    min_size=1, max_size=50))
    def test_first_non_finite_element_is_the_one_numpy_finds(self, scores):
        x = np.array(scores)
        document = json.dumps([{"dim_id": "a", "scores": scores}])
        if np.isfinite(x).all():
            assert parse_scores(document)["a"].tobytes() == x.tobytes()
            return
        k = int(np.flatnonzero(~np.isfinite(x))[0])
        with pytest.raises(ValidationError,
                           match=re.escape(f"non-finite value at element {k}: {x[k]}")):
            parse_scores(document)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        arch = random_architecture(rng)
        scores = synth_scores(arch, 17)
        again = parse_scores(serialize_scores(scores))
        assert set(again) == set(scores)
        for d in scores:
            assert np.array_equal(again[d], scores[d])

    def test_non_finite_score_is_not_written(self):
        # A bare NaN token would be invalid JSON that parse_scores rejects.
        with pytest.raises(ValueError):
            serialize_scores({"a": np.array([float("nan"), 1.0])})


class TestSynthScores:
    def test_deterministic(self):
        rng = np.random.default_rng(1)
        arch = random_architecture(rng)
        a = synth_scores(arch, 123)
        b = synth_scores(arch, 123)
        for d in a:
            assert np.array_equal(a[d], b[d])

    def test_uniform_range(self):
        rng = np.random.default_rng(2)
        arch = random_architecture(rng)
        scores = synth_scores(arch, 9, "uniform01")
        for s in scores.values():
            assert 0.0 <= min(s) and max(s) < 1.0

    def test_exponential_mean(self):
        dims = [trunk_dim("t"), conv_dim("c", 10_000, group=1)]
        blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c",), removable=False, input_ref="t")]
        arch = make_arch(dims, blocks)
        scores = synth_scores(arch, 0, "exponential")
        mean = float(np.mean(scores["c"]))
        assert abs(mean - 1.0) < 0.05

    def test_unknown_distribution(self):
        rng = np.random.default_rng(2)
        arch = random_architecture(rng)
        with pytest.raises(ValidationError):
            synth_scores(arch, 0, "lognormal")

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, True, "0", None])
    def test_seed_not_a_non_negative_integer_rejected(self, seed):
        arch = random_architecture(np.random.default_rng(2))
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            synth_scores(arch, seed)

    def test_numpy_integer_seed_draws_as_int(self):
        arch = random_architecture(np.random.default_rng(2))
        a, b = synth_scores(arch, np.int64(7)), synth_scores(arch, 7)
        for d in a:
            assert np.array_equal(a[d], b[d])
