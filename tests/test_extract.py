import copy
import json
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from latprune import (
    Assignment,
    LatencyTable,
    TableSet,
    ValidationError,
    build_all_vectors,
    extract_structure,
    solve,
    solve_exhaustive,
    summarize,
)
from latprune.arch import dump_json
from latprune.extract import serialize_structure, top_elements

from conftest import (
    BlockSpec,
    conv_dim,
    make_arch,
    random_problem,
    random_scores,
    random_tables,
    trunk_dim,
)


def scored_inputs(removable=True):
    """(arch, vectors, tables) of a one-block chain, and its raw scores."""
    dims = [trunk_dim("t"), conv_dim("c1", 3)]
    blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=removable, input_ref="t")]
    arch = make_arch(dims, blocks)
    raw = {
        "t": np.zeros(4),
        "c1": np.array([0.2, 0.9, 0.5]),
    }
    vectors = build_all_vectors(arch, raw)
    tables = TableSet()
    tables.add(
        LatencyTable(block_id=1, part="conv_layer", layer=1, axes=("t", "c1"),
                     data=np.array([[1.0, 2.0, 3.0]])),
    )
    return (arch, vectors, tables), raw


@st.composite
def cut_cases(draw):
    """(scores, count, cut): many ties, and a cut that is the count-th
    largest score, another score, any float or None."""
    scores = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1.0, 0.5, 2.0, 1e308, -1e308]),
                           min_size=1, max_size=60))
    count = draw(st.integers(1, len(scores)))
    ranked = sorted(scores, reverse=True)
    cut = draw(st.sampled_from([ranked[count - 1], None]) | st.sampled_from(scores) | st.floats())
    return scores, count, cut


class TestExtract:
    def test_keeps_highest_scoring_elements(self):
        inputs, raw = scored_inputs()
        assignment = Assignment(omega={"c1": 2}, kappa={1: 1})
        structure = extract_structure(assignment, *inputs, raw)
        dim = structure["blocks"][0]["dims"][0]
        # Scores [0.2, 0.9, 0.5]: top-2 are elements 2 and 3 (1-based).
        assert dim["kept_elements"] == [2, 3]
        assert dim["kept_count"] == 2

    def test_removed_block_absent_regardless_of_options(self):
        inputs, raw = scored_inputs()
        assignment = Assignment(omega={"c1": 3}, kappa={1: 0})
        structure = extract_structure(assignment, *inputs, raw)
        assert structure["blocks"][0]["kept"] is False
        assert structure["blocks"][0]["dims"] == []
        assert structure["degenerate"] is True

    def test_infeasible_solution_rejected(self):
        # An infeasible solve's assignment is None.
        inputs, raw = scored_inputs()
        with pytest.raises(ValidationError, match="infeasible"):
            extract_structure(None, *inputs, raw)

    def test_missing_scores_for_retained_dim(self):
        inputs, raw = scored_inputs()
        del raw["c1"]
        assignment = Assignment(omega={"c1": 1}, kappa={1: 1})
        with pytest.raises(ValidationError, match="c1"):
            extract_structure(assignment, *inputs, raw)

    def test_wrong_score_count_named(self):
        inputs, raw = scored_inputs()
        raw["c1"] = np.array([0.2, 0.9])
        assignment = Assignment(omega={"c1": 1}, kappa={1: 1})
        with pytest.raises(ValidationError, match="scores for 'c1': expected 3 values, found 2"):
            extract_structure(assignment, *inputs, raw)

    @given(
        scores=st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1.0, 0.5, 2.0, 1e308, -1e308]),
                        min_size=1, max_size=60),
        data=st.data(),
    )
    def test_kept_elements_equal_the_sorted_ranked_prefix(self, scores, data):
        # Many tied scores (0.0 and -0.0 among them): the kept set must follow
        # the index tie-break of numpy's stable sort, the ranking it replaced.
        n = len(scores)
        arch = make_arch(
            [trunk_dim("t"), conv_dim("c1", n)],
            [BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=False, input_ref="t")],
        )
        raw = {"t": np.zeros(4), "c1": np.array(scores)}
        tables = TableSet()
        tables.add(LatencyTable(block_id=1, part="conv_layer", layer=1, axes=("t", "c1"),
                                data=np.ones((1, n))))
        vectors = build_all_vectors(arch, raw)
        count = data.draw(st.integers(1, n), label="option")
        assignment = Assignment(omega={"c1": count}, kappa={})
        structure = extract_structure(assignment, arch, vectors, tables, raw)
        kept = structure["blocks"][0]["dims"][0]["kept_elements"]
        want = np.sort(np.argsort(-np.array(scores), kind="stable")[:count]) + 1
        assert kept == want.tolist()
        assert all(type(i) is int for i in kept)

    # A cut above the count-th largest score that some element equals; the
    # count-th largest itself among ties of 0.0 and -0.0.
    @example(case=([2.0, 0.5, -1.0], 2, 2.0))
    @example(case=([0.0, -0.0, 0.5, -0.0], 2, -0.0))
    @given(case=cut_cases())
    def test_any_cut_selects_as_the_stable_sort(self, case):
        # The cut is a hint: the count-th largest score spares a sort, and
        # any other value (or none) selects the same elements.
        scores, count, cut = case
        want = np.sort(np.argsort(-np.array(scores), kind="stable")[:count]) + 1
        got = top_elements(array("d", scores), count, cut)
        assert got == want.tolist() and all(type(i) is int for i in got)

    @pytest.mark.parametrize("seed", range(10))
    def test_totals_reproduce_solver_values_exactly(self, seed):
        rng = np.random.default_rng(5000 + seed)
        problem, raw = random_problem(rng)
        sol = solve(problem)
        if sol.status == "infeasible":
            return
        structure = extract_structure(
            sol.assignment, problem.arch, problem.vectors, problem.tables, raw
        )
        assert structure["importance"] == sol.importance
        assert structure["latency_ms"] == sol.latency

    def test_kept_counts_and_lists_are_consistent(self):
        rng = np.random.default_rng(88)
        problem, raw = random_problem(rng)
        sol = solve_exhaustive(problem)
        if sol.status == "infeasible":
            return
        structure = extract_structure(
            sol.assignment, problem.arch, problem.vectors, problem.tables, raw
        )
        from latprune import kept_elements

        for block_out, block in zip(structure["blocks"], problem.arch.blocks):
            if not block_out["kept"]:
                continue
            for dim_out in block_out["dims"]:
                dim = problem.arch.dims[dim_out["dim_id"]]
                kept = dim_out["kept_elements"]
                assert dim_out["kept_count"] == kept_elements(dim, dim_out["option"])
                assert len(kept) == dim_out["kept_count"]
                assert len(set(kept)) == dim_out["kept_count"]
                assert all(1 <= e <= dim.max_elements for e in kept)
                assert kept == sorted(kept)

    def test_importance_matches_sum_of_kept_scores(self):
        rng = np.random.default_rng(89)
        problem, raw = random_problem(rng)
        sol = solve_exhaustive(problem)
        if sol.status == "infeasible":
            return
        structure = extract_structure(
            sol.assignment, problem.arch, problem.vectors, problem.tables, raw
        )
        total = 0.0
        for block_out in structure["blocks"]:
            for dim_out in block_out["dims"]:
                scores = raw[dim_out["dim_id"]]
                total += float(sum(scores[e - 1] for e in dim_out["kept_elements"]))
        assert total == pytest.approx(structure["importance"], rel=1e-9, abs=1e-9)


class TestSummarize:
    def _structure(self, kappa):
        dims = [trunk_dim("t")] + [conv_dim(f"c{i}", 2) for i in range(1, 5)]
        blocks = [
            BlockSpec(id=i, kind="cnn_chain", dims=(f"c{i}",), removable=True, input_ref="t")
            for i in range(1, 5)
        ]
        arch = make_arch(dims, blocks)
        rng = np.random.default_rng(0)
        raw = random_scores(arch, rng)
        vectors = build_all_vectors(arch, raw)
        tables = random_tables(arch, rng)
        assignment = Assignment(omega={f"c{i}": 1 for i in range(1, 5)}, kappa=dict(kappa))
        return extract_structure(assignment, arch, vectors, tables, raw)

    def test_depth_line_counts_removals(self):
        structure = self._structure({1: 1, 2: 0, 3: 1, 4: 0})
        text, csv = summarize(structure)
        assert "depth 2/4" in text
        assert "block 2 (cnn_chain): removed" in text
        assert csv.count("\n") == 5  # header + 4 block rows

    def test_degenerate_network_flagged(self):
        structure = self._structure({1: 0, 2: 0, 3: 0, 4: 0})
        text, _ = summarize(structure)
        assert "degenerate" in text

    def test_golden_summary(self, tmp_path):
        from pathlib import Path

        golden = Path(__file__).parent / "golden" / "summary_fixed_seed.txt"
        structure = self._structure({1: 1, 2: 0, 3: 1, 4: 0})
        text, csv = summarize(structure)
        payload = text + "---\n" + csv
        assert golden.exists(), f"golden file {golden} is missing"
        assert payload == golden.read_text()


class TestSerialize:
    def test_structure_json_round_trip_fields(self):
        inputs, raw = scored_inputs()
        assignment = Assignment(omega={"c1": 2}, kappa={1: 1})
        structure = extract_structure(assignment, *inputs, raw)
        obj = json.loads(serialize_structure(structure, manifest="abc"))
        assert obj["_manifest"] == "abc"
        assert obj["depth_kept"] == 1
        assert obj["blocks"][0]["dims"][0]["kept_elements"] == [2, 3]

    def test_stamping_leaves_the_plain_structure_as_it_is(self):
        inputs, raw = scored_inputs()
        assignment = Assignment(omega={"c1": 2}, kappa={1: 1})
        structure = extract_structure(assignment, *inputs, raw)
        assert set(structure) == {"name", "importance", "latency_ms", "depth_kept",
                                  "depth_total", "degenerate", "blocks"}
        block = structure["blocks"][0]
        assert set(block) == {"block_id", "kind", "kept", "dims"}
        assert set(block["dims"][0]) == {"dim_id", "role", "option", "kept_count",
                                         "max_elements", "kept_elements"}
        before = copy.deepcopy(structure)
        text = serialize_structure(structure, manifest="abc")
        assert structure == before
        assert json.loads(text) == {**before, "_manifest": "abc"}
        assert serialize_structure(structure) == dump_json(before)
