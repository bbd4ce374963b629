import base64
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latprune import (
    Assignment,
    LatencyModelParams,
    LatencyTable,
    ParseError,
    SolveError,
    TableSet,
    ValidationError,
    constraint_value,
    estimation_error,
    linear_channel_cost,
    parse_lut,
    replay_trajectory,
    serialize_lut,
    synth_lut,
)
from latprune.latency import _largest

from conftest import (
    BlockSpec,
    conv_dim,
    dense_assignment,
    make_arch,
    random_architecture,
    random_tables,
    trunk_dim,
)
from oracles import embed_decomposed, joint_constraint_value


def single_conv_arch(options=3, removable=True):
    dims = [trunk_dim("t"), conv_dim("c1", options)]
    blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=removable, input_ref="t")]
    return make_arch(dims, blocks)


def two_layer_arch(opt1=3, opt2=3, removable=False):
    dims = [trunk_dim("t"), conv_dim("c1", opt1), conv_dim("c2", opt2)]
    blocks = [
        BlockSpec(id=1, kind="cnn_chain", dims=("c1", "c2"), removable=removable, input_ref="t")
    ]
    return make_arch(dims, blocks)


def conv_table(block_id, layer, axes, data):
    return LatencyTable(
        block_id=block_id, part="conv_layer", layer=layer, axes=axes,
        data=np.asarray(data, dtype=float),
    )


class TestConstraintValue:
    def test_two_layer_lookup(self):
        arch = two_layer_arch()
        tables = TableSet()
        tables.add(conv_table(1, 1, ("t", "c1"), [[1.0, 2.0, 3.0]]))
        tables.add(conv_table(1, 2, ("c1", "c2"), [[1, 2, 3], [2, 4, 6], [3, 6, 9]]))
        asg = Assignment(omega={"c1": 2, "c2": 3})
        # First layer reads its fixed input row; second layer reads (2, 3).
        assert constraint_value(asg, tables, arch) == pytest.approx(2.0 + 6.0)

    def test_removed_block_is_zero(self):
        arch = two_layer_arch(removable=True)
        tables = TableSet()
        tables.add(conv_table(1, 1, ("t", "c1"), [[1.0, 2.0, 3.0]]))
        tables.add(conv_table(1, 2, ("c1", "c2"), [[1, 2, 3], [2, 4, 6], [3, 6, 9]]))
        asg = Assignment(omega={"c1": 2, "c2": 3}, kappa={1: 0})
        assert constraint_value(asg, tables, arch) == 0.0

    def test_chained_input_uses_producer_choice(self):
        dims = [trunk_dim("t"), conv_dim("a1", 2), conv_dim("b1", 2)]
        blocks = [
            BlockSpec(id=1, kind="cnn_chain", dims=("a1",), removable=False, input_ref="t"),
            BlockSpec(id=2, kind="cnn_chain", dims=("b1",), removable=False, input_ref="a1"),
        ]
        arch = make_arch(dims, blocks)
        tables = TableSet()
        tables.add(conv_table(1, 1, ("t", "a1"), [[1.0, 2.0]]))
        tables.add(conv_table(2, 1, ("a1", "b1"), [[10.0, 20.0], [30.0, 40.0]]))
        asg = Assignment(omega={"a1": 2, "b1": 1})
        assert constraint_value(asg, tables, arch) == pytest.approx(2.0 + 30.0)

    def test_missing_table_raises(self):
        arch = two_layer_arch()
        tables = TableSet()
        tables.add(conv_table(1, 1, ("t", "c1"), [[1.0, 2.0, 3.0]]))
        asg = Assignment(omega={"c1": 1, "c2": 1})
        with pytest.raises(ValidationError, match="layer 2"):
            constraint_value(asg, tables, arch)

    def test_get_of_a_missing_part_names_block_and_part(self):
        tables = TableSet()
        tables.add(conv_table(1, 1, ("t", "c1"), [[1.0, 2.0, 3.0]]))
        assert tables.get(1, "conv_layer", 1).layer == 1
        with pytest.raises(ValidationError, match=r"^block 1: missing conv_layer 2 table$"):
            tables.get(1, "conv_layer", 2)
        with pytest.raises(ValidationError, match=r"^block 3: missing mlp table$"):
            tables.get(3, "mlp")

    def test_nonnegative_for_random_assignments(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            arch = random_architecture(rng)
            tables = random_tables(arch, rng)
            asg = Assignment(
                omega={
                    d: int(rng.integers(1, arch.dims[d].option_count + 1))
                    for b in arch.blocks
                    for d in b.dims
                },
                kappa={b.id: int(rng.integers(0, 2)) for b in arch.blocks if b.removable},
            )
            assert constraint_value(asg, tables, arch) >= 0.0


class TestJointForm:
    def test_one_hot_picks_single_entry(self):
        arch = single_conv_arch(options=2, removable=False)
        tensor = np.array([5.0, 7.0])
        asg = Assignment(omega={"c1": 2})
        assert joint_constraint_value(asg, {1: tensor}, arch) == 7.0

    def test_removed_block_is_zero(self):
        arch = single_conv_arch(options=2, removable=True)
        tensor = np.array([5.0, 7.0])
        asg = Assignment(omega={"c1": 2}, kappa={1: 0})
        assert joint_constraint_value(asg, {1: tensor}, arch) == 0.0

    def test_guard_on_huge_tensor(self):
        dims = [trunk_dim("t")] + [conv_dim(f"c{i}", 500) for i in range(1, 4)]
        blocks = [
            BlockSpec(
                id=1, kind="cnn_chain", dims=("c1", "c2", "c3"),
                removable=False, input_ref="t",
            )
        ]
        arch = make_arch(dims, blocks)
        asg = Assignment(omega={"c1": 1, "c2": 1, "c3": 1})
        big = np.zeros((500, 500, 500))
        with pytest.raises(SolveError, match="guard"):
            joint_constraint_value(asg, {1: big}, arch)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_decomposed_on_sum_embeddings(self, seed):
        rng = np.random.default_rng(1000 + seed)
        arch = random_architecture(rng, allow_chain=False, state_cap=3000)
        tables = random_tables(arch, rng)
        full = {b.id: embed_decomposed(arch, b, tables) for b in arch.blocks}
        for _ in range(5):
            asg = Assignment(
                omega={
                    d: int(rng.integers(1, arch.dims[d].option_count + 1))
                    for b in arch.blocks
                    for d in b.dims
                },
                kappa={b.id: int(rng.integers(0, 2)) for b in arch.blocks if b.removable},
            )
            decomposed = constraint_value(asg, tables, arch)
            joint = joint_constraint_value(asg, full, arch)
            assert joint == pytest.approx(decomposed, rel=1e-12, abs=1e-12)

    def test_gating_additivity(self):
        rng = np.random.default_rng(77)
        removable = []
        while not removable:
            arch = random_architecture(rng)
            removable = [b for b in arch.blocks if b.removable]
        tables = random_tables(arch, rng)
        asg = dense_assignment(arch)
        block = removable[0]
        from latprune.latency import block_latency

        partial = block_latency(asg, tables, arch, block)
        before = constraint_value(asg, tables, arch)
        asg.kappa[block.id] = 0
        after = constraint_value(asg, tables, arch)
        assert before - after == pytest.approx(partial, rel=1e-12)

    @pytest.mark.parametrize("option", [0, 4])
    def test_option_off_the_table_named(self, option):
        from latprune.latency import block_latency

        arch = single_conv_arch()
        tables = TableSet()
        tables.add(conv_table(1, 1, ("t", "c1"), [[1.0, 2.0, 3.0]]))
        with pytest.raises(ValidationError, match=rf"block 1 conv_layer 1: choice {option} "
                                                  r"out of range on axis 1 \(size 3\)"):
            block_latency(Assignment(omega={"c1": option}), tables, arch, arch.blocks[0])


class TestSynthLut:
    def test_product_form_without_noise(self):
        arch = two_layer_arch(opt1=2, opt2=2)
        params = LatencyModelParams(unit_cost=1.0, overhead=1e-9, tile=1, spatial=1.0)
        tables = synth_lut(arch, params, seed=0, noise=0.0)
        second = tables.get(1, "conv_layer", 2)
        assert np.allclose(second.data, [[1.0, 2.0], [2.0, 4.0]], atol=1e-6)

    def test_tile_plateau(self):
        dims = [trunk_dim("t", 64), conv_dim("c1", 2, group=33, max_elements=64)]
        blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1",), removable=False, input_ref="t")]
        arch = make_arch(dims, blocks)
        params = LatencyModelParams(unit_cost=1.0, overhead=0.01, tile=32, spatial=1.0)
        tables = synth_lut(arch, params, seed=0, noise=0.0)
        data = tables.get(1, "conv_layer", 1).data
        # Kept counts 33 and 64 both round up to 64 effective channels.
        assert data[0, 0] == data[0, 1]

    def test_noise_is_deterministic(self):
        rng = np.random.default_rng(8)
        arch = random_architecture(rng)
        params = LatencyModelParams()
        a = synth_lut(arch, params, seed=5, noise=0.02)
        b = synth_lut(arch, params, seed=5, noise=0.02)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, True, "0", None])
    def test_seed_not_a_non_negative_integer_rejected(self, seed):
        arch = two_layer_arch(opt1=2, opt2=2)
        with pytest.raises(ValidationError, match="seed must be a non-negative integer"):
            synth_lut(arch, LatencyModelParams(), seed)

    @pytest.mark.parametrize("field", ["unit_cost", "overhead", "spatial"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_model_parameter_not_finite_positive_named(self, field, value):
        params = LatencyModelParams(**{field: value})
        with pytest.raises(ValidationError, match=f"parameter {field} must be finite and positive"):
            synth_lut(two_layer_arch(opt1=2, opt2=2), params, seed=0)

    @pytest.mark.parametrize(
        "tile", [0, -8, np.int64(0), 8.0, True, False, "8", None],
        ids=["0", "-8", "int64-0", "float-8", "True", "False", "str-8", "None"],
    )
    def test_tile_not_a_positive_integer_named(self, tile):
        with pytest.raises(ValidationError, match=r"parameter tile must be a positive integer, got "
                           + re.escape(repr(tile))):
            LatencyModelParams(tile=tile).validate()

    @pytest.mark.parametrize("tile", [np.int64(8), np.int32(1)])
    def test_numpy_integer_tile_prices_as_its_int(self, tile):
        arch = two_layer_arch(opt1=2, opt2=2)
        got = synth_lut(arch, LatencyModelParams(tile=tile), seed=0)
        want = synth_lut(arch, LatencyModelParams(tile=int(tile)), seed=0)
        for a, b in zip(got, want):
            assert np.array_equal(a.data, b.data)

    def test_monotone_along_every_axis_without_noise(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            arch = random_architecture(rng)
            tables = synth_lut(arch, LatencyModelParams(), seed=3, noise=0.0)
            for table in tables:
                for axis in range(table.data.ndim):
                    assert np.all(np.diff(table.data, axis=axis) >= 0)

    def test_transformer_parts_present(self):
        rng = np.random.default_rng(30)
        arch = None
        while arch is None or all(b.kind != "transformer" for b in arch.blocks):
            arch = random_architecture(rng)
        tables = synth_lut(arch, LatencyModelParams(), seed=1)
        block = next(b for b in arch.blocks if b.kind == "transformer")
        assert tables.get(block.id, "qk").data.ndim == 3
        assert tables.get(block.id, "vproj").data.ndim == 3
        assert tables.get(block.id, "mlp").data.ndim == 2


class TestLinearModel:
    def table_row2(self):
        return conv_table(1, 1, ("a", "b"), [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])

    def test_difference_of_adjacent_entries(self):
        assert linear_channel_cost(self.table_row2(), 2, 2) == pytest.approx(2.0)

    def test_first_option_measures_from_zero(self):
        assert linear_channel_cost(self.table_row2(), 2, 1) == pytest.approx(2.0)

    def test_telescoping_sum(self):
        table = self.table_row2()
        total = sum(linear_channel_cost(table, 2, j) for j in (1, 2, 3))
        assert total == pytest.approx(float(table.data[1, 2]))

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            linear_channel_cost(self.table_row2(), 3, 1)
        with pytest.raises(ValidationError):
            linear_channel_cost(self.table_row2(), 1, 0)

    def test_transformer_table_refused(self):
        table = LatencyTable(block_id=2, part="mlp", axes=("e", "m"), data=np.ones((2, 2)))
        with pytest.raises(ValidationError, match="block 2 mlp: linear model applies to conv"):
            linear_channel_cost(table, 1, 1)


class TestEstimationError:
    def test_identical_rows_give_zero(self):
        table = conv_table(1, 1, ("a", "b"), [[1.0, 2.0], [2.0, 4.0]])
        eps, bound = estimation_error(table, 2, 2, 1)
        assert eps == 0.0 and bound == 0.0

    def test_hand_case(self):
        table = conv_table(1, 1, ("a", "b"), [[1.0, 2.0], [2.0, 4.0]])
        eps, bound = estimation_error(table, 2, 1, 2)
        assert eps == pytest.approx(1.0)
        assert bound == pytest.approx(3.0)

    def test_precondition(self):
        table = conv_table(1, 1, ("a", "b"), [[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(ValidationError, match="p_hat"):
            estimation_error(table, 1, 2, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_epsilon_within_bound_on_monotone_tables(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        base = rng.random((rows, cols))
        table = conv_table(1, 1, ("a", "b"), np.cumsum(np.cumsum(base, 0), 1))
        p_prev = int(rng.integers(1, rows + 1))
        p_hat = int(rng.integers(1, p_prev + 1))
        j = int(rng.integers(1, cols + 1))
        eps, bound = estimation_error(table, p_prev, p_hat, j)
        assert eps <= bound + 1e-12


class TestReplay:
    def _tiled_setup(self):
        arch = two_layer_arch(opt1=3, opt2=3)
        params = LatencyModelParams(unit_cost=1.0, overhead=0.01, tile=2, spatial=1.0)
        tables = synth_lut(arch, params, seed=0, noise=0.0)
        return arch, tables

    def test_last_layer_only_trajectory_has_zero_gap(self):
        arch, tables = self._tiled_setup()
        report = replay_trajectory([{"c1": 3, "c2": 2}, {"c1": 3, "c2": 1}], tables, arch)
        assert [r["gap"] for r in report] == [0.0, 0.0]

    def test_empty_trajectory(self):
        arch, tables = self._tiled_setup()
        assert replay_trajectory([], tables, arch) == []

    def test_aggressive_trajectory_matches_hand_computation(self):
        arch = two_layer_arch(opt1=2, opt2=2)
        tables = TableSet()
        tables.add(conv_table(1, 1, ("t", "c1"), [[1.0, 2.0]]))
        tables.add(conv_table(1, 2, ("c1", "c2"), [[1.0, 2.0], [3.0, 4.0]]))
        report = replay_trajectory([{"c1": 1, "c2": 1}], tables, arch)
        # True: layer1 (fixed in, out 1) = 1.0; layer2 (in 1, out 1) = 1.0.
        # Linear: layer2 still reads the dense input row (in 2, out 1) = 3.0.
        # Layer 2's marginal cost: stale 3.0 - 0, true 1.0 - 0; bound |0 - 0| + |3 - 1|.
        assert report == [{"step": 0, "true_ms": 2.0, "linear_ms": 4.0, "gap": 2.0,
                           "layers": [("c1", 0.0, 0.0), ("c2", 2.0, 2.0)]}]

    def test_growing_trajectory_rejected(self):
        arch, tables = self._tiled_setup()
        with pytest.raises(ValidationError, match="nonincreasing"):
            replay_trajectory([{"c1": 2, "c2": 2}, {"c1": 3, "c2": 2}], tables, arch)

    @pytest.mark.parametrize("option", ["2", True, 2.0])
    def test_non_integer_option_rejected(self, option):
        arch, tables = self._tiled_setup()
        with pytest.raises(ValidationError, match="'c2' option must be an integer"):
            replay_trajectory([{"c1": 3, "c2": option}], tables, arch)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_rows_are_the_two_models_summed_per_block(self, seed, integer):
        """On random chain-only instances and nonincreasing schedules, whose
        steps change nothing, only widths no layer reads, or any widths."""
        rng = np.random.default_rng(seed)
        arch = random_architecture(rng)
        while any(b.kind != "cnn_chain" for b in arch.blocks):
            arch = random_architecture(rng)
        tables = random_tables(arch, rng)
        if integer:
            tables = TableSet()
            for t in random_tables(arch, rng):
                tables.add(conv_table(t.block_id, t.layer, t.axes, np.floor(4 * t.data)))
        read = {din.id for b in arch.blocks for _, _, (din, _) in arch.parts(b)}
        cfg = {d.id: d.option_count for d in arch.dims.values()}
        conv = [d for b in arch.blocks for d in b.dims]
        steps = []
        for _ in range(int(rng.integers(0, 5))):
            movable = ((), [d for d in conv if d not in read], conv)[int(rng.integers(0, 3))]
            steps.append({d: int(rng.integers(1, cfg[d] + 1)) if d in movable else cfg[d]
                          for d in conv})
            cfg = cfg | steps[-1]
        report = replay_trajectory(steps, tables, arch)

        assert [r["step"] for r in report] == list(range(len(steps)))
        prev = {d.id: d.option_count for d in arch.dims.values()}
        kappa = {b.id: 1 for b in arch.blocks if b.removable}
        for row, step in zip(report, steps):
            now = prev | step
            assert row["true_ms"] == constraint_value(Assignment(step, kappa), tables, arch)
            stale = 0.0
            for b in arch.blocks:
                subtotal = 0.0
                for part, layer, (din, dout) in arch.parts(b):
                    data = tables.get(b.id, part, layer).data
                    subtotal += float(data[prev[din.id] - 1, now[dout.id] - 1])
                stale += subtotal
            assert row["linear_ms"] == stale
            assert row["gap"] == row["linear_ms"] - row["true_ms"]
            if all(prev[d] == now[d] for d in read):
                assert row["gap"] == 0.0
            assert [d for d, _, _ in row["layers"]] == conv
            if integer:
                assert all(eps <= bound for _, eps, bound in row["layers"])
            prev = now

    def test_transformer_arch_rejected(self):
        rng = np.random.default_rng(31)
        arch = None
        while arch is None or all(b.kind != "transformer" for b in arch.blocks):
            arch = random_architecture(rng)
        tables = random_tables(arch, rng)
        with pytest.raises(ValidationError, match="cnn_chain"):
            replay_trajectory([], tables, arch)


@st.composite
def shaped_entries(draw):
    """A rank-2 or rank-3 table shape and its row-major entries: ties, both
    zeros, subnormals, the largest magnitudes, NaN, infinities and any float."""
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    edge = st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1.0, -5e-324, float("nan"),
                            float("inf"), -float("inf")])
    n = math.prod(shape)
    return shape, draw(st.lists(edge | st.floats(), min_size=n, max_size=n))


class TestLutIO:
    def test_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(44)
        arch = random_architecture(rng)
        tables = synth_lut(arch, LatencyModelParams(), seed=2)
        text = serialize_lut(tables)
        again = parse_lut(text)
        assert serialize_lut(again) == text
        for ta, tb in zip(tables, again):
            assert np.array_equal(ta.data, tb.data)
            assert (ta.block_id, ta.part, ta.layer, ta.axes) == (
                tb.block_id, tb.part, tb.layer, tb.axes,
            )

    def test_base64_round_trip(self):
        rng = np.random.default_rng(45)
        arch = random_architecture(rng)
        tables = synth_lut(arch, LatencyModelParams(), seed=2)
        again = parse_lut(serialize_lut(tables, base64_payload=True))
        for ta, tb in zip(tables, again):
            assert np.array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("dtype, order", [
        (np.float32, "C"), (np.int64, "C"), (np.float64, "F"), (">f8", "C"),
        (np.float64, "strided"),
    ])
    def test_table_built_in_code_may_hold_any_real_numpy_array(self, dtype, order):
        """Checked, priced and written as its float64 copy is; a bad entry is
        named by its row-major index whatever the array's memory order."""
        data = np.array([[1, 2, 3], [2, 4, 6], [3, 6, 9]], dtype=dtype)
        if order == "F":
            data = np.asfortranarray(data)
        elif order == "strided":
            data = np.repeat(data, 2, axis=1)[:, ::2]
        copy = np.ascontiguousarray(data, dtype=np.float64)
        tables, want = TableSet(), TableSet()
        for out, second in ((tables, data), (want, copy)):
            out.add(conv_table(1, 1, ("t", "c1"), [[1.0, 2.0, 3.0]]))
            out.add(LatencyTable(block_id=1, part="conv_layer", layer=2, axes=("c1", "c2"),
                                 data=second))
        arch = two_layer_arch()
        tables.validate_for(arch)
        assert _largest(data) == 9.0
        asg = Assignment(omega={"c1": 2, "c2": 3})
        assert constraint_value(asg, tables, arch) == constraint_value(asg, want, arch) == 8.0
        for b64 in (False, True):
            assert serialize_lut(tables, b64) == serialize_lut(want, b64)
        data[1, 0] = -1
        with pytest.raises(ValidationError, match=r"negative entry at index \(1, 0\)$"):
            LatencyTable(block_id=1, part="conv_layer", layer=2, axes=("c1", "c2"),
                         data=data).validate()

    def test_negative_entry_reports_index(self):
        doc = """
        {"tables": [{"block_id": 1, "part": "conv_layer", "layer": 1,
                     "axes": ["a", "b"], "shape": [1, 2], "data": [1.0, -0.5]}]}
        """
        with pytest.raises(ValidationError, match=r"negative entry at index \(0, 1\)$"):
            parse_lut(doc)

    def test_non_finite_entry_reports_index(self):
        doc = """
        {"tables": [{"block_id": 1, "part": "conv_layer", "layer": 1,
                     "axes": ["a", "b"], "shape": [2, 1], "data": [1.0, NaN]}]}
        """
        with pytest.raises(ValidationError, match=r"non-finite entry at index \(1, 0\)$"):
            parse_lut(doc)

    # Entries whose bits or order a reader can get wrong, and finite entries
    # whose sum overflows before a non-finite one.
    @example(case=([2, 2], [1e308, 1e308, float("inf"), -1.0]), b64=False)
    @example(case=([1, 3], [-0.0, 5e-324, 1e308]), b64=True)
    @given(case=shaped_entries(), b64=st.booleans())
    def test_payload_reads_and_bad_entry_is_named_as_numpy_finds_it(self, case, b64):
        shape, entries = case
        n = len(entries)
        record = {"block_id": 1, "part": "mlp" if len(shape) == 2 else "qk",
                  "axes": ["a", "b", "c"][:len(shape)], "shape": shape}
        if b64:
            payload = struct.pack(f"<{n}d", *entries)
            record["data_b64"] = base64.b64encode(payload).decode()
            x = np.array(struct.unpack(f"<{n}d", payload)).reshape(shape)
        else:
            record["data"] = entries
            x = np.array(entries).reshape(shape)
        document = json.dumps({"tables": [record]})
        checks = ((~np.isfinite(x), "non-finite"), (x < 0, "negative"))
        bad, what = next(((b, w) for b, w in checks if b.any()), (None, None))
        if bad is not None:
            index = tuple(np.argwhere(bad)[0].tolist())
            with pytest.raises(ValidationError,
                               match=re.escape(f"{what} entry at index {index}") + "$"):
                parse_lut(document)
            return
        table = next(iter(parse_lut(document)))
        assert table.data.shape == x.shape
        assert np.asarray(table.data).tobytes() == x.tobytes()
        assert _largest(table.data) == x.max()

    @pytest.mark.parametrize("axes", [64, 65])
    def test_shape_of_many_axes_named(self, axes):
        # 64 axes reach the part's rank check; past 64 no array can hold them.
        doc = json.dumps({"tables": [{"block_id": 1, "part": "mlp", "axes": ["a", "b"],
                                      "shape": [1] * axes, "data": [1.0]}]})
        named = ("expected rank 2 data, found rank 64" if axes == 64
                 else "lut[0]: shape has 65 axes, more than 64")
        with pytest.raises(ValidationError if axes == 64 else ParseError, match=re.escape(named)):
            parse_lut(doc)

    def test_rank_mismatch_for_declared_part(self):
        doc = """
        {"tables": [{"block_id": 1, "part": "conv_layer", "layer": 1,
                     "axes": ["a", "b", "c"], "shape": [1, 2, 2],
                     "data": [1, 2, 3, 4]}]}
        """
        with pytest.raises(ValidationError, match="rank"):
            parse_lut(doc)

    def test_payload_size_mismatch(self):
        doc = """
        {"tables": [{"block_id": 1, "part": "conv_layer", "layer": 1,
                     "axes": ["a", "b"], "shape": [2, 2], "data": [1, 2, 3]}]}
        """
        with pytest.raises(Exception, match="payload"):
            parse_lut(doc)
