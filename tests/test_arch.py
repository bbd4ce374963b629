import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from latprune import (
    ParseError,
    ValidationError,
    build_all_vectors,
    kept_elements,
    parse_architecture,
    serialize_architecture,
    subnetwork_count,
    validate_problem_shapes,
)
from latprune.arch import DimensionSpec, architecture_from_obj, dump_json

from conftest import (
    BlockSpec,
    conv_dim,
    make_arch,
    random_architecture,
    random_scores,
    random_tables,
    tf_dims,
    trunk_dim,
)

MINIMAL_DOC = {
    "name": "mini",
    "dims": [
        {"id": "in", "role": "fixed_external", "option_count": 1, "group_size": 4, "max_elements": 4},
        {"id": "c1", "role": "conv_out", "option_count": 2, "group_size": 1, "max_elements": 2},
        {"id": "c2", "role": "conv_out", "option_count": 2, "group_size": 1, "max_elements": 2},
    ],
    "blocks": [
        {"id": 1, "kind": "cnn_chain", "removable": False, "input_ref": "in", "dims": ["c1", "c2"]},
    ],
}

TRANSFORMER_DOC = {
    "name": "tf",
    "dims": [
        {"id": f"t_{role}", "role": role, "option_count": 2, "group_size": 1, "max_elements": 2}
        for role in ("emb", "head", "qk", "v", "mlp")
    ],
    "blocks": [
        {
            "id": 1,
            "kind": "transformer",
            "removable": True,
            "dims": ["t_emb", "t_head", "t_qk", "t_v", "t_mlp"],
        },
    ],
}


class TestParse:
    def test_minimal_cnn_document(self):
        arch = parse_architecture(json.dumps(MINIMAL_DOC))
        assert len(arch.blocks) == 1
        assert len(arch.blocks[0].dims) == 2

    def test_transformer_block_has_five_dims(self):
        arch = parse_architecture(json.dumps(TRANSFORMER_DOC))
        assert len(arch.blocks[0].dims) == 5
        roles = [arch.dim(d).role for d in arch.blocks[0].dims]
        assert roles == ["emb", "head", "qk", "v", "mlp"]

    def test_dangling_dim_reference_names_it(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["blocks"][0]["dims"] = ["c1", "x9"]
        with pytest.raises(ValidationError, match="x9"):
            parse_architecture(json.dumps(doc))

    def test_dangling_input_ref(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["blocks"][0]["input_ref"] = "nope"
        with pytest.raises(ValidationError, match="nope"):
            parse_architecture(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_architecture("{not json")

    def test_unknown_key_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["extra"] = 1
        with pytest.raises(ParseError, match="extra"):
            parse_architecture(json.dumps(doc))

    def test_transformer_role_order_enforced(self):
        doc = json.loads(json.dumps(TRANSFORMER_DOC))
        doc["blocks"][0]["dims"] = ["t_head", "t_emb", "t_qk", "t_v", "t_mlp"]
        with pytest.raises(ValidationError, match="roles"):
            parse_architecture(json.dumps(doc))

    def test_duplicate_dim_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["dims"].append(dict(doc["dims"][1]))
        with pytest.raises(ValidationError, match="duplicate"):
            parse_architecture(json.dumps(doc))

    def test_block_ids_must_be_consecutive(self):
        doc = json.loads(json.dumps(MINIMAL_DOC))
        doc["blocks"][0]["id"] = 2
        with pytest.raises(ValidationError, match="consecutive"):
            parse_architecture(json.dumps(doc))

    def test_chained_input_from_removable_block_rejected(self):
        dims = [trunk_dim("trunk"), conv_dim("a1", 2), conv_dim("b1", 2)]
        blocks = [
            BlockSpec(id=1, kind="cnn_chain", dims=("a1",), removable=True, input_ref="trunk"),
            BlockSpec(id=2, kind="cnn_chain", dims=("b1",), removable=False, input_ref="a1"),
        ]
        with pytest.raises(ValidationError, match="removable"):
            make_arch(dims, blocks)

    def test_chained_input_from_permanent_block_ok(self):
        dims = [trunk_dim("trunk"), conv_dim("a1", 2), conv_dim("b1", 2)]
        blocks = [
            BlockSpec(id=1, kind="cnn_chain", dims=("a1",), removable=False, input_ref="trunk"),
            BlockSpec(id=2, kind="cnn_chain", dims=("b1",), removable=True, input_ref="a1"),
        ]
        make_arch(dims, blocks)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            arch = random_architecture(rng)
            again = parse_architecture(serialize_architecture(arch))
            assert again == arch


class TestSubnetworkCount:
    def test_non_removable_product(self):
        dims = [trunk_dim("t"), conv_dim("c1", 2), conv_dim("c2", 3)]
        blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1", "c2"), removable=False, input_ref="t")]
        assert subnetwork_count(make_arch(dims, blocks)) == 6

    def test_removable_adds_one_state(self):
        dims = [trunk_dim("t"), conv_dim("c1", 2), conv_dim("c2", 3)]
        blocks = [BlockSpec(id=1, kind="cnn_chain", dims=("c1", "c2"), removable=True, input_ref="t")]
        assert subnetwork_count(make_arch(dims, blocks)) == 7

    def test_two_removable_transformer_blocks(self):
        dims = tf_dims("a", dict.fromkeys(("emb", "head", "qk", "v", "mlp"), 2))
        dims += tf_dims("b", dict.fromkeys(("emb", "head", "qk", "v", "mlp"), 2))
        blocks = [
            BlockSpec(id=1, kind="transformer", dims=tuple(d.id for d in dims[:5]), removable=True),
            BlockSpec(id=2, kind="transformer", dims=tuple(d.id for d in dims[5:]), removable=True),
        ]
        assert subnetwork_count(make_arch(dims, blocks)) == (32 + 1) ** 2 == 1089

    def _enumerate_structures(self, arch) -> int:
        """Oracle: enumerate raw (omega, kappa) states, extract, count distinct.

        Extraction drops a removed block's choices, so many raw states
        collapse onto one structure.
        """
        per_block = []
        for block in arch.blocks:
            options = [range(1, arch.dim(d).option_count + 1) for d in block.dims]
            combos = list(itertools.product(*options))
            kappas = (1, 0) if block.removable else (1,)
            per_block.append([(k, combo) for k in kappas for combo in combos])
        seen = set()
        for state in itertools.product(*per_block):
            key = tuple(combo if k == 1 else None for k, combo in state)
            seen.add(key)
        return len(seen)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        arch = random_architecture(rng, state_cap=5000, chained_cap=5000)
        assert subnetwork_count(arch) == self._enumerate_structures(arch)


class TestKeptElements:
    def test_unit_group(self):
        dim = conv_dim("d", 3)
        assert kept_elements(dim, 3) == 3

    def test_exact_multiple(self):
        dim = conv_dim("d", 2, group=32, max_elements=64)
        assert kept_elements(dim, 2) == 64

    def test_clamp_to_max(self):
        dim = conv_dim("d", 2, group=32, max_elements=60)
        assert kept_elements(dim, 2) == 60

    def test_out_of_range(self):
        dim = conv_dim("d", 3)
        with pytest.raises(ValidationError):
            kept_elements(dim, 0)
        with pytest.raises(ValidationError):
            kept_elements(dim, 4)

    @given(
        options=st.integers(1, 20),
        group=st.integers(1, 8),
        slack=st.integers(0, 7),
    )
    def test_strictly_increasing_then_clamped(self, options, group, slack):
        slack = min(slack, group - 1)
        max_elements = options * group - slack
        dim = DimensionSpec(
            id="d", role="conv_out", option_count=options, group_size=group,
            max_elements=max_elements,
        )
        dim.validate()
        kept = [kept_elements(dim, j) for j in range(1, options + 1)]
        for a, b in zip(kept, kept[1:]):
            assert a < b or (a == b == max_elements)
        assert kept[-1] == max_elements


class TestValidateShapes:
    def _consistent(self, seed=0):
        rng = np.random.default_rng(seed)
        arch = random_architecture(rng)
        raw = random_scores(arch, rng)
        vectors = build_all_vectors(arch, raw)
        tables = random_tables(arch, rng)
        return arch, tables, vectors

    def test_consistent_instance_passes(self):
        arch, tables, vectors = self._consistent()
        validate_problem_shapes(arch, tables, vectors)

    def test_wrong_axis_size_names_axis(self):
        doc = {
            "name": "m",
            "dims": [
                {"id": "in5", "role": "conv_out", "option_count": 5, "group_size": 1, "max_elements": 5},
                {"id": "out8", "role": "conv_out", "option_count": 8, "group_size": 1, "max_elements": 8},
                {"id": "t", "role": "fixed_external", "option_count": 1, "group_size": 4, "max_elements": 4},
            ],
            "blocks": [
                {"id": 1, "kind": "cnn_chain", "removable": False, "input_ref": "t", "dims": ["in5", "out8"]},
            ],
        }
        arch = architecture_from_obj(doc)
        raw = random_scores(arch, np.random.default_rng(0))
        vectors = build_all_vectors(arch, raw)
        tables = random_tables(arch, np.random.default_rng(0))
        # Shrink the second layer's input axis from 5 to 4.
        from latprune import LatencyTable, TableSet

        bad = TableSet()
        for t in tables:
            if t.part == "conv_layer" and t.layer == 2:
                bad.add(
                    LatencyTable(
                        block_id=t.block_id, part=t.part, layer=t.layer,
                        axes=t.axes, data=t.data[:4, :],
                    )
                )
            else:
                bad.add(t)
        with pytest.raises(ValidationError, match=r"axis 0.*expected 5, found 4"):
            validate_problem_shapes(arch, bad, vectors)

    def test_missing_mlp_table_named(self):
        rng = np.random.default_rng(3)
        dims = tf_dims("a", dict.fromkeys(("emb", "head", "qk", "v", "mlp"), 2))
        blocks = [BlockSpec(id=1, kind="transformer", dims=tuple(d.id for d in dims), removable=False)]
        arch = make_arch(dims, blocks)
        raw = random_scores(arch, rng)
        vectors = build_all_vectors(arch, raw)
        tables = random_tables(arch, rng)
        from latprune import TableSet

        missing = TableSet()
        for t in tables:
            if t.part != "mlp":
                missing.add(t)
        with pytest.raises(ValidationError, match="mlp"):
            validate_problem_shapes(arch, missing, vectors)

    def test_missing_vector_named(self):
        arch, tables, vectors = self._consistent(4)
        some_dim = next(iter(vectors))
        del vectors[some_dim]
        with pytest.raises(ValidationError, match=some_dim):
            validate_problem_shapes(arch, tables, vectors)


TEXT = st.text(st.characters(exclude_categories=()))  # surrogates and control characters too
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1]),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(2**130), 2**130), FLOATS, TEXT)
INTS = st.integers(-(2**70), 2**70)
VALUES = st.recursive(
    SCALARS | st.lists(INTS) | st.lists(INTS | st.booleans()),
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple), st.dictionaries(TEXT, children)
    ),
    max_leaves=25,
)
NON_FINITE = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")]
)


def reference_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestDumpJson:
    @given(VALUES)
    def test_bytes_equal_the_standard_encoder(self, value):
        assert dump_json(value) == reference_json(value)

    @given(
        st.recursive(
            NON_FINITE,
            lambda bad: st.one_of(
                st.tuples(bad),
                st.builds(lambda b, v: [v, b], bad, VALUES),
                st.builds(lambda b, k, v: {k: b, "": v}, bad, TEXT.filter(bool), VALUES),
            ),
            max_leaves=4,
        )
    )
    def test_non_finite_float_at_any_depth_raises_value_error(self, value):
        with pytest.raises(ValueError):
            dump_json(value)

    @pytest.mark.parametrize(
        "value", [np.int64(3), [1, np.int64(3)], {"a": {1, 2}}, np.bool_(True), b"x"],
        ids=["np-int64", "np-int64-in-list", "set", "np-bool", "bytes"],
    )
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError):
            dump_json(value)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_non_string_key_rejected(self, key):
        # The standard encoder would write 1, 1.5, None and True as strings;
        # the package never writes such keys, so the writer refuses them.
        with pytest.raises(TypeError, match="keys must be str"):
            dump_json({"ok": [{key: 0}]})
