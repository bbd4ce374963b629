import enum
import itertools
import json
import math
import struct
import subprocess
import sys
from array import array
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

import latprune

from latprune import (
    ImportanceVector,
    ParseError,
    ValidationError,
    build_all_vectors,
    kept_elements,
    parse_architecture,
    serialize_architecture,
    subnetwork_count,
    validate_problem_shapes,
)
from latprune import arch as arch_mod
from latprune.arch import (
    DimensionSpec, architecture_from_obj, dump_json, kept_counts, load_json,
)

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

    def test_undeclared_dimension_named(self):
        arch = parse_architecture(json.dumps(MINIMAL_DOC))
        with pytest.raises(ValidationError, match="unknown dimension 'x9'"):
            arch.dim("x9")

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

    @pytest.mark.parametrize("field", ["name", "dimension id"])
    def test_lone_surrogate_is_refused_naming_the_field(self, field):
        # A "\\ud800" escape is valid JSON, but no output could be written
        # as UTF-8 with it.
        doc = json.loads(json.dumps(MINIMAL_DOC))
        if field == "name":
            doc["name"] = "mini_\ud800"
        else:
            doc["dims"][1]["id"] = "c1_\ud800"
            doc["blocks"][0]["dims"][0] = "c1_\ud800"
        with pytest.raises(ValidationError, match=rf"{field} .*\\ud800.* not valid Unicode"):
            parse_architecture(json.dumps(doc))

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


    @pytest.mark.parametrize("options, group, max_elements", [
        (1, 2**63, 16), (2**63, 1, 2**63 + 5), (1, 16, 2**63), (2, 2**62 + 1, 2**63 - 1),
    ], ids=["group", "options", "max", "product"])
    def test_kept_counts_past_int64_rejected(self, options, group, max_elements):
        dim = DimensionSpec(id="d", role="conv_out", option_count=options, group_size=group,
                            max_elements=max_elements)
        with pytest.raises(ValidationError, match=r"must be below 2\*\*63"):
            dim.validate()

    def test_largest_kept_counts_fit_int64(self):
        dim = DimensionSpec(id="d", role="conv_out", option_count=3, group_size=2**61 + 1,
                            max_elements=2**63 - 1)
        dim.validate()
        assert kept_counts(dim).tolist() == [kept_elements(dim, j) for j in (1, 2, 3)]


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

    def test_wrong_vector_length_named(self):
        arch, tables, vectors = self._consistent(4)
        dim_id, vec = next(iter(vectors.items()))
        vectors[dim_id] = ImportanceVector(array("d", [*vec.values, 0.0]))
        with pytest.raises(ValidationError, match=rf"importance vector for '{dim_id}': expected "
                                                  rf"length {len(vec.values)}, found "):
            validate_problem_shapes(arch, tables, vectors)

    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    def test_nan_vector_entry_refused(self, at):
        # max() passes over a NaN that is not first.
        arch, tables, vectors = self._consistent(5)
        dim_id = next(d for d, v in vectors.items() if len(v.values) >= 2)
        values = array("d", vectors[dim_id].values)
        values[at] = math.nan
        vectors[dim_id] = ImportanceVector(values)
        with pytest.raises(ValidationError, match=r"largest \|entries\| sum to nan"):
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

    @pytest.mark.parametrize("key", [1, None])
    @pytest.mark.parametrize("fallback", [1e-5, "é", np.float64(0.5), 2**64])
    def test_non_string_key_under_a_fallback_value_rejected(self, key, fallback):
        # `fallback` sends the document to json.dumps, which would write the
        # key as a string: the rule's walk must still reach it.
        with pytest.raises(TypeError, match="keys must be str"):
            dump_json({"a": [fallback, {key: 0}]})

    # Each side of `_plain`'s edges, as a value and in a list, where orjson's
    # text and json.dumps' could part.
    EDGES = [
        1e-4, math.nextafter(1e-4, 0), -1e-4, 1e16, math.nextafter(1e16, 0), -1e16, 1e-5,
        1.5e-7, 0.0, -0.0, 2**63 - 1, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1,
        "\x7f", "é", " ", '"', "\\", "\n", "a\u2028b", np.float64(0.5),
        enum.IntEnum("Option", "ONE TWO").TWO,
    ]

    @pytest.mark.parametrize("edge", EDGES, ids=repr)
    def test_edges_of_the_orjson_rule(self, edge):
        for value in (edge, [edge], [edge, 1], {"k": edge}, [[0, 1, 2], edge]):
            assert dump_json(value) == reference_json(value)
        if isinstance(edge, str):
            assert dump_json({edge: [edge]}) == reference_json({edge: [edge]})

    def test_kept_element_lists_take_orjson_within_64_bits(self):
        assert arch_mod._plain([0, 5, 2**64 - 1, -(2**63)])
        assert not arch_mod._plain([0, 2**64])
        assert not arch_mod._plain([-(2**63) - 1, 0])

    def test_the_package_documents_take_orjson(self):
        # ViT-B-12 at a quarter of its dense latency, the benchmark's vit
        # instance: a slide back to json.dumps for its outputs fails here.
        from latprune import (LatencyModelParams, assemble, constraint_value, solve,
                              synth_lut, synth_scores)
        from latprune.extract import extract_structure
        from latprune.latency import lut_to_obj
        from conftest import dense_assignment, vit_b12_architecture

        arch = vit_b12_architecture()
        raw = synth_scores(arch, 0)
        vectors = build_all_vectors(arch, raw)
        tables = synth_lut(arch, LatencyModelParams(), 0, noise=0.02)
        budget = 0.25 * constraint_value(dense_assignment(arch), tables, arch)
        plan = solve(assemble(arch, vectors, tables, budget)).assignment
        structure = extract_structure(plan, arch, vectors, tables, raw)
        # Where the installed orjson writes them, still json.dumps' bytes.
        for doc in (structure, lut_to_obj(tables, manifest="0" * 64)):
            assert arch_mod._plain(doc)
            assert dump_json(doc) == reference_json(doc)


# ---------------------------------------------------------------------------
# load_json against json.loads
# ---------------------------------------------------------------------------


@st.composite
def float_tokens(draw) -> str:
    """A float literal drawn as a random 64-bit pattern, written as its repr,
    as ``%.17e`` or as the exact decimal halfway to its upper neighbour (the
    NaN and infinite patterns as json's ``NaN`` and ``Infinity`` tokens)."""
    x = struct.unpack("<d", struct.pack("<Q", draw(st.integers(0, 2**64 - 1))))[0]
    if not math.isfinite(x):
        return "NaN" if math.isnan(x) else ("Infinity" if x > 0 else "-Infinity")
    form = draw(st.sampled_from(["repr", "e17", "halfway"]))
    if form == "repr":
        return repr(x)
    if form == "e17":
        return "%.17e" % x
    y = math.nextafter(x, math.inf)
    if math.isinf(y):
        y = math.nextafter(x, -math.inf)
    with localcontext() as ctx:
        ctx.prec = 1200  # exact: a float64's decimal expansion has at most 767 digits
        return str((Decimal(x) + Decimal(y)) / 2)


JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
STRING_PIECES = st.one_of(
    JSON_TEXT.map(lambda t: json.dumps(t)[1:-1]),  # lone surrogates as escapes
    JSON_TEXT.map(lambda t: json.dumps(t, ensure_ascii=False)[1:-1]),  # raw characters
    st.integers(0, 0xFFFF).map(lambda n: "\\u%04x" % n),
    st.integers(0xD800, 0xDFFF).map(lambda n: "\\u%04X" % n),
    st.sampled_from(['\\"', "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"]),
)
STRINGS = st.lists(STRING_PIECES, max_size=4).map(lambda pieces: '"' + "".join(pieces) + '"')
KEYS = STRINGS | st.sampled_from(['"a"', '"b"', '"\\u0061"'])  # duplicate keys, one escaped
SCALAR_TOKENS = st.one_of(
    float_tokens(),
    st.integers(-(2**70), 2**70).map(str),
    st.integers(-(10**400), 10**400).map(str),
    STRINGS,
    st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity", "-0", "-0.0"]),
)
WHITESPACE = st.text(" \t\n\r", max_size=2)
TREES = st.recursive(
    SCALAR_TOKENS,
    lambda children: st.one_of(
        st.lists(st.tuples(WHITESPACE, children)).map(
            lambda items: "[" + ",".join(w + v for w, v in items) + "]"),
        st.lists(st.tuples(KEYS, WHITESPACE, children)).map(
            lambda items: "{" + ",".join(f"{k}:{w}{v}" for k, w, v in items) + "}"),
    ),
    max_leaves=20,
)


@st.composite
def json_documents(draw) -> str:
    """A JSON text, sometimes cut short or with a stray character inserted."""
    text = draw(WHITESPACE) + draw(TREES) + draw(WHITESPACE)
    how = draw(st.sampled_from(["keep", "keep", "cut", "insert"]))
    at = draw(st.integers(0, len(text)))
    if how == "cut":
        return text[:at]
    if how == "insert":
        stray = draw(st.sampled_from([",", "]", "}", ":", "x", "0", "\x01", "\ufeff"]))
        return text[:at] + stray + text[at:]
    return text


def same(got, want) -> bool:
    """`got` equals `want` in type, key order and float bits, recursively,
    except that an integer outside [-2**63, 2**64) may be read as its
    nearest float64."""
    if type(want) is int and type(got) is float and not -(2**63) <= want < 2**64:
        want = float(want)
    if type(got) is not type(want):
        return False
    if type(want) is float:
        return struct.pack("<d", got) == struct.pack("<d", want)
    if type(want) is list:
        return len(got) == len(want) and all(map(same, got, want))
    if type(want) is dict:
        return list(got) == list(want) and all(same(got[k], want[k]) for k in want)
    return got == want


def assert_reads_as_json(text: str) -> None:
    """`load_json(text, "doc")` returns what ``json.loads(text)`` returns, or
    raises a ParseError with the message json's error gives."""
    try:
        want = json.loads(text)
    except json.JSONDecodeError as exc:
        message = f"doc: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        message = f"doc: {str(exc).split(';')[0]}"
    else:
        assert same(load_json(text, "doc"), want), text
        return
    with pytest.raises(ParseError) as caught:
        load_json(text, "doc")
    assert str(caught.value) == message


class TestLoadJson:
    @settings(max_examples=500)
    @given(json_documents())
    def test_reads_what_json_loads_reads(self, text):
        assert_reads_as_json(text)

    @pytest.mark.parametrize("text", [
        "\ufeff{}", '{"a": 1} x', "1e400", "-1e400", "-1e-400", "-0", "-0.0", "[NaN, 1]",
        '"\\ud800"', str(2**63), str(2**64), str(-(2**63) - 1), str(10**400), "1" * 5000,
        '{"a": 1, "b": 2, "a": 3}', "[" * 5 + "]" * 4,
    ], ids=["bom", "trailing-data", "1e400", "-1e400", "-1e-400", "-0", "-0.0", "nan-token",
            "lone-surrogate", "2**63", "2**64", "below-int64", "10**400", "5000-digits",
            "duplicate-key", "unclosed"])
    def test_explicit_cases_read_as_json(self, text):
        assert_reads_as_json(text)

    def test_more_than_a_thousand_containers_skip_orjson(self, monkeypatch):
        class Refusing:
            JSONDecodeError = orjson.JSONDecodeError

            @staticmethod
            def loads(text):
                raise AssertionError("orjson was given the document")

        # What `load_json` imports; numpy is loaded here, so it is consulted.
        monkeypatch.setitem(sys.modules, "orjson", Refusing)
        text = "[" + ", ".join(["[1.5]"] * 998) + ', {"a": []}]'  # 1,001 containers, 3 deep
        assert text.count("[") + text.count("{") == 1001
        assert_reads_as_json(text)

    def test_a_thousand_containers_go_to_orjson(self, monkeypatch):
        calls = []

        class Counting:
            JSONDecodeError = orjson.JSONDecodeError

            @staticmethod
            def loads(text):
                calls.append(text)
                return orjson.loads(text)

        monkeypatch.setitem(sys.modules, "orjson", Counting)
        text = "[" + ", ".join(["[1.5]"] * 997) + ', {"a": []}]'
        assert text.count("[") + text.count("{") == 1000
        assert_reads_as_json(text)
        assert calls == [text]

    def test_deep_document_is_a_parse_error_not_a_crash(self):
        # In a child process: without the container guard orjson would
        # decode this and crash the interpreter (SIGSEGV).  The child loads
        # orjson first, so `load_json` offers it this document whatever
        # `ORJSON_MIN_CHARS` is, as a solving process would.
        code = (
            "import orjson\n"
            "from latprune.arch import _orjson, load_json\n"
            "from latprune.errors import ParseError\n"
            "assert _orjson() is orjson\n"
            "try:\n"
            "    load_json('[' * 200_000 + ']' * 200_000, 'doc')\n"
            "except ParseError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(latprune.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env={"PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout == "doc: nested too deeply\n"
