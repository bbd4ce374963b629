"""The I/O contract under generated inputs: whatever a document holds, every
command ends with exit 0, 2, 3 or 4 and never raises.

Valid documents are built once (the bundled tiny_mixed architecture with
synthesized scores, LUT and a solved report; a conv-only chain with its LUT
and a trajectory).  Each example picks a command and one of its input
documents, walks to a random node of the decoded JSON and mutates it: the
node is deleted, swapped for a value of another type (string, bool, null,
list, object, NaN, infinity, a 401-digit integer, a lone surrogate), wrapped
in a list or unwrapped from its container.  The encoded bytes of the mutated
document may then be broken too: a UTF-8 byte-order mark in front, or bytes
that are not UTF-8 (a UTF-16 mark, a stray continuation byte, an encoded
surrogate, a cut multi-byte sequence) inserted anywhere.  Explicit examples put the
401-digit integer at the first dimension's ``group_size``, a node the random
draws rarely reach, and the lone surrogate in the architecture's name, which
the structure files carry.

The budget is fuzzed too: any positive finite float, subnormals and values
near the largest float included, given to ``solve`` in every mode and to a
two-budget ``sweep`` on valid tiny_mixed documents.  So is one record
appended to valid scores: whatever its id, a dimension the architecture does
not declare exits 3, naming the id.
"""

import functools
import io
import json
import math
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from latprune import parse_lut, serialize_lut
from latprune.cli import main

DATA = Path(__file__).parent.parent / "demos" / "data"

HUGE = 10**400
REPLACEMENTS = [
    "", "x", "1.5", "AAAA", True, False, None, [], {}, [1.0], [[1.0]], {"a": 1},
    math.nan, math.inf, -math.inf, HUGE, -HUGE, 0, -1, 1.5, "\ud800",
]

CHAIN_ARCH = {
    "name": "chain",
    "dims": [
        {"id": "stem", "role": "fixed_external", "option_count": 1, "group_size": 16,
         "max_elements": 16},
        {"id": "c1", "role": "conv_out", "option_count": 4, "group_size": 4, "max_elements": 16},
        {"id": "c2", "role": "conv_out", "option_count": 4, "group_size": 4, "max_elements": 16},
    ],
    "blocks": [
        {"id": 1, "kind": "cnn_chain", "removable": False, "input_ref": "stem",
         "dims": ["c1", "c2"]},
    ],
}

BOM = b"\xef\xbb\xbf"
NOT_UTF8 = [b"\xff\xfe", b"\x80", b"\xed\xa0\x80", b"\xe2\x82"]

# command -> its input documents by flag.  Every --lut may also be given
# its base64 variant.
COMMANDS = {
    "check": {"--arch": "arch", "--scores": "scores", "--lut": "lut"},
    "solve": {"--arch": "arch", "--scores": "scores", "--lut": "lut"},
    "extract": {"--report": "report", "--arch": "arch", "--scores": "scores", "--lut": "lut"},
    "compare-latency-models": {"--arch": "chain_arch", "--lut": "chain_lut",
                               "--trajectory": "trajectory"},
}
OPTIONS = {"solve": ["--budget-ms", "0.25"]}


@functools.cache
def valid_documents() -> dict:
    """The valid documents, by name, as decoded JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        return _build_documents(Path(tmp))


def _build_documents(root: Path) -> dict:
    arch = DATA / "tiny_mixed.arch.json"
    assert main(["synth", "--arch", str(arch), "--seed", "0", "--unit-cost", "1e-4",
                 "--tile", "8", "--out", str(root / "in")]) == 0
    assert main(["solve", "--arch", str(arch), "--scores", str(root / "in" / "scores.json"),
                 "--lut", str(root / "in" / "lut.json"), "--budget-ms", "0.25",
                 "--out", str(root / "run")]) == 0
    chain_arch = root / "chain.arch.json"
    chain_arch.write_text(json.dumps(CHAIN_ARCH))
    assert main(["synth", "--arch", str(chain_arch), "--seed", "0", "--unit-cost", "1e-3",
                 "--tile", "8", "--out", str(root / "chain")]) == 0
    lut = (root / "in" / "lut.json").read_text()
    texts = {
        "arch": arch.read_text(),
        "scores": (root / "in" / "scores.json").read_text(),
        "lut": lut,
        "lut_b64": serialize_lut(parse_lut(lut), base64_payload=True),
        "report": (root / "run" / "report.json").read_text(),
        "chain_arch": chain_arch.read_text(),
        "chain_lut": (root / "chain" / "lut.json").read_text(),
        "trajectory": json.dumps({"steps": [{"c1": 3, "c2": 3}, {"c1": 2, "c2": 1}]}),
    }
    return {name: json.loads(text) for name, text in texts.items()}


def node_paths(node, path=()):
    """Paths to the nodes of `node`, entering only the first and the last
    entry of each list, so that structure is not drowned out by payload."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list) and node:
        children = {0: node[0], len(node) - 1: node[-1]}.items()
    else:
        children = ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


@st.composite
def edits(draw, doc):
    """One edit of `doc` as ``(path, op, arg)``: the node at `path` is
    deleted, replaced by `arg`, wrapped in a list or unwrapped to its entry
    `arg`."""
    path = draw(st.sampled_from(list(node_paths(doc))))
    node = doc
    for key in path:
        node = node[key]
    ops = ["replace", "wrap"] + (["delete"] if path else [])
    ops += ["unwrap"] if isinstance(node, (dict, list)) and node else []
    op = draw(st.sampled_from(ops))
    arg = None
    if op == "replace":
        arg = draw(st.sampled_from(REPLACEMENTS))
    elif op == "unwrap":
        arg = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    return path, op, arg


def edited(doc, path, op, arg):
    """A copy of `doc` with the edit ``(path, op, arg)`` (see `edits`) made."""
    doc = json.loads(json.dumps(doc))
    parent = None
    node = doc
    for key in path:
        parent, node = node, node[key]
    if op == "delete":
        del parent[path[-1]]
        return doc
    if op == "replace":
        new = arg
    elif op == "wrap":
        new = [node]
    else:
        new = node[arg]
    if not path:
        return new
    parent[path[-1]] = new
    return doc


# How a document's text is encoded: as UTF-8 unchanged, behind a byte-order
# mark, or with bytes that are not UTF-8 inserted at a fraction of its length.
ENCODINGS = st.one_of(
    st.just(("keep", None, None)),
    st.just(("bom", None, None)),
    st.tuples(st.just("insert"), st.floats(0, 1), st.sampled_from(NOT_UTF8)),
)


def encoded(text: str, how) -> bytes:
    op, at, bad = how
    data = text.encode()
    if op == "bom":
        return BOM + data
    if op == "insert":
        at = round(at * len(data))
        return data[:at] + bad + data[at:]
    return data


@st.composite
def cases(draw):
    """A command, its input documents by flag, the flag whose document is
    edited, the edit and the encoding of the edited document."""
    command = draw(st.sampled_from(sorted(COMMANDS)), label="command")
    inputs = dict(COMMANDS[command])
    if inputs.get("--lut") == "lut" and draw(st.booleans(), label="base64 lut"):
        inputs["--lut"] = "lut_b64"
    target = draw(st.sampled_from(sorted(inputs)), label="mutated input")
    edit = draw(edits(valid_documents()[inputs[target]]), label="edit")
    return command, inputs, target, edit, draw(ENCODINGS, label="bytes")


def huge_group_size(command: str) -> tuple:
    """The case of `command` whose architecture's first dimension has a
    401-digit group_size, past the int64 that kept counts are computed in."""
    edit = (("dims", 0, "group_size"), "replace", HUGE)
    return command, COMMANDS[command], "--arch", edit, ("keep", None, None)


def surrogate_name(command: str) -> tuple:
    """The case of `command` whose architecture is named ``"\\ud800"``: valid
    JSON that no UTF-8 output can hold."""
    edit = (("name",), "replace", "\ud800")
    return command, COMMANDS[command], "--arch", edit, ("keep", None, None)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(case=cases())
@example(case=huge_group_size("check"))
@example(case=huge_group_size("solve"))
@example(case=huge_group_size("extract"))
@example(case=surrogate_name("solve"))
@example(case=surrogate_name("extract"))
def test_every_mutation_exits_with_a_contract_code(workdir, case):
    command, inputs, target, edit, how = case
    documents = valid_documents()
    argv = [command, *OPTIONS.get(command, [])]
    for flag, name in inputs.items():
        path = workdir / f"{name}.json"
        if flag == target:
            path.write_bytes(encoded(json.dumps(edited(documents[name], *edit)), how))
        else:
            path.write_text(json.dumps(documents[name]))
        argv += [flag, str(path)]
    if command != "check":
        argv += ["--out", str(workdir / "out")]
    assert main(argv) in (0, 2, 3, 4)


def declared_dims() -> set[str]:
    return {dim["id"] for dim in valid_documents()["arch"]["dims"]}


@settings(max_examples=30, deadline=None)
@given(command=st.sampled_from(["check", "extract", "solve"]),
       dim_id=st.text().filter(lambda d: d not in declared_dims()),
       scores=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4))
@example(command="check", dim_id="no_such_dim", scores=[0.5, 0.25])
def test_scores_for_an_undeclared_dimension_exit_3_naming_it(workdir, command, dim_id, scores):
    documents = valid_documents()
    argv = [command, *OPTIONS.get(command, [])]
    for flag, name in COMMANDS[command].items():
        doc = documents[name]
        if name == "scores":
            doc = {"scores": [*doc["scores"], {"dim_id": dim_id, "scores": scores}]}
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv += [flag, str(path)]
    if command != "check":
        argv += ["--out", str(workdir / "out")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 3
    named = f"scores for {dim_id!r}: architecture 'tiny_mixed' declares no such dimension"
    assert named in (out if command == "check" else err).getvalue()


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c in sorted(COMMANDS) for f in COMMANDS[c]]
)
def test_document_that_is_not_utf8_exits_3_naming_it(workdir, capsys, command, flag):
    documents = valid_documents()
    argv = [command, *OPTIONS.get(command, [])]
    for other, name in COMMANDS[command].items():
        path = workdir / f"{name}.json"
        data = json.dumps(documents[name]).encode()
        if other == flag:
            data, broken = b"\xff\xfe" + data, path
        path.write_bytes(data)
        argv += [other, str(path)]
    if command != "check":
        argv += ["--out", str(workdir / "out")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    message = f"{flag[2:]}: {broken} is not UTF-8 text"
    assert message in (captured.out if command == "check" else captured.err)


@functools.cache
def default_inputs() -> dict[str, str]:
    """tiny_mixed scores and LUT from the default latency model, by flag.
    Its LP bound overflowed at huge finite budgets."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        assert main(["synth", "--arch", str(DATA / "tiny_mixed.arch.json"), "--seed", "0",
                     "--out", str(out)]) == 0
        return {"--scores": (out / "scores.json").read_text(),
                "--lut": (out / "lut.json").read_text()}


BUDGETS = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)


@settings(max_examples=60, deadline=None)
@given(budget=BUDGETS, other=BUDGETS)
@example(budget=1e308, other=0.25)
@example(budget=sys.float_info.max, other=5e-324)
def test_any_positive_finite_budget_exits_0_or_2(workdir, budget, other):
    argv = ["--arch", str(DATA / "tiny_mixed.arch.json"), "--out", str(workdir / "out")]
    for flag, text in default_inputs().items():
        (workdir / flag[2:]).write_text(text)
        argv += [flag, str(workdir / flag[2:])]
    for mode in ("exhaustive", "branch_and_bound", "heuristic_only"):
        assert main(["solve", *argv, "--budget-ms", repr(budget), "--mode", mode]) in (0, 2)
    assert main(["sweep", *argv, "--budgets", f"{budget!r},{other!r}"]) in (0, 2)
