import csv
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from latprune import (
    Assignment, LatencyModelParams, PruningSolution, assemble, build_all_vectors, constraint_value,
    extract_structure, parse_architecture, parse_lut, parse_scores, serialize_architecture,
    serialize_lut, serialize_scores, solve, synth_lut, synth_scores,
)
from latprune import cli
from latprune.arch import ORJSON_MAX_CONTAINERS
from latprune.cli import main
from latprune.stamped import _sha256_hex, _write_json

from conftest import vit_b12_architecture

DATA = Path(__file__).parent.parent / "demos" / "data"
GOLDEN = Path(__file__).parent / "golden"

SYNTH_FLAGS = [
    "--seed", "0",
    "--unit-cost", "1e-4",
    "--overhead", "0.01",
    "--tile", "8",
    "--spatial", "1.0",
    "--noise", "0.02",
]

# The default latency model: there the LP bound's flattest segment is steep
# enough that its product with a huge finite room overflowed.
HUGE_BUDGET_FLAGS = ["--seed", "0"]


def synth(tmp_path: Path, arch: Path | None = None, flags: list[str] = SYNTH_FLAGS) -> Path:
    out = tmp_path / "inputs"
    arch = arch or DATA / "tiny_mixed.arch.json"
    code = main(["synth", "--arch", str(arch), *flags, "--out", str(out)])
    assert code == 0
    return out


def solve_args(arch: Path, inputs: Path, out: Path, budget: str, *extra: str) -> list[str]:
    return [
        "solve",
        "--arch", str(arch),
        "--scores", str(inputs / "scores.json"),
        "--lut", str(inputs / "lut.json"),
        "--budget-ms", budget,
        "--out", str(out),
        *extra,
    ]


def unbounded_solution(inputs: Path):
    """The tiny_mixed solution under an infinite budget, solved in process."""
    arch = parse_architecture((DATA / "tiny_mixed.arch.json").read_text())
    vectors = build_all_vectors(arch, parse_scores((inputs / "scores.json").read_text()))
    tables = parse_lut((inputs / "lut.json").read_text())
    return solve(assemble(arch, vectors, tables, float("inf")))


class TestSynth:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a = synth(tmp_path / "a")
        b = synth(tmp_path / "b")
        for name in ("scores.json", "lut.json", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_arch_is_io_error(self, tmp_path):
        code = main(
            ["synth", "--arch", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert code == 4

    @pytest.mark.parametrize("flag, value, named", [
        ("--seed", "-1", "--seed"),
        ("--spatial", "nan", "spatial"),
        ("--unit-cost", "inf", "unit_cost"),
        ("--overhead", "-inf", "overhead"),
        ("--noise", "1", "noise fraction must be in [0, 1), got 1.0"),
    ])
    def test_bad_parameter_exits_3_naming_it(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "o"
        code = main(["synth", "--arch", str(DATA / "tiny_mixed.arch.json"),
                     f"{flag}={value}", "--out", str(out)])
        assert code == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_documents_are_the_library_serializers_text(self, tmp_path):
        # synth streams the encoder's pieces; the bytes must be the ones
        # serialize_scores and serialize_lut return.
        out = synth(tmp_path)
        stamp = json.loads((out / "manifest.json").read_text())["hash"]
        arch = parse_architecture((DATA / "tiny_mixed.arch.json").read_text())
        params = LatencyModelParams(unit_cost=1e-4, overhead=0.01, tile=8, spatial=1.0)
        scores = serialize_scores(synth_scores(arch, 0, "uniform01"), manifest=stamp)
        lut = serialize_lut(synth_lut(arch, params, 0, noise=0.02), manifest=stamp)
        assert (out / "scores.json").read_text() == scores
        assert (out / "lut.json").read_text() == lut

    def test_tile_plateau_visible_in_emitted_lut(self, tmp_path):
        out = synth(tmp_path)
        doc = json.loads((out / "lut.json").read_text())
        table = next(
            t for t in doc["tables"]
            if t["block_id"] == 1 and t["part"] == "conv_layer" and t["layer"] == 1
        )
        # b1_c1 keeps 4/8/12/16 channels; tile 8 maps kept 4 and 8 to the
        # same effective width, so the first two columns plateau (up to noise).
        row = np.array(table["data"]).reshape(table["shape"])[0]
        assert abs(row[0] - row[1]) <= 0.02 * 2 * max(row[0], row[1])


def _three_byte_payload(lut: dict) -> None:
    """Give the first table a base64 payload that is not whole float64s."""
    del lut["tables"][0]["data"]
    lut["tables"][0]["data_b64"] = "AAAA"


def problem_args(inputs: Path) -> list[str]:
    """tiny_mixed with the documents `synth` wrote under `inputs`."""
    return ["--arch", str(DATA / "tiny_mixed.arch.json"), "--scores", str(inputs / "scores.json"),
            "--lut", str(inputs / "lut.json")]


def _overflow(inputs: Path, document: str, every: bool) -> None:
    """Set every entry of `document`, or the first of each record, to
    1e308: each is finite, but the totals pass float64's range."""
    path = inputs / f"{document}.json"
    doc = json.loads(path.read_text())
    records, key = (doc["scores"], "scores") if document == "scores" else (doc["tables"], "data")
    for record in records:
        values = record[key]
        record[key] = [1e308] * len(values) if every else [1e308] + [0.0] * (len(values) - 1)
    path.write_text(json.dumps(doc))


def _dim(arch: dict, dim_id: str) -> dict:
    return next(d for d in arch["dims"] if d["id"] == dim_id)


def _free_conv_input(arch: dict) -> None:
    """Block 2 reads a conv output that no block owns."""
    arch["dims"].append(dict(_dim(arch, "b1_c1"), id="free"))
    arch["blocks"][1]["input_ref"] = "free"


# Edits of tiny_mixed: a permanent chain (block 1), a removable chain
# (block 2), both fed by the fixed trunk width "stem", and a removable
# transformer (block 3).
ARCH_RULES = [
    pytest.param(lambda a: a.update(name=""), "architecture name must be a non-empty string",
                 id="empty-name"),
    pytest.param(lambda a: a.update(name=5), "architecture name must be a non-empty string",
                 id="non-string-name"),
    pytest.param(lambda a: a["blocks"][0].update(dims=[]), "block 1: empty dims list",
                 id="block-without-dims"),
    pytest.param(lambda a: a["blocks"][1]["dims"].append("b1_c2"),
                 "dimension 'b1_c2' belongs to both block 1 and block 2", id="dim-in-two-blocks"),
    pytest.param(lambda a: a["blocks"][2].update(input_ref="stem"),
                 "block 3: transformer blocks take no input_ref", id="transformer-input-ref"),
    pytest.param(lambda a: _dim(a, "b1_c1").update(role="mlp"),
                 "block 1: cnn_chain dims must have role conv_out, but 'b1_c1' has role 'mlp'",
                 id="chain-dim-not-conv-out"),
    pytest.param(lambda a: a["blocks"][0].pop("input_ref"), "block 1: cnn_chain needs input_ref",
                 id="chain-without-input-ref"),
    pytest.param(lambda a: a["blocks"][1].update(input_ref="b3_emb"),
                 "block 2: input_ref 'b3_emb' must have role conv_out or fixed_external, "
                 "found 'emb'", id="input-ref-of-role-emb"),
    pytest.param(_free_conv_input,
                 "block 2: input_ref 'free' is a conv_out dimension owned by no block",
                 id="input-ref-owned-by-no-block"),
    pytest.param(lambda a: a["blocks"][0].update(input_ref="b2_c2"),
                 "block 1: input_ref 'b2_c2' must be declared earlier in topology order "
                 "(owned by block 2)", id="input-ref-owned-by-a-later-block"),
    pytest.param(lambda a: _dim(a, "b1_c1").update(option_count=0),
                 "dimension 'b1_c1': option_count must be a positive integer, got 0",
                 id="zero-options"),
    pytest.param(lambda a: _dim(a, "b1_c1").update(option_count=5),
                 "dimension 'b1_c1': option_count*group_size exceeds max_elements+group_size-1 "
                 "(5*4 > 16+4-1)", id="options-past-max-elements"),
    pytest.param(lambda a: _dim(a, "stem").update(option_count=2, group_size=8),
                 "dimension 'stem': fixed_external requires option_count=1",
                 id="fixed-external-with-two-options"),
    pytest.param(lambda a: _dim(a, "stem").update(group_size=8),
                 "dimension 'stem': fixed_external requires group_size >= max_elements",
                 id="fixed-external-narrower-than-its-width"),
]


class TestCheck:
    def test_valid_bundle_ok(self, tmp_path, capsys):
        inputs = synth(tmp_path)
        code = main(
            [
                "check",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("OK")

    def test_corrupted_lut_rank_named(self, tmp_path, capsys):
        inputs = synth(tmp_path)
        doc = json.loads((inputs / "lut.json").read_text())
        bad = next(t for t in doc["tables"] if t["part"] == "conv_layer")
        bad["part"] = "qk"  # rank-2 payload declared as a rank-3 part
        (inputs / "lut.json").write_text(json.dumps(doc))
        code = main(
            [
                "check",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "lut: FAIL" in out and "rank" in out

    @pytest.mark.parametrize("scores", ["none", "valid", "short"])
    def test_tables_checked_unless_a_scores_step_fails(self, tmp_path, capsys, scores):
        # b1_c1 declares 3 options in a copy of tiny_mixed; its tables hold 4.
        inputs = synth(tmp_path, flags=["--seed", "0"])
        doc = json.loads((DATA / "tiny_mixed.arch.json").read_text())
        next(d for d in doc["dims"] if d["id"] == "b1_c1")["option_count"] = 3
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(doc))
        argv = ["check", "--arch", str(arch), "--lut", str(inputs / "lut.json")]
        if scores != "none":
            doc = json.loads((inputs / "scores.json").read_text())
            if scores == "short":
                next(e for e in doc["scores"] if e["dim_id"] == "b1_c1")["scores"].pop()
            (inputs / "scores.json").write_text(json.dumps(doc))
            argv += ["--scores", str(inputs / "scores.json")]
        capsys.readouterr()
        assert main(argv) == 3
        shapes = ("problem shapes: FAIL block 1: conv_layer 1 table axis 1 ('b1_c1'): "
                  "expected 3, found 4")
        lines = {"none": ["architecture: OK", "lut: OK", shapes],
                 "valid": ["architecture: OK", "scores: OK", "lut: OK", "importance vectors: OK",
                           shapes],
                 "short": ["architecture: OK", "scores: OK", "lut: OK",
                           "importance vectors: FAIL scores for 'b1_c1': expected 16 values, "
                           "found 15"]}[scores]
        assert capsys.readouterr().out == "\n".join([*lines, "1 check(s) failed\n"])

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("field, value", [("axes", 5), ("block_id", [1]), ("layer", "1")])
    def test_mistyped_lut_field_named(self, tmp_path, capsys, command, field, value):
        inputs = synth(tmp_path)
        doc = json.loads((inputs / "lut.json").read_text())
        doc["tables"][0][field] = value
        (inputs / "lut.json").write_text(json.dumps(doc))
        arch = DATA / "tiny_mixed.arch.json"
        if command == "check":
            argv = ["check", "--arch", str(arch), "--scores", str(inputs / "scores.json"),
                    "--lut", str(inputs / "lut.json")]
        else:
            argv = solve_args(arch, inputs, tmp_path / "run", "0.25")
        assert main(argv) == 3
        captured = capsys.readouterr()
        shown = captured.out if command == "check" else captured.err
        assert f"lut[0].{field}" in shown
        if command == "check":
            assert "lut: FAIL" in shown

    @pytest.mark.parametrize(
        "document, edit, named",
        [
            *(pytest.param("lut", lambda d, v=v: d["tables"][0]["data"].__setitem__(1, v),
                           "lut[0].data[1]", id=f"lut-entry-{name}")
              for name, v in (("empty-string", ""), ("object", {}), ("list", [1.0]),
                              ("numeric-string", "1.5"), ("bool", True), ("huge", 10**400))),
            pytest.param("lut", lambda d: d["tables"][0].update(data="abc"), "lut[0].data",
                         id="lut-data-string"),
            pytest.param("lut", lambda d: d["tables"][0].update(data_b64="AAAA"), "lut[0]",
                         id="lut-both-payloads"),
            pytest.param("lut", _three_byte_payload, "lut[0].data_b64", id="lut-short-base64"),
            pytest.param("scores", lambda d: d["scores"][0]["scores"].__setitem__(2, 10**400),
                         "scores[0].scores[2]", id="score-huge"),
            pytest.param("scores", lambda d: d["scores"][0]["scores"].__setitem__(2, "1.5"),
                         "scores[0].scores[2]", id="score-numeric-string"),
        ],
    )
    def test_non_number_payload_named(self, tmp_path, capsys, document, edit, named):
        inputs = synth(tmp_path)
        doc = json.loads((inputs / f"{document}.json").read_text())
        edit(doc)
        (inputs / f"{document}.json").write_text(json.dumps(doc))
        code = main(
            [
                "check",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
            ]
        )
        assert code == 3
        assert f"{document}: FAIL {named}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize(
        "stray, named",
        [
            (dict(block_id=9), "block 9 conv_layer 1"),
            (dict(layer=3), "block 1 conv_layer 3"),
            (dict(part="mlp", layer=None), "block 1 mlp"),
        ],
        ids=["unknown-block", "layer-beyond-chain", "mlp-on-chain"],
    )
    def test_stray_lut_table_named(self, tmp_path, capsys, command, stray, named):
        # A copy of block 1's first conv_layer table that no part of the
        # architecture reads.
        inputs = synth(tmp_path)
        doc = json.loads((inputs / "lut.json").read_text())
        first = doc["tables"][0]
        assert (first["block_id"], first["part"], first["layer"]) == (1, "conv_layer", 1)
        table = dict(first, **stray)
        if table["layer"] is None:
            del table["layer"]
        doc["tables"].append(table)
        (inputs / "lut.json").write_text(json.dumps(doc))
        arch = DATA / "tiny_mixed.arch.json"
        if command == "check":
            argv = ["check", "--arch", str(arch), "--scores", str(inputs / "scores.json"),
                    "--lut", str(inputs / "lut.json")]
        else:
            argv = solve_args(arch, inputs, tmp_path / "run", "0.25")
        assert main(argv) == 3
        captured = capsys.readouterr()
        if command == "check":
            assert f"problem shapes: FAIL {named}: " in captured.out
        else:
            assert f"error: {named}: " in captured.err

    def test_huge_mistyped_value_shown_short(self, tmp_path, capsys):
        # ViT-B-12: twelve removable transformer blocks.
        shape = {"emb": (12, 64), "head": (12, 1), "qk": (8, 8), "v": (8, 8), "mlp": (48, 64)}
        dims, blocks = [], []
        for b in range(1, 13):
            ids = [f"b{b}_{role}" for role in shape]
            dims += [{"id": i, "role": role, "option_count": n, "group_size": g,
                      "max_elements": n * g} for i, (role, (n, g)) in zip(ids, shape.items())]
            blocks.append({"id": b, "kind": "transformer", "removable": True, "dims": ids})
        arch = tmp_path / "vit.arch.json"
        arch.write_text(json.dumps({"name": "vit_b12", "dims": dims, "blocks": blocks}))
        inputs = synth(tmp_path, arch)
        doc = json.loads((inputs / "lut.json").read_text())
        doc["tables"] = {"x": doc["tables"]}
        (inputs / "lut.json").write_text(json.dumps(doc))
        assert len(repr(doc["tables"])) > 100_000
        assert main(solve_args(arch, inputs, tmp_path / "run", "1.0")) == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: lut.tables: unexpected dict value {")
        assert len(err) < 200

    def test_bool_option_count_named(self, tmp_path, capsys):
        doc = json.loads((DATA / "tiny_mixed.arch.json").read_text())
        doc["dims"][1]["option_count"] = True
        bad_arch = tmp_path / "bool.arch.json"
        bad_arch.write_text(json.dumps(doc))
        assert main(["check", "--arch", str(bad_arch)]) == 3
        assert "architecture: FAIL dims[1].option_count" in capsys.readouterr().out

    def test_duplicate_dim_named(self, tmp_path, capsys):
        inputs = synth(tmp_path)
        doc = json.loads((DATA / "tiny_mixed.arch.json").read_text())
        doc["dims"].append(dict(doc["dims"][1]))
        bad_arch = tmp_path / "dup.arch.json"
        bad_arch.write_text(json.dumps(doc))
        code = main(["check", "--arch", str(bad_arch)])
        out = capsys.readouterr().out
        assert code == 3
        assert "duplicate" in out and "b1_c1" in out

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda t: t[0].update(part="conv"), "lut[0]: block 1 conv: unknown part 'conv'"),
            (lambda t: t[0].pop("layer"), "lut[0]: block 1 conv_layer None: conv_layer tables "
                                          "need a 1-based layer"),
            (lambda t: t.insert(1, dict(t[0])),
             "lut[1]: duplicate table for block 1 conv_layer 1"),
            (lambda t: t[0].update(shape=[1, 0]),
             "lut[0]: shape must be a list of positive integers"),
        ],
        ids=["unknown-part", "conv-layer-without-layer", "two-records-for-one-part",
             "zero-in-shape"],
    )
    def test_lut_record_rule_named(self, tmp_path, capsys, edit, named):
        inputs = synth(tmp_path)
        doc = json.loads((inputs / "lut.json").read_text())
        assert (doc["tables"][0]["block_id"], doc["tables"][0]["layer"]) == (1, 1)
        edit(doc["tables"])
        (inputs / "lut.json").write_text(json.dumps(doc))
        assert main(["check", *problem_args(inputs)]) == 3
        assert f"lut: FAIL {named}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("edit, named", ARCH_RULES)
    def test_architecture_rule_named(self, tmp_path, capsys, edit, named):
        doc = json.loads((DATA / "tiny_mixed.arch.json").read_text())
        edit(doc)
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(doc))
        assert main(["check", "--arch", str(arch)]) == 3
        assert f"architecture: FAIL {named}" in capsys.readouterr().out

    def test_empty_score_list_named(self, tmp_path, capsys):
        inputs = synth(tmp_path)
        doc = json.loads((inputs / "scores.json").read_text())
        doc["scores"][0]["scores"] = []
        (inputs / "scores.json").write_text(json.dumps(doc))
        assert main(["check", *problem_args(inputs)]) == 3
        dim_id = doc["scores"][0]["dim_id"]
        assert (f"scores: FAIL scores[0] ({dim_id!r}): scores must be a non-empty list"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("command", ["check", "solve", "sweep", "extract"])
    def test_stray_scores_entry_named(self, tmp_path, capsys, command):
        # Scores for a dimension the architecture does not declare are
        # refused, as a table that no part reads is.
        inputs = synth(tmp_path)
        run = tmp_path / "run"
        if command == "extract":
            assert main(solve_args(DATA / "tiny_mixed.arch.json", inputs, run, "0.25")) == 0
        doc = json.loads((inputs / "scores.json").read_text())
        doc["scores"].append({"dim_id": "no_such_dim", "scores": [0.5, 0.25]})
        (inputs / "scores.json").write_text(json.dumps(doc))
        extra = {"check": [], "solve": ["--budget-ms", "0.25"], "sweep": ["--budgets", "0.2,0.25"],
                 "extract": ["--report", str(run / "report.json")]}[command]
        out = [] if command == "check" else ["--out", str(tmp_path / "out")]
        assert main([command, *problem_args(inputs), *extra, *out]) == 3
        named = "scores for 'no_such_dim': architecture 'tiny_mixed' declares no such dimension"
        captured = capsys.readouterr()
        if command == "check":
            assert f"importance vectors: FAIL {named}\n" in captured.out
        else:
            assert captured.err == f"error: {named}\n"
            assert not (tmp_path / "out").exists()


class TestSolve:
    def test_bundled_example_matches_golden_report(self, tmp_path):
        inputs = synth(tmp_path)
        out = tmp_path / "run"
        code = main(
            solve_args(DATA / "tiny_mixed.arch.json", inputs, out, "0.25", "--threads", "1")
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "optimal"

        # Cross-check the report against the exhaustive oracle.
        oracle_out = tmp_path / "oracle"
        code = main(
            solve_args(
                DATA / "tiny_mixed.arch.json", inputs, oracle_out, "0.25",
                "--mode", "exhaustive",
            )
        )
        assert code == 0
        oracle = json.loads((oracle_out / "report.json").read_text())
        assert report["importance"] == oracle["importance"]
        assert report["assignment"] == oracle["assignment"]

        for name in ("report.json", "structure.json", "summary.csv", "summary.txt",
                     "assignment.csv"):
            golden = GOLDEN / f"tiny_mixed_{name}"
            assert golden.exists(), f"golden file {golden} is missing"
            assert (out / name).read_bytes() == golden.read_bytes()

    def test_reruns_and_thread_counts_are_byte_identical(self, tmp_path):
        inputs = synth(tmp_path)
        runs = {}
        for name, threads in (("t1", "1"), ("t1b", "1"), ("t8", "8")):
            out = tmp_path / name
            code = main(
                solve_args(
                    DATA / "tiny_mixed.arch.json", inputs, out, "0.25",
                    "--threads", threads,
                )
            )
            assert code == 0
            runs[name] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "timing.json"
            }
        assert runs["t1"] == runs["t1b"]
        assert runs["t1"] == runs["t8"]

    def test_heuristic_only_plan_fits_and_reruns_byte_identical(self, tmp_path):
        inputs = synth(tmp_path)
        arch = DATA / "tiny_mixed.arch.json"
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(solve_args(arch, inputs, out, "0.25", "--mode", "heuristic_only")) == 0
            runs.append({
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "timing.json"
            })
        assert runs[0] == runs[1]
        report = json.loads(runs[0]["report.json"])
        assert report["status"] == "feasible_heuristic"
        assert report["bound"] >= report["importance"]
        assert report["latency_ms"] <= 0.25
        assignment = Assignment(
            omega=report["assignment"]["omega"],
            kappa={int(b): k for b, k in report["assignment"]["kappa"].items()},
        )
        parsed = parse_architecture(arch.read_text())
        tables = parse_lut((inputs / "lut.json").read_text())
        assert constraint_value(assignment, tables, parsed) == report["latency_ms"]

    def test_heuristic_only_decides_a_plan_the_rounding_misses(self, tmp_path, capsys):
        # Three permanent one-option chains.  At this budget, the one plan's
        # latency summed in block order, the rounding's fit test (which sums
        # the later blocks apart) rejects the plan, so the merge decides.
        arch = tmp_path / "three_chains.arch.json"
        dims = [{"id": "t", "role": "fixed_external", "option_count": 1, "group_size": 4,
                 "max_elements": 4}]
        dims += [{"id": f"c{i}", "role": "conv_out", "option_count": 1, "group_size": 1,
                  "max_elements": 1} for i in (1, 2, 3)]
        blocks = [{"id": i, "kind": "cnn_chain", "removable": False, "input_ref": "t",
                   "dims": [f"c{i}"]} for i in (1, 2, 3)]
        arch.write_text(json.dumps({"name": "three_chains", "dims": dims, "blocks": blocks}))
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        scores = [{"dim_id": "t", "scores": [0.0] * 4}]
        scores += [{"dim_id": f"c{i}", "scores": [1.0]} for i in (1, 2, 3)]
        (inputs / "scores.json").write_text(json.dumps({"scores": scores}))
        tables = [{"block_id": i, "part": "conv_layer", "layer": 1, "axes": ["t", f"c{i}"],
                   "shape": [1, 1], "data": [ms]} for i, ms in ((1, 0.15), (2, 1 / 3), (3, 0.3))]
        (inputs / "lut.json").write_text(json.dumps({"tables": tables}))
        budget = "0.7833333333333332"
        for mode, status in (("branch_and_bound", "optimal"), ("exhaustive", "optimal"),
                             ("heuristic_only", "feasible_heuristic")):
            out = tmp_path / mode
            assert main(solve_args(arch, inputs, out, budget, "--mode", mode)) == 0, mode
            report = json.loads((out / "report.json").read_text())
            assert report["status"] == status
            assert report["latency_ms"] == float(budget)
            assert report["importance"] == 3.0

    def test_architecture_without_blocks_solves_exhaustively(self, tmp_path, capsys):
        arch = tmp_path / "trunk_only.arch.json"
        arch.write_text(json.dumps({
            "name": "trunk_only",
            "dims": [{"id": "stem", "role": "fixed_external", "option_count": 1,
                      "group_size": 16, "max_elements": 16}],
            "blocks": [],
        }))
        inputs = synth(tmp_path, arch)
        out = tmp_path / "run"
        assert main(solve_args(arch, inputs, out, "1.0", "--mode", "exhaustive")) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "optimal"
        assert report["importance"] == 0.0
        # No block was removed, so the network is not degenerate.
        assert json.loads((out / "structure.json").read_text())["degenerate"] is False
        assert "warning" not in (out / "summary.txt").read_text()
        assert "warning" not in capsys.readouterr().out

    @pytest.mark.parametrize("mode", ["branch_and_bound", "heuristic_only"])
    def test_plan_removing_every_block_warns_with_its_status(self, tmp_path, capsys, mode):
        arch = tmp_path / "one_block.arch.json"
        arch.write_text(json.dumps({
            "name": "one_block",
            "dims": [{"id": "stem", "role": "fixed_external", "option_count": 1,
                      "group_size": 16, "max_elements": 16},
                     {"id": "c1", "role": "conv_out", "option_count": 2, "group_size": 8,
                      "max_elements": 16}],
            "blocks": [{"id": 1, "kind": "cnn_chain", "removable": True, "input_ref": "stem",
                        "dims": ["c1"]}],
        }))
        inputs = synth(tmp_path, arch)
        out = tmp_path / "run"
        capsys.readouterr()
        assert main(solve_args(arch, inputs, out, "1e-9", "--mode", mode)) == 0
        status = json.loads((out / "report.json").read_text())["status"]
        assert status == ("optimal" if mode == "branch_and_bound" else "feasible_heuristic")
        warning = capsys.readouterr().out.splitlines()[0]
        assert warning == f"solve: warning: {status} plan removes every block (degenerate network)"
        assert json.loads((out / "structure.json").read_text())["degenerate"] is True

    def test_outputs_written(self, tmp_path):
        inputs = synth(tmp_path)
        out = tmp_path / "run"
        assert main(solve_args(DATA / "tiny_mixed.arch.json", inputs, out, "0.25")) == 0
        for name in (
            "report.json", "structure.json", "summary.csv", "summary.txt",
            "assignment.csv", "timing.json", "manifest.json",
        ):
            assert (out / name).exists(), name
        stamp = json.loads((out / "manifest.json").read_text())["hash"]
        assert json.loads((out / "report.json").read_text())["_manifest"] == stamp
        assert stamp in (out / "summary.csv").read_text().splitlines()[0]

    def test_infeasible_budget_exits_2_without_structure(self, tmp_path):
        inputs = synth(tmp_path)
        out = tmp_path / "run"
        code = main(solve_args(DATA / "tiny_mixed.arch.json", inputs, out, "0.0001"))
        assert code == 2
        assert (out / "report.json").exists()
        assert not (out / "structure.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "infeasible"
        assert report["assignment"] is None

    def test_validation_error_exits_3(self, tmp_path):
        inputs = synth(tmp_path)
        other_scores = tmp_path / "scores.json"
        other_scores.write_text('[{"dim_id": "zzz", "scores": [1.0]}]')
        code = main(
            [
                "solve",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(other_scores),
                "--lut", str(inputs / "lut.json"),
                "--budget-ms", "1.0",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 3

    @pytest.mark.parametrize("budget", ["inf", "nan"])
    def test_non_finite_budget_exits_3_before_writing(self, tmp_path, capsys, budget):
        inputs = synth(tmp_path)
        out = tmp_path / "run"
        code = main(solve_args(DATA / "tiny_mixed.arch.json", inputs, out, budget))
        assert code == 3
        assert "--budget-ms" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "budget, extra, named",
        [
            ("abc", (), "--budget-ms"),
            ("-inf", (), "--budget-ms"),
            ("0.25", ("--seed", "0"), "--seed"),
            ("0.25", ("--threads", "0"), "--threads"),
        ],
    )
    def test_usage_errors_exit_3_before_writing(self, tmp_path, capsys, budget, extra, named):
        inputs = synth(tmp_path)
        out = tmp_path / "run"
        code = main(solve_args(DATA / "tiny_mixed.arch.json", inputs, out, budget, *extra))
        assert code == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--tolerance", "nan"), ("--time-limit", "nan"), ("--time-limit", "inf"),
         ("--tolerance", "inf")],
    )
    def test_non_finite_solver_flag_exits_3_before_writing(self, tmp_path, capsys, flag, value):
        inputs = synth(tmp_path)
        out = tmp_path / "run"
        code = main(solve_args(DATA / "tiny_mixed.arch.json", inputs, out, "0.25", flag, value))
        assert code == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("budget", ["1e306", "1e308", "1.7e308"])
    @pytest.mark.parametrize("mode", ["branch_and_bound", "heuristic_only"])
    def test_huge_finite_budget_exits_0_silently(self, tmp_path, capsys, mode, budget):
        inputs = synth(tmp_path, flags=HUGE_BUDGET_FLAGS)
        out = tmp_path / "run"
        code = main(solve_args(DATA / "tiny_mixed.arch.json", inputs, out, budget,
                               "--mode", mode))
        assert (code, capsys.readouterr().err) == (0, "")
        report = json.loads((out / "report.json").read_text())
        want = unbounded_solution(inputs).assignment
        assert report["budget_ms"] == float(budget)
        assert report["assignment"] == {
            "omega": want.omega, "kappa": {str(b): k for b, k in want.kappa.items()}}

    def test_help_exits_0(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert "--budget-ms" in capsys.readouterr().out

    @pytest.mark.parametrize("command, first", [
        ("solve", "arch"), ("sweep", "arch"), ("extract", "report")])
    def test_missing_input_exits_4(self, tmp_path, capsys, command, first):
        """Every input is missing, each under its own name: the i/o error
        names the document the command reads first."""
        names = ("report", "arch", "scores", "lut") if command == "extract" else (
            "arch", "scores", "lut")
        argv = [command, *(f"--{name}={tmp_path / f'absent-{name}.json'}" for name in names),
                *{"solve": ["--budget-ms", "1.0"], "sweep": ["--budgets", "0.5,1.0"],
                  "extract": []}[command], "--out", str(tmp_path / "run")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and f"absent-{first}.json" in err
        assert err.count("absent-") == 1
        assert not (tmp_path / "run").exists()


class TestSweep:
    def test_one_row_per_budget(self, tmp_path):
        inputs = synth(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
                "--budgets", "0.15,0.25,0.5,1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2 + 4  # manifest comment + header + rows
        importances = [float(line.split(",")[2]) for line in lines[2:]]
        assert importances == sorted(importances)

    def test_huge_finite_budgets_take_the_unbounded_plan(self, tmp_path, capsys):
        inputs = synth(tmp_path, flags=HUGE_BUDGET_FLAGS)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--arch", str(DATA / "tiny_mixed.arch.json"),
            "--scores", str(inputs / "scores.json"), "--lut", str(inputs / "lut.json"),
            "--budgets", "1e306,1e308,1.7e308", "--out", str(out),
        ])
        assert (code, capsys.readouterr().err) == (0, "")
        want = unbounded_solution(inputs)
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[2:]]
        assert [r[:4] for r in rows] == [
            [b, "optimal", repr(want.importance), repr(want.latency)]
            for b in ("1e+306", "1e+308", "1.7e+308")
        ]

    @pytest.mark.parametrize(
        "budgets, entry",
        [("0.2,abc", "'abc'"), ("0.2,inf", "'inf'"), ("nan,0.2", "'nan'"), ("0.2, x1", "'x1'"),
         (",", "needs at least one value")],
    )
    def test_bad_budget_entry_exits_3_and_is_named(self, tmp_path, capsys, budgets, entry):
        inputs = synth(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
                "--budgets", budgets,
                "--out", str(out),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "--budgets" in err and entry in err
        assert not out.exists()


    def test_nan_tolerance_exits_3_before_writing(self, tmp_path, capsys):
        inputs = synth(tmp_path)
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
                "--budgets", "0.2,0.5",
                "--tolerance", "nan",
                "--out", str(out),
            ]
        )
        assert code == 3
        assert "--tolerance" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--time-limit", "nan")])
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_bad_solver_option_is_named_before_inputs_are_read(
        self, tmp_path, capsys, command, flag, value
    ):
        missing = tmp_path / "missing.json"
        budget = ["--budget-ms", "1.0"] if command == "solve" else ["--budgets", "0.5,1.0"]
        code = main([command, "--arch", str(missing), "--scores", str(missing),
                     "--lut", str(missing), *budget, flag, value, "--out", str(tmp_path / "run")])
        assert code == 3
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode", ["branch_and_bound", "heuristic_only", "exhaustive"])
    @pytest.mark.parametrize("chained", [False, True], ids=["tiny_mixed", "chained"])
    def test_rows_equal_independent_solves(self, tmp_path, mode, chained):
        arch = DATA / "tiny_mixed.arch.json"
        if chained:  # block 2's first layer reads permanent block 1's output
            doc = json.loads(arch.read_text())
            doc["blocks"][1]["input_ref"] = "b1_c2"
            arch = tmp_path / "chained.arch.json"
            arch.write_text(json.dumps(doc))
        inputs = synth(tmp_path, arch)
        # Unsorted, with a repeat, an infeasible and a huge budget.
        budgets = ["0.5", "0.15", "1.0", "0.001", "0.25", "0.5", "0.35", "1e308"]
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--arch", str(arch), "--scores", str(inputs / "scores.json"),
            "--lut", str(inputs / "lut.json"), "--budgets", ",".join(budgets),
            "--mode", mode, "--out", str(out),
        ])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()[2:]
        want = []
        for i, budget in enumerate(budgets):
            run = tmp_path / f"solve{i}"
            assert main(solve_args(arch, inputs, run, budget, "--mode", mode)) in (0, 2)
            r = json.loads((run / "report.json").read_text())
            if r["status"] == "infeasible":
                want.append(f"{r['budget_ms']!r},infeasible,,,,{r['node_count']}")
            else:
                want.append(f"{r['budget_ms']!r},{r['status']},{r['importance']!r},"
                            f"{r['latency_ms']!r},{r['gap']!r},{r['node_count']}")
        assert rows == want
        assert "infeasible" in rows[3] and "infeasible" not in rows[0]

    def test_timing_is_the_batch_solve_time(self, tmp_path, monkeypatch):
        from latprune import cli

        solve_budgets = cli.solver_mod.solve_budgets

        def timed(problem, budgets, **settings):
            solutions = solve_budgets(problem, budgets, **settings)
            walls = (0.5, 2.0, 1.0)  # seconds from the batch's start
            return [PruningSolution(**{**vars(s), "wall_time": w}) for s, w in zip(solutions, walls)]

        monkeypatch.setattr(cli.solver_mod, "solve_budgets", timed)
        inputs = synth(tmp_path)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--arch", str(DATA / "tiny_mixed.arch.json"),
            "--scores", str(inputs / "scores.json"), "--lut", str(inputs / "lut.json"),
            "--budgets", "0.1,0.12,1.0", "--out", str(out),
        ]) == 0
        assert json.loads((out / "timing.json").read_text()) == {"wall_time_s": 2.0}

    def test_falling_optimal_importance_exits_3_before_writing(
        self, tmp_path, capsys, monkeypatch
    ):
        from latprune import cli

        solve_budgets = cli.solver_mod.solve_budgets

        def faulty(problem, budgets, **settings):
            solutions = solve_budgets(problem, budgets, **settings)
            j = budgets.index(1.0)
            solutions[j] = PruningSolution(
                **{**vars(solutions[j]), "importance": solutions[j].importance - 1e6})
            return solutions

        monkeypatch.setattr(cli.solver_mod, "solve_budgets", faulty)
        inputs = synth(tmp_path)
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--arch", str(DATA / "tiny_mixed.arch.json"),
            "--scores", str(inputs / "scores.json"), "--lut", str(inputs / "lut.json"),
            "--budgets", "1.0,0.5", "--out", str(out),
        ])
        assert code == 3
        assert "internal error: optimal importance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tolerance, code", [("0.5", 0), ("0.125", 3)])
    def test_a_fall_within_the_tolerance_is_accepted(self, tmp_path, monkeypatch, tolerance, code):
        from latprune import cli

        solve_budgets = cli.solver_mod.solve_budgets

        def fallen(problem, budgets, **settings):
            solutions = solve_budgets(problem, budgets, **settings)
            small, large = budgets.index(0.5), budgets.index(1.0)
            importance = solutions[small].importance - 0.25
            solutions[large] = PruningSolution(**{**vars(solutions[large]), "importance": importance})
            return solutions

        monkeypatch.setattr(cli.solver_mod, "solve_budgets", fallen)
        inputs = synth(tmp_path)
        out = tmp_path / "sweep"
        assert main([
            "sweep", "--arch", str(DATA / "tiny_mixed.arch.json"),
            "--scores", str(inputs / "scores.json"), "--lut", str(inputs / "lut.json"),
            "--budgets", "1.0,0.5", "--tolerance", tolerance, "--out", str(out),
        ]) == code
        assert out.exists() == (code == 0)


class TestOverflowingTotals:
    """Entries finite one by one, but totals past float64's range: every
    command that reads them exits 3 naming the document, before a solver
    sum can overflow."""

    @pytest.mark.parametrize("command", ["check", "solve", "sweep", "extract"])
    @pytest.mark.parametrize(
        "document, every, named",
        [
            ("scores", True, "importance vectors: the dimensions' largest |entries| sum to inf"),
            ("scores", False, "importance vectors: the dimensions' largest |entries| sum to inf"),
            ("lut", True, "lut: the tables' largest entries sum to inf ms"),
        ],
        ids=["every-score", "one-score-per-dimension", "every-lut-entry"],
    )
    def test_exits_3_naming_the_document(self, tmp_path, capsys, command, document, every, named):
        inputs = synth(tmp_path)
        arch = DATA / "tiny_mixed.arch.json"
        report = tmp_path / "run" / "report.json"
        if command == "extract":  # a report solved before the inputs overflow
            assert main(solve_args(arch, inputs, report.parent, "0.25")) == 0
        _overflow(inputs, document, every)
        out = tmp_path / "out"
        argv = {
            "check": ["check", *problem_args(inputs)],
            "solve": solve_args(arch, inputs, out, "1e308"),
            "sweep": ["sweep", *problem_args(inputs), "--budgets", "0.1,0.12", "--out", str(out)],
            "extract": ["extract", "--report", str(report), *problem_args(inputs),
                        "--out", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 3
        captured = capsys.readouterr()
        if command == "check" and document == "scores":  # the line that names the vectors
            assert f"importance vectors: FAIL {named}" in captured.out
            assert "problem shapes" not in captured.out
        elif command == "check":
            assert f"problem shapes: FAIL {named}" in captured.out
        else:
            assert captured.err.startswith(f"error: {named}")
        assert not out.exists()


class TestCheckFoldsNothing:
    """`check` proves the importance vectors' totals finite from each
    dimension's largest |score| (`importance.checked_scores`) and folds the
    scores only when that bound comes near float64's range."""

    @pytest.mark.parametrize("instance", ["tiny_mixed", "vit_b12"])
    def test_check_folds_no_scores(self, tmp_path, capsys, folds, instance):
        arch = DATA / "tiny_mixed.arch.json"
        if instance == "vit_b12":
            arch = tmp_path / "vit_b12.arch.json"
            arch.write_text(serialize_architecture(vit_b12_architecture()))
        inputs = synth(tmp_path, arch)
        folds.clear()  # synth folds nothing either, but only `check` is under test
        capsys.readouterr()
        assert main(["check", "--arch", str(arch), "--scores", str(inputs / "scores.json"),
                     "--lut", str(inputs / "lut.json")]) == 0
        assert capsys.readouterr().out.endswith("importance vectors: OK\nproblem shapes: OK\nOK\n")
        assert folds == []

    def test_check_folds_scores_whose_bound_nears_the_range(self, tmp_path, capsys, folds):
        inputs = synth(tmp_path)
        _overflow(inputs, "scores", every=False)
        assert main(["check", *problem_args(inputs)]) == 3
        assert "importance vectors: FAIL" in capsys.readouterr().out
        assert folds


def test_json_writer_rejects_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"budget_ms": float("inf")})
    assert not (tmp_path / "x.json").exists()


# SHA-256 pads an n-byte message to ceil((n + 9) / 64) blocks of 64 bytes:
# 55 and 119 bytes are the longest that fit one and two blocks.
SHA256_CASES = {
    **{f"{n}-bytes": bytes(i % 251 for i in range(n))
       for n in (0, 1, 55, 56, 63, 64, 65, 119, 120)},
    "non-ascii-utf8": "é ✓ 𝄞 数据 ".encode() * 9,
    "5-mb": np.random.default_rng(0).bytes(5 << 20),
}


class TestSha256Hex:
    """Input digests come from CPython's built-in SHA-256, or from hashlib on
    a build without one; either way they are the standard digest."""

    @pytest.mark.parametrize("data", SHA256_CASES.values(), ids=SHA256_CASES.keys())
    def test_equals_hashlib(self, data):
        assert _sha256_hex(data) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("data", SHA256_CASES.values(), ids=SHA256_CASES.keys())
    def test_hashlib_fallback_gives_the_same_digest(self, monkeypatch, data):
        want = hashlib.sha256(data).hexdigest()
        monkeypatch.setitem(sys.modules, "_sha2", None)  # CPython 3.12+
        monkeypatch.setitem(sys.modules, "_sha256", None)  # CPython 3.10-3.11
        assert _sha256_hex(data) == want


class TestCompareLatencyModels:
    def _write_traj(self, tmp_path, steps):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"steps": steps}))
        return path

    def _cnn_arch(self, tmp_path) -> Path:
        doc = {
            "name": "chain",
            "dims": [
                {"id": "stem", "role": "fixed_external", "option_count": 1,
                 "group_size": 16, "max_elements": 16},
                {"id": "c1", "role": "conv_out", "option_count": 4, "group_size": 4,
                 "max_elements": 16},
                {"id": "c2", "role": "conv_out", "option_count": 4, "group_size": 4,
                 "max_elements": 16},
            ],
            "blocks": [
                {"id": 1, "kind": "cnn_chain", "removable": False,
                 "input_ref": "stem", "dims": ["c1", "c2"]},
            ],
        }
        path = tmp_path / "chain.arch.json"
        path.write_text(json.dumps(doc))
        return path

    def _synth_for(self, tmp_path, arch: Path, noise="0.0") -> Path:
        out = tmp_path / "chain_inputs"
        code = main(
            [
                "synth", "--arch", str(arch), "--seed", "0",
                "--unit-cost", "1e-3", "--overhead", "0.01", "--tile", "8",
                "--spatial", "1.0", "--noise", noise, "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_last_layer_only_trajectory_has_zero_gaps(self, tmp_path):
        arch = self._cnn_arch(tmp_path)
        inputs = self._synth_for(tmp_path, arch)
        traj = self._write_traj(
            tmp_path, [{"c1": 4, "c2": 3}, {"c1": 4, "c2": 2}, {"c1": 4, "c2": 1}]
        )
        out = tmp_path / "cmp"
        code = main(
            [
                "compare-latency-models",
                "--arch", str(arch), "--lut", str(inputs / "lut.json"),
                "--trajectory", str(traj), "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "latency_models.csv").read_text().splitlines()[2:]
        step_rows = [r for r in rows if r.split(",")[1] == "step"]
        assert len(step_rows) == 3
        assert all(float(r.split(",")[5]) == 0.0 for r in step_rows)

    def test_aggressive_trajectory_on_tiled_lut_shows_positive_gap(self, tmp_path):
        arch = self._cnn_arch(tmp_path)
        inputs = self._synth_for(tmp_path, arch)
        traj = self._write_traj(
            tmp_path, [{"c1": 2, "c2": 2}, {"c1": 1, "c2": 1}]
        )
        out = tmp_path / "cmp"
        code = main(
            [
                "compare-latency-models",
                "--arch", str(arch), "--lut", str(inputs / "lut.json"),
                "--trajectory", str(traj), "--out", str(out),
            ]
        )
        assert code == 0
        rows = (out / "latency_models.csv").read_text().splitlines()[2:]
        step_rows = [r for r in rows if r.split(",")[1] == "step"]
        gaps = [float(r.split(",")[5]) for r in step_rows]
        assert any(g > 0 for g in gaps)
        layer_rows = [r.split(",") for r in rows if r.split(",")[1] == "layer"]
        for row in layer_rows:
            assert float(row[6]) <= float(row[7]) + 1e-12  # epsilon <= bound

    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"steps": [', "invalid JSON"),
            ('{"steps": [{"c1": "x", "c2": 1}]}', "'c1'"),
            ('{"steps": [{"c1": true, "c2": 1}]}', "'c1'"),
            ('{"steps": [["c1", "c2"]]}', "step 0"),
            ('{"steps": [{"c1": 5, "c2": 1}]}', "'c1' option 5 out of range [1, 4]"),
        ],
    )
    def test_malformed_trajectory_exits_3(self, tmp_path, capsys, text, named):
        arch = self._cnn_arch(tmp_path)
        inputs = self._synth_for(tmp_path, arch)
        traj = tmp_path / "traj.json"
        traj.write_text(text)
        code = main(
            [
                "compare-latency-models",
                "--arch", str(arch), "--lut", str(inputs / "lut.json"),
                "--trajectory", str(traj), "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "trajectory" in err and named in err

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda tables: tables[1].update(axes=["c2", "c1"]),
             "block 1: conv_layer 2 table axes"),
            # A copy of the conv_layer 2 table as a block-7 mlp table.
            (lambda tables: tables.append(
                {k: v for k, v in tables[1].items() if k != "layer"} | {"block_id": 7, "part": "mlp"}
            ), "block 7 mlp: no part"),
            (lambda tables: tables.pop(1), "block 1: missing conv_layer 2 table"),
        ],
        ids=["swapped-axes", "stray-table", "missing-table"],
    )
    def test_lut_not_matching_the_architecture_exits_3(self, tmp_path, capsys, edit, named):
        arch = self._cnn_arch(tmp_path)
        lut = self._synth_for(tmp_path, arch) / "lut.json"
        doc = json.loads(lut.read_text())
        assert [(t["block_id"], t["layer"]) for t in doc["tables"]] == [(1, 1), (1, 2)]
        edit(doc["tables"])
        lut.write_text(json.dumps(doc))
        traj = self._write_traj(tmp_path, [{"c1": 3, "c2": 3}, {"c1": 2, "c2": 1}])
        code = main(
            [
                "compare-latency-models",
                "--arch", str(arch), "--lut", str(lut),
                "--trajectory", str(traj), "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 3
        assert named in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()

    def test_transformer_arch_rejected(self, tmp_path):
        inputs = synth(tmp_path)
        traj = self._write_traj(tmp_path, [])
        code = main(
            [
                "compare-latency-models",
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--lut", str(inputs / "lut.json"),
                "--trajectory", str(traj), "--out", str(tmp_path / "cmp"),
            ]
        )
        assert code == 3


def _edit(fn):
    """A report mutation that edits the decoded report in place."""

    def mutate(text: str) -> str:
        report = json.loads(text)
        fn(report)
        return json.dumps(report)

    return mutate


def _alias_kappa(kappa: dict, key: str) -> None:
    kappa[key] = kappa[str(int(key))]


BAD_REPORTS = [
    pytest.param(lambda text: text[:-4], "invalid JSON", id="invalid-json"),
    pytest.param(lambda text: "[1, 2]", "expected an object", id="not-an-object"),
    *(
        pytest.param(_edit(lambda r, key=key: r.pop(key)), key, id=f"missing-{key}")
        for key in ("budget_ms", "status", "importance", "latency_ms", "assignment")
    ),
    pytest.param(_edit(lambda r: r.update(budget_ms=True)), "budget_ms", id="bool-budget"),
    pytest.param(
        _edit(lambda r: r.update(budget_ms=10**400)), "budget_ms: integer too large",
        id="huge-budget",
    ),
    pytest.param(_edit(lambda r: r.update(extra=1)), "extra", id="unknown-key"),
    pytest.param(
        _edit(lambda r: r["assignment"]["omega"].update(b1_c1="x")), "b1_c1", id="string-option"
    ),
    pytest.param(
        _edit(lambda r: r["assignment"]["omega"].update(b1_c1=True)), "b1_c1", id="bool-option"
    ),
    pytest.param(
        _edit(lambda r: r["assignment"]["kappa"].update({"2": True})), "kappa", id="bool-kappa"
    ),
    pytest.param(
        _edit(lambda r: r["assignment"]["kappa"].update({"x": 1})), "kappa", id="kappa-block-id"
    ),
    # Block ids the writer never emits, though int() reads them: "02" as 2
    # and the Arabic-Indic digit three as 3. Each repeats its block's value,
    # so the plan read is the solved one.
    *(
        pytest.param(
            _edit(lambda r, key=key: _alias_kappa(r["assignment"]["kappa"], key)),
            "report: assignment.kappa: block ids must be integers",
            id=name,
        )
        for key, name in (("02", "kappa-leading-zero"), ("\u0663", "kappa-non-ascii-digit"))
    ),
    # Past int()'s digit limit, which raised ValueError with a traceback.
    pytest.param(
        _edit(lambda r: r["assignment"]["kappa"].update({"9" * 5000: 1})),
        "report: assignment.kappa: block ids must be integers",
        id="kappa-past-the-digit-limit",
    ),
    pytest.param(
        _edit(lambda r: r["assignment"]["omega"].update(zz_unknown=1)),
        "zz_unknown",
        id="unknown-dim",
    ),
    *(
        pytest.param(_edit(lambda r, b=b: r.update(budget_ms=b)), "budget must be positive",
                     id=f"budget-{b}")
        for b in (0, -1.5, float("nan"))  # json.dumps writes NaN, which the reader accepts
    ),
    pytest.param(
        _edit(lambda r: r.update(status="infeasible")), "infeasible", id="infeasible-status"
    ),
    # The report's own numbers must be the plan's, recomputed bit for bit.
    pytest.param(_edit(lambda r: r.update(status="bogus")), "status", id="bogus-status"),
    pytest.param(_edit(lambda r: r.update(importance=1e9)), "importance", id="wrong-importance"),
    pytest.param(
        _edit(lambda r: r.update(latency_ms=math.nextafter(r["latency_ms"], math.inf))),
        "latency_ms",
        id="latency-one-ulp-off",
    ),
    pytest.param(
        _edit(lambda r: r.update(budget_ms=0.001)), "exceeds budget_ms", id="plan-over-budget"
    ),
    # The plan itself: there, and a keep/remove bit for each removable block only.
    pytest.param(_edit(lambda r: r.update(assignment=None)),
                 "extract: report carries no assignment", id="null-assignment"),
    pytest.param(_edit(lambda r: r["assignment"]["kappa"].pop("2")),
                 "assignment missing kappa for block 2", id="missing-kappa"),
    pytest.param(_edit(lambda r: r["assignment"]["kappa"].update({"2": 2})),
                 "block 2: kappa must be 0 or 1, got 2", id="kappa-2"),
    pytest.param(_edit(lambda r: r["assignment"]["kappa"].update({"1": 1})),
                 "kappa given for block 1, which is not a removable block",
                 id="kappa-of-permanent-block"),
]


class TestExtractCommand:
    def test_re_extraction_matches_solve_outputs(self, tmp_path):
        inputs = synth(tmp_path)
        run = tmp_path / "run"
        assert main(solve_args(DATA / "tiny_mixed.arch.json", inputs, run, "0.25")) == 0
        out = tmp_path / "re"
        code = main(
            [
                "extract",
                "--report", str(run / "report.json"),
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
                "--out", str(out),
            ]
        )
        assert code == 0
        solved = json.loads((run / "structure.json").read_text())
        re_extracted = json.loads((out / "structure.json").read_text())
        solved.pop("_manifest")
        re_extracted.pop("_manifest")
        assert solved == re_extracted
        for name in ("summary.csv", "summary.txt"):  # their stamp lines aside
            solved, re_extracted = (
                [line for line in (d / name).read_text().splitlines()
                 if not line.startswith(("# manifest: ", "manifest: "))]
                for d in (run, out)
            )
            assert solved == re_extracted, name

    def test_structure_json_is_the_extracted_structure(self, tmp_path):
        # What solve and extract write is extract_structure's document of the
        # same plan, stamped, and nothing else.
        inputs = synth(tmp_path)
        arch_path = DATA / "tiny_mixed.arch.json"
        run, out = tmp_path / "run", tmp_path / "re"
        assert main(solve_args(arch_path, inputs, run, "0.25")) == 0
        assert main(["extract", "--report", str(run / "report.json"), "--arch", str(arch_path),
                     "--scores", str(inputs / "scores.json"), "--lut", str(inputs / "lut.json"),
                     "--out", str(out)]) == 0
        arch = parse_architecture(arch_path.read_text())
        raw = parse_scores((inputs / "scores.json").read_text())
        tables = parse_lut((inputs / "lut.json").read_text())
        plan = json.loads((run / "report.json").read_text())["assignment"]
        assignment = Assignment(omega=plan["omega"],
                                kappa={int(b): k for b, k in plan["kappa"].items()})
        want = extract_structure(assignment, arch, build_all_vectors(arch, raw), tables, raw)
        assert [b["kept"] for b in want["blocks"]] == [True, False, True]
        for d in (run, out):
            doc = json.loads((d / "structure.json").read_text())
            assert doc.pop("_manifest") == json.loads((d / "manifest.json").read_text())["hash"]
            assert doc == want

    @pytest.mark.parametrize("mutate, named", BAD_REPORTS)
    def test_malformed_report_exits_3_and_names_the_field(
        self, tmp_path, capsys, mutate, named
    ):
        inputs = synth(tmp_path)
        run = tmp_path / "run"
        assert main(solve_args(DATA / "tiny_mixed.arch.json", inputs, run, "0.25")) == 0
        bad = tmp_path / "bad_report.json"
        bad.write_text(mutate((run / "report.json").read_text()))
        out = tmp_path / "re"
        code = main(
            [
                "extract",
                "--report", str(bad),
                "--arch", str(DATA / "tiny_mixed.arch.json"),
                "--scores", str(inputs / "scores.json"),
                "--lut", str(inputs / "lut.json"),
                "--out", str(out),
            ]
        )
        assert code == 3
        assert named in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# The process entry point and what every command leaves behind
# ---------------------------------------------------------------------------

COMMANDS = ["synth", "check", "solve", "sweep", "extract", "compare-latency-models"]


@pytest.fixture(scope="module")
def documents(tmp_path_factory) -> Path:
    """tiny_mixed's synthesized documents, a solve report over them for
    ``extract``, and a one-chain architecture with tables and a trajectory
    for ``compare-latency-models``."""
    root = tmp_path_factory.mktemp("documents")
    synth(root)
    inputs = root / "inputs"
    assert main(solve_args(DATA / "tiny_mixed.arch.json", inputs, root / "run", "0.25")) == 0
    chain = root / "chain"
    doc = {
        "name": "chain",
        "dims": [
            {"id": "stem", "role": "fixed_external", "option_count": 1, "group_size": 8,
             "max_elements": 8},
            {"id": "c1", "role": "conv_out", "option_count": 2, "group_size": 4,
             "max_elements": 8},
        ],
        "blocks": [{"id": 1, "kind": "cnn_chain", "removable": False, "input_ref": "stem",
                    "dims": ["c1"]}],
    }
    chain.mkdir()
    (chain / "arch.json").write_text(json.dumps(doc))
    assert main(["synth", "--arch", str(chain / "arch.json"), "--out", str(chain)]) == 0
    (chain / "trajectory.json").write_text(json.dumps({"steps": [{"c1": 1}]}))
    return root


def command_args(command: str, root: Path, out: Path) -> list[str]:
    """A successful run of `command` over the `documents` fixture."""
    arch = str(DATA / "tiny_mixed.arch.json")
    docs = ["--arch", arch, "--scores", str(root / "inputs" / "scores.json"),
            "--lut", str(root / "inputs" / "lut.json")]
    chain = root / "chain"
    return {
        "synth": ["synth", "--arch", arch, "--seed", "1", "--out", str(out)],
        "check": ["check", *docs],
        "solve": ["solve", *docs, "--budget-ms", "0.25", "--out", str(out)],
        "sweep": ["sweep", *docs, "--budgets", "0.2,0.3", "--out", str(out)],
        "extract": ["extract", "--report", str(root / "run" / "report.json"), *docs,
                    "--out", str(out)],
        "compare-latency-models": [
            "compare-latency-models", "--arch", str(chain / "arch.json"),
            "--lut", str(chain / "lut.json"), "--trajectory", str(chain / "trajectory.json"),
            "--out", str(out)],
    }[command]


class TestCsvQuoting:
    # A comma in one id; a quote and a newline in another; a tab in a third.
    IDS = {"b1_c1": "b1,c1", "b2_c1": 'b2"c2\nx', "b2_c2": "b2\tc2"}
    NAME = "tiny\nmixed, v2"

    def _solve(self, tmp_path) -> tuple[dict, Path]:
        """tiny_mixed with the name and ids renamed, and the directory of its
        solve at a budget above the dense plan's latency: every block is kept."""
        doc = json.loads((DATA / "tiny_mixed.arch.json").read_text())
        doc["name"] = self.NAME
        for d in doc["dims"]:
            d["id"] = self.IDS.get(d["id"], d["id"])
        for b in doc["blocks"]:
            b["dims"] = [self.IDS.get(x, x) for x in b["dims"]]
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(doc))
        inputs = synth(tmp_path, arch)
        out = tmp_path / "out"
        assert main(solve_args(arch, inputs, out, "1e9")) == 0
        return doc, out

    def test_ids_that_need_quoting_round_trip_through_a_csv_reader(self, tmp_path):
        doc, out = self._solve(tmp_path)
        # Trajectories replay on convolution chains only: blocks 1 and 2.
        doc["blocks"] = [b for b in doc["blocks"] if b["kind"] == "cnn_chain"]
        doc["dims"] = [d for d in doc["dims"] if d["role"] in ("fixed_external", "conv_out")]
        chain = tmp_path / "chain"
        chain.mkdir()
        (chain / "arch.json").write_text(json.dumps(doc))
        step = {d["id"]: 1 for d in doc["dims"] if d["role"] == "conv_out"}
        (chain / "trajectory.json").write_text(json.dumps({"steps": [step]}))
        assert main(["synth", "--arch", str(chain / "arch.json"), "--out", str(chain)]) == 0
        assert main(["compare-latency-models", "--arch", str(chain / "arch.json"), "--lut",
                     str(chain / "lut.json"), "--trajectory", str(chain / "trajectory.json"),
                     "--out", str(out)]) == 0
        for name in ("summary.csv", "assignment.csv", "latency_models.csv"):
            with open(out / name, newline="", encoding="utf-8") as f:
                stamp, *rows = csv.reader(f)
            assert stamp[0].startswith("# manifest: "), name
            header, rows = rows[0], rows[1:]
            assert {len(row) for row in rows} == {len(header)}, name
            ids = {row[header.index("dim_id")] for row in rows}
            assert set(self.IDS.values()) <= ids, name
            assert "b1_c2" in ids, name  # a plain id, as it is

    def test_summary_txt_writes_ids_it_cannot_print_plainly_as_json_strings(self, tmp_path):
        _, out = self._solve(tmp_path)
        lines = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if line.startswith("block ")] == [
            'block 1 (cnn_chain): "b1,c1"=16/16, b1_c2=16/16',
            r'block 2 (cnn_chain): "b2\"c2\nx"=24/24, "b2\tc2"=16/16',
            "block 3 (transformer): b3_emb=32/32, b3_head=4/4, b3_qk=32/32, b3_v=32/32, "
            "b3_mlp=96/96",
        ]
        assert len(lines) == 8  # four header lines, three blocks, the stamp

    def test_summary_txt_writes_a_name_it_cannot_print_plainly_as_a_json_string(self, tmp_path):
        _, out = self._solve(tmp_path)
        text = (out / "summary.txt").read_text(encoding="utf-8")
        assert text.startswith('pruned structure for "tiny\\nmixed, v2"\ndepth 3/3 blocks kept')


class TestProcessEntry:
    """`run` freezes the heap before the process exits, so teardown skips its
    collection; `main` never freezes, so in-process callers leak nothing."""

    @pytest.fixture
    def unfreeze(self):
        yield
        gc.unfreeze()

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_run_exits_with_mains_code_after_freezing(self, monkeypatch, unfreeze, code):
        monkeypatch.setattr(cli, "main", lambda argv=None: code)
        before = gc.get_freeze_count()
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == code
        assert gc.get_freeze_count() > before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_main_never_freezes(self, documents, tmp_path, command):
        before = gc.get_freeze_count()
        assert main(command_args(command, documents, tmp_path / "out")) == 0
        assert gc.get_freeze_count() == before

    @staticmethod
    def process(args: list[str], *flags: str, **env_vars: str) -> subprocess.CompletedProcess:
        """``python [flags] -m latprune.cli args``, run with `env_vars` set."""
        env = {**os.environ, **env_vars}
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")) if p
        )
        return subprocess.run([sys.executable, *flags, "-m", "latprune.cli", *args], env=env,
                              capture_output=True, timeout=60)

    @classmethod
    def entry(cls, args: list[str], *flags: str) -> int:
        """The exit code of ``python [flags] -m latprune.cli args``."""
        return cls.process(args, *flags).returncode

    @staticmethod
    def assert_same_outputs(got: Path, want: Path) -> None:
        names = sorted(p.name for p in want.iterdir())
        assert sorted(p.name for p in got.iterdir()) == names
        for name in names:
            if name != "timing.json":  # wall-clock, the one unstamped output
                assert (got / name).read_bytes() == (want / name).read_bytes(), name

    def test_module_entry_writes_what_main_writes(self, documents, tmp_path):
        args = command_args("solve", documents, tmp_path / "process")
        assert self.entry(args) == 0
        assert main(command_args("solve", documents, tmp_path / "in_process")) == 0
        self.assert_same_outputs(tmp_path / "process", tmp_path / "in_process")
        infeasible = [a if a != "0.25" else "0.0001" for a in args]
        assert self.entry(infeasible) == 2
        assert self.entry([*args, "--no-such-flag"]) == 3

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_stripped_docstrings_change_no_output(self, documents, tmp_path, command):
        # -OO strips every docstring, so no code path may read one.
        assert self.entry(command_args(command, documents, tmp_path / "optimized"), "-OO") == 0
        assert self.entry(command_args(command, documents, tmp_path / "plain")) == 0
        self.assert_same_outputs(tmp_path / "optimized", tmp_path / "plain")

    def test_outputs_are_utf8_under_an_ascii_locale(self, tmp_path):
        # Under the C locale, with neither UTF-8 mode nor locale coercion, the
        # default file encoding and standard output are ASCII.
        ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        doc = json.loads((DATA / "tiny_mixed.arch.json").read_text())
        doc["name"] += "_é"  # written into structure.json and summary.txt
        renamed = {d["id"]: d["id"] + "_é" for d in doc["dims"] if d["role"] != "fixed_external"}
        for d in doc["dims"]:
            d["id"] = renamed.get(d["id"], d["id"])
        for b in doc["blocks"]:
            b["dims"] = [renamed[x] for x in b["dims"]]
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps(doc))
        inputs = synth(tmp_path, arch)
        args = solve_args(arch, inputs, tmp_path / "ascii", "0.12")
        assert self.process(args, **ascii_locale).returncode == 0
        assert self.entry(solve_args(arch, inputs, tmp_path / "default", "0.12")) == 0
        self.assert_same_outputs(tmp_path / "ascii", tmp_path / "default")
        extract = ["extract", "--report", str(tmp_path / "default" / "report.json"), "--arch",
                   str(arch), "--scores", str(inputs / "scores.json"), "--lut",
                   str(inputs / "lut.json"), "--out"]
        for locale, env in (("ascii", ascii_locale), ("default", {})):
            assert self.process([*extract, str(tmp_path / f"extract_{locale}")],
                                **env).returncode == 0
        self.assert_same_outputs(tmp_path / "extract_ascii", tmp_path / "extract_default")
        # A FAIL line naming such an id is printed escaped.
        scores = json.loads((inputs / "scores.json").read_text())
        scores["scores"] = [r for r in scores["scores"] if r["dim_id"] != "b1_c1_é"]
        (tmp_path / "scores.json").write_text(json.dumps(scores))
        check = self.process(["check", "--arch", str(arch), "--scores",
                              str(tmp_path / "scores.json")], **ascii_locale)
        assert check.returncode == 3
        assert b"'b1_c1_\\xe9'" in check.stdout


class TestParser:
    """`main` builds only its command's arguments; the parser it builds
    reads that command exactly as the parser of every command does."""

    @staticmethod
    def help_text(parser, argv: list[str], capsys) -> str:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_command_parser_reads_as_the_full_one(self, documents, tmp_path, command, capsys):
        argv = command_args(command, documents, tmp_path / "out")
        one, full = cli.build_parser(command), cli.build_parser()
        assert one.parse_args(argv) == full.parse_args(argv)
        help_one = self.help_text(one, [command, "--help"], capsys)
        assert help_one == self.help_text(full, [command, "--help"], capsys)
        assert "--arch" in help_one
        assert one.format_help() == full.format_help()

    def test_top_level_help_lists_every_command(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert out == cli.build_parser().format_help()
        listed = [line.split()[0] for line in out.splitlines()
                  if line.startswith("    ") and line.split()[0] in COMMANDS]
        assert listed == ["synth", "check", "solve", "sweep", "compare-latency-models",
                          "extract"]

    def test_misspelled_command_exits_3_listing_every_choice(self, capsys):
        assert main(["solv"]) == 3
        err = capsys.readouterr().err
        assert "invalid choice: 'solv'" in err
        choices = err.split("choose from", 1)[1]
        assert all(c in choices for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_closes_every_file_it_opens(documents, tmp_path, command):
    # The process entry freezes the heap, so a file left open in a cycle would
    # never be flushed at exit: each command must close what it opens.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(command_args(command, documents, tmp_path / "out")) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


def deep_list(depth: int) -> str:
    return "[" * depth + "]" * depth


def with_node(text: str, path: tuple, literal: str) -> str:
    """`text`, a JSON document, with the node at `path` written as `literal`."""
    doc = json.loads(text)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@node@"
    return json.dumps(doc).replace('"@node@"', literal)


def deepest_within_the_guard(text: str, path: tuple) -> str:
    """`text` with the node at `path` a list nested as deep as the most
    containers a document may hold for orjson to decode it allows."""
    spare = ORJSON_MAX_CONTAINERS - sum(map(with_node(text, path, "0").count, "[{"))
    return with_node(text, path, deep_list(spare))


class TestInputLimits:
    """Documents nested past the interpreter's recursion limit and dimension
    sizes past int64 exit 3, naming the document or the field."""

    @pytest.mark.parametrize("command, flag, edit, named", [
        pytest.param("check", "--arch", lambda text: deep_list(100_000), "architecture",
                     id="100000-deep-document"),
        pytest.param("check", "--arch", lambda text: with_node(text, ("name",), deep_list(995)),
                     "architecture", id="995-deep-name"),
        pytest.param("check", "--scores",
                     lambda text: deepest_within_the_guard(text, ("scores", 0, "scores", 0)),
                     "scores[0].scores[0]", id="deep-score"),
        pytest.param("extract", "--report",
                     lambda text: deepest_within_the_guard(text, ("status",)),
                     "report: status", id="deep-report-status"),
        *(
            pytest.param(command, flag, lambda text, path=path: deepest_within_the_guard(text, path),
                         named, id=f"deep-{path[-1]}")
            for command, flag, path, named in [
                ("check", "--arch", ("dims", 0, "role"), "unknown role"),
                ("check", "--arch", ("blocks", 0, "kind"), "unknown kind"),
                ("check", "--lut", ("tables", 0, "part"), "lut[0].part"),
                ("compare-latency-models", "--trajectory", ("steps", 0, "c1"),
                 "trajectory step 0"),
            ]
        ),
    ])
    def test_deeply_nested_document_exits_3_naming_it(
        self, documents, tmp_path, capsys, command, flag, edit, named
    ):
        argv = command_args(command, documents, tmp_path / "out")
        at = argv.index(flag) + 1
        bad = tmp_path / "deep.json"
        bad.write_text(edit(Path(argv[at]).read_text()))
        argv[at] = str(bad)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert named in captured.out + captured.err

    @pytest.mark.parametrize("value", [2**63, 2**64, 10**400], ids=["2**63", "2**64", "10**400"])
    @pytest.mark.parametrize("command", ["check", "solve", "extract"])
    def test_dimension_size_past_int64_exits_3_naming_it(
        self, documents, tmp_path, capsys, command, value
    ):
        # The fixed_external stem: one option, so any group_size >= 16 is valid
        # for the architecture alone; kept counts are int64.
        doc = json.loads((DATA / "tiny_mixed.arch.json").read_text())
        assert doc["dims"][0]["id"] == "stem"
        doc["dims"][0]["group_size"] = value
        bad = tmp_path / "huge.arch.json"
        bad.write_text(json.dumps(doc))
        argv = command_args(command, documents, tmp_path / "out")
        argv[argv.index("--arch") + 1] = str(bad)
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "group_size" in captured.out + captured.err
        assert not (tmp_path / "out").exists()
