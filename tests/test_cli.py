import json
from pathlib import Path

import numpy as np
import pytest

from latprune import Assignment, constraint_value, parse_architecture, parse_lut
from latprune.cli import _write_json, main

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


def synth(tmp_path: Path, arch: Path | None = None) -> Path:
    out = tmp_path / "inputs"
    arch = arch or DATA / "tiny_mixed.arch.json"
    code = main(["synth", "--arch", str(arch), *SYNTH_FLAGS, "--out", str(out)])
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

        golden = GOLDEN / "tiny_mixed_report.json"
        assert golden.exists(), f"golden file {golden} is missing"
        assert (out / "report.json").read_bytes() == golden.read_bytes()

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

    def test_help_exits_0(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert "--budget-ms" in capsys.readouterr().out

    def test_missing_input_exits_4(self, tmp_path):
        code = main(
            [
                "solve",
                "--arch", str(tmp_path / "missing.json"),
                "--scores", str(tmp_path / "missing2.json"),
                "--lut", str(tmp_path / "missing3.json"),
                "--budget-ms", "1.0",
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 4


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


    @pytest.mark.parametrize(
        "budgets, entry",
        [("0.2,abc", "'abc'"), ("0.2,inf", "'inf'"), ("nan,0.2", "'nan'"), ("0.2, x1", "'x1'")],
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


    @pytest.mark.parametrize("mode", ["branch_and_bound", "heuristic_only"])
    @pytest.mark.parametrize("chained", [False, True], ids=["tiny_mixed", "chained"])
    def test_rows_equal_independent_solves(self, tmp_path, mode, chained):
        arch = DATA / "tiny_mixed.arch.json"
        if chained:  # block 2's first layer reads permanent block 1's output
            doc = json.loads(arch.read_text())
            doc["blocks"][1]["input_ref"] = "b1_c2"
            arch = tmp_path / "chained.arch.json"
            arch.write_text(json.dumps(doc))
        inputs = synth(tmp_path, arch)
        # Unsorted, with a repeat and an infeasible budget.
        budgets = ["0.5", "0.15", "1.0", "0.001", "0.25", "0.5", "0.35"]
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

    def test_falling_optimal_importance_exits_3_before_writing(
        self, tmp_path, capsys, monkeypatch
    ):
        from latprune import cli

        solve = cli.solver_mod.solve

        def faulty(problem, config):
            solution = solve(problem, config)
            if problem.budget == 1.0:
                solution.importance -= 1e6
            return solution

        monkeypatch.setattr(cli.solver_mod, "solve", faulty)
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


def test_json_writer_rejects_non_finite_values(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"budget_ms": float("inf")})
    assert not (tmp_path / "x.json").exists()


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
    pytest.param(
        _edit(lambda r: r["assignment"]["omega"].update(zz_unknown=1)),
        "zz_unknown",
        id="unknown-dim",
    ),
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
