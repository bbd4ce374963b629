"""Tests of the benchmark itself: python -m pytest benchmarks -q"""

from __future__ import annotations

import copy
import json
import math
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import latprune as lp  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spans import Tracer, run_cli  # noqa: E402
from workloads import WORKLOADS, Context, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def vit(tmp_path_factory):
    ctx = Context(lp, tmp_path_factory.mktemp("work"), 0, gate.load_reference())
    budget = ctx.docs("vit").budget(0.25)
    return ctx, budget, ctx.plan("vit", budget)


def test_reference_plan_passes_the_gate(vit):
    ctx, budget, plan = vit
    assert gate.compare_plan(plan, plan) == []
    assert gate.recheck(ctx.problem("vit"), plan, budget) == []


def test_flipped_kappa_bit_fails(vit):
    ctx, budget, plan = vit
    tampered = copy.deepcopy(plan)
    kappa = tampered["assignment"]["kappa"]
    kappa["1"] = 1 - kappa["1"]
    assert gate.compare_plan(tampered, plan)
    assert gate.recheck(ctx.problem("vit"), tampered, budget)


def test_importance_one_ulp_off_fails(vit):
    ctx, budget, plan = vit
    tampered = {**plan, "importance": math.nextafter(plan["importance"], math.inf)}
    assert gate.compare_plan(tampered, plan)
    assert gate.recheck(ctx.problem("vit"), tampered, budget)


def test_wrong_kept_elements_fail(vit):
    ctx, budget, plan = vit
    arch, scores = ctx.docs("vit").inst.arch, ctx.docs("vit").inst.scores
    kept = next(d for d, v in plan["assignment"]["kappa"].items() if v == 1)
    dim_id = f"b{kept}_mlp"
    count = plan["assignment"]["omega"][dim_id] * 64
    top = sorted(int(i) + 1 for i in np.argsort(-scores[dim_id], kind="stable")[:count])
    bottom = sorted(int(i) + 1 for i in np.argsort(scores[dim_id], kind="stable")[:count])
    blocks = []
    for block in arch["blocks"]:
        on = plan["assignment"]["kappa"][str(block["id"])] == 1
        dims = [{"dim_id": d, "kept_elements": None} for d in block["dims"]] if on else []
        blocks.append({"kept": on, "dims": dims})
    structure = {"importance": plan["importance"], "latency_ms": plan["latency_ms"], "blocks": blocks}
    target = next(d for b in blocks for d in b["dims"] if d["dim_id"] == dim_id)
    target["kept_elements"] = top
    good = [f for f in gate.check_structure(structure, plan, arch, scores) if f.startswith(dim_id + ":")]
    target["kept_elements"] = bottom
    bad = [f for f in gate.check_structure(structure, plan, arch, scores) if f.startswith(dim_id + ":")]
    assert good == [] and bad


def test_nonzero_exit_counts_as_failure(tmp_path):
    class Exit3:
        ops = 1

        def argv(self, ctx, out, outs):
            return [sys.executable, "-c", "import sys; sys.exit(3)"]

    runner = run.Runner(lp, tmp_path, "vit_search", 0)
    runner.workload = Workload(why="", setup="vit", steps=(Exit3(),))
    runner.cli_round([])
    assert runner.outcome.failed == 1 and not runner.outcome.correct


def test_changed_stamped_output_fails(tmp_path):
    (tmp_path / "report.json").write_text("a")
    (tmp_path / "timing.json").write_text("1")
    first = gate.digest_outputs(tmp_path)
    (tmp_path / "timing.json").write_text("2")
    assert gate.compare_digests(gate.digest_outputs(tmp_path), first) == []
    (tmp_path / "report.json").write_text("b")
    assert gate.compare_digests(gate.digest_outputs(tmp_path), first)


def test_metric_names_and_units_match_benchmark_json():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.PER_LAYER
    for name in [*declared_e2e, *declared_layer]:
        assert NAME.fullmatch(name), name


def test_each_workload_records_its_why():
    assert BENCHMARK["workloads"] == [{"name": n, "why": w.why} for n, w in WORKLOADS.items()]


@pytest.mark.parametrize("key", sorted(gen.ARCHS))
def test_generator_matches_library_synth_at_seed_0(key):
    inst = gen.Instance(key, 0, 0)
    docs = inst.documents()
    arch = lp.parse_architecture(docs["arch"])
    scores = lp.parse_scores(docs["scores"])
    tables = lp.parse_lut(docs["lut"])
    assert lp.parse_lut(gen.lut_document(inst.tables, base64_payload=True)) is not None
    synth_scores = lp.synth_scores(arch, 0)
    synth_tables = lp.synth_lut(arch, lp.LatencyModelParams(), 0, noise=0.02)
    assert scores == synth_scores
    assert [(t.block_id, t.part, t.layer, t.axes) for t in tables] == [
        (t.block_id, t.part, t.layer, t.axes) for t in synth_tables
    ]
    assert all(np.array_equal(a.data, b.data) for a, b in zip(tables, synth_tables))
    dense = lp.Assignment(
        omega={d: arch.dims[d].option_count for b in arch.blocks for d in b.dims},
        kappa={b.id: 1 for b in arch.blocks if b.removable},
    )
    assert inst.dense_ms == lp.constraint_value(dense, tables, arch)


def test_seed_reorders_documents_but_keeps_the_problem():
    base, other = gen.Instance("vit", 0, 0), gen.Instance("vit", 0, 7)
    assert base.documents()["scores"] != other.documents()["scores"]
    assert base.documents()["lut"] == other.documents()["lut"]
    arch = lp.parse_architecture(base.documents()["arch"])
    v0 = lp.build_all_vectors(arch, lp.parse_scores(base.documents()["scores"]))
    v7 = lp.build_all_vectors(arch, lp.parse_scores(other.documents()["scores"]))
    assert all(np.array_equal(v0[d].values, v7[d].values) for d in v0)


def test_scale_converts_wall_time_to_the_reference_speed():
    ref = speed.REFERENCE_S
    assert speed.scale(3.0, [ref, ref]) == pytest.approx(3.0)
    # a CPU running half as fast for the whole process: half the work done
    assert speed.scale(3.0, [2 * ref] * 4) == pytest.approx(1.5)
    # half the time at each speed
    assert speed.scale(3.0, [ref, 2 * ref]) == pytest.approx(2.25)


def test_self_times_add_up_to_root_spans():
    tr = Tracer()
    with tr.span("cli.solve"):
        with tr.span("arch.parse"):
            sum(range(10000))
        with tr.span("solver.solve"):
            with tr.span("solver.assemble"):
                sum(range(10000))
    selfs = tr.self_times()
    assert set(selfs) == {"cli.solve", "arch.parse", "solver.solve", "solver.assemble"}
    assert all(v >= 0 for v in selfs.values())
    root = sum(end - start for _, start, end, parent in tr.spans if parent is None)
    assert math.isclose(sum(selfs.values()), root, rel_tol=1e-9)


def test_traced_run_spans_the_real_cli_and_restores_it(tmp_path):
    from latprune import solver

    ctx = Context(lp, tmp_path, 0, gate.load_reference())
    tiny_solve = WORKLOADS["cli_roundtrip"].steps[3]
    original = solver.solve
    tr, counts = Tracer(), defaultdict(float)
    code, stdout = run_cli(tr, tiny_solve.argv(ctx, tmp_path / "out", [])[3:], counts)
    assert code == 0 and stdout.startswith("solve: optimal")
    assert solver.solve is original
    assert tr.spans[0][0] == "cli.solve"
    assert {"arch.parse", "importance.vectors", "solver.solve", "extract.serialize"} <= {s[0] for s in tr.spans}
    assert counts["solves"] == 1
    assert counts["structure_bytes"] == (tmp_path / "out" / "structure.json").stat().st_size
    assert tiny_solve.verify(ctx, tmp_path / "out", stdout) == [[]]
