"""The commands that write stamped outputs: ``synth``, ``solve``, ``sweep``,
``compare-latency-models`` and ``extract``.  ``latprune.cli`` parses their
arguments and imports this module only to run one of them; nothing here
imports it back (under ``python -m latprune.cli`` it runs as ``__main__``,
and an import would compile and run it a second time).

Every run records a manifest of input hashes and parameters; its hash is
stamped into each output file so reruns on identical inputs are
byte-identical.  Wall-clock timings live in a separate ``timing.json``
sidecar.  The library is called through module attributes
(``arch_mod.parse_architecture``, ...), so a caller can wrap those calls.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from . import arch as arch_mod
from . import importance as imp_mod
from . import latency as lat_mod
from .arch import MANIFEST_KEY
from .errors import EXIT_INFEASIBLE, EXIT_OK, ParseError, SolveError, ValidationError


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of `data`, from CPython's built-in module:
    `hashlib` would load OpenSSL's libcrypto, 3.3 MB resident, for the few
    megabytes a command hashes.  `hashlib` only on a build without one."""
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _manifest(command: str, inputs: dict[str, str], params: dict) -> tuple[dict, dict[str, str]]:
    """The run's manifest, as manifest.json holds it, and its input documents
    as text.  Each file is read once, so the hash covers exactly the bytes
    that are parsed."""
    hashed, texts = {}, {}
    for name, path in inputs.items():
        data = Path(path).read_bytes()
        hashed[name] = {"path": str(path), "sha256": _sha256_hex(data)}
        texts[name] = arch_mod.document_text(data, name, path)
    # Content-addressed: input paths are recorded for humans but do not enter
    # the hash, so identical content reproduces identical outputs from any
    # directory.
    payload = {"command": command, "inputs": {n: e["sha256"] for n, e in hashed.items()},
               "params": params}
    digest = _sha256_hex(json.dumps(payload, sort_keys=True).encode())
    return {"command": command, "inputs": hashed, "params": params, "hash": digest}, texts


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    # UTF-8 under any locale, in slices: no encoded copy of a whole large document.
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(text[i:i + (1 << 16)] for i in range(0, len(text), 1 << 16))


def _write_json(path: Path, obj: dict) -> None:
    # Encoded before the file is opened, so a value JSON cannot hold writes
    # nothing.
    _write(path, arch_mod.dump_json(obj))


def _write_structure(out: Path, structure, stamp: str) -> None:
    """structure.json, summary.csv and summary.txt of an extracted plan."""
    from . import extract as extract_mod

    text, csv = extract_mod.summarize(structure)
    _write(out / "structure.json", extract_mod.serialize_structure(structure, manifest=stamp))
    _write(out / "summary.csv", f"# manifest: {stamp}\n" + csv)
    _write(out / "summary.txt", text + f"manifest: {stamp}\n")


def _budget(text: str | float, flag: str) -> float:
    """A finite budget given on the command line; the solver library alone
    accepts an infinite one."""
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"{flag}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{flag}: budget must be finite, got {text!r}")
    return value


def _load_problem(args, command: str, params: dict,
                  inputs: tuple[str, ...] = ("arch", "scores", "lut")) -> tuple:
    """The run's manifest over the `inputs` that `args` names, read in that
    order, then its problem: (manifest, the texts of the inputs other than
    arch, scores and lut, arch, raw scores, vectors, tables)."""
    manifest, texts = _manifest(command, {name: getattr(args, name) for name in inputs}, params)
    # Each text is dropped once parsed, so the documents are not all held
    # through the solve.
    arch = arch_mod.parse_architecture(texts.pop("arch"))
    raw_scores = imp_mod.parse_scores(texts.pop("scores"))
    tables = lat_mod.parse_lut(texts.pop("lut"))
    vectors = imp_mod.build_all_vectors(arch, raw_scores)
    return manifest, texts, arch, raw_scores, vectors, tables


def _solution_report(solution, budget: float, manifest_hash: str) -> dict:
    obj: dict = {
        "status": solution.status,
        "budget_ms": budget,
        "importance": solution.importance,
        "latency_ms": solution.latency,
        "bound": solution.bound,
        "gap": (
            max(0.0, solution.bound - solution.importance)
            if solution.bound is not None and solution.importance is not None
            else None
        ),
        "node_count": solution.node_count,
        "message": solution.message,
        MANIFEST_KEY: manifest_hash,
    }
    if solution.assignment is not None:
        obj["assignment"] = {
            "omega": dict(sorted(solution.assignment.omega.items())),
            "kappa": {str(k): v for k, v in sorted(solution.assignment.kappa.items())},
        }
    else:
        obj["assignment"] = None
    return obj


def _assignment_csv(arch, assignment, manifest_hash: str) -> str:
    rows = [f"# manifest: {manifest_hash}", "kind,block_id,dim_id,value"]
    for block in arch.blocks:
        if block.removable:
            rows.append(f"kappa,{block.id},,{assignment.kappa[block.id]}")
        for dim_id in block.dims:
            rows.append(f"omega,{block.id},{arch_mod.csv_field(dim_id)},{assignment.omega[dim_id]}")
    return "\n".join(rows) + "\n"


def _solver_config(args) -> dict:
    """The solver's settings, as the manifest records them and as
    ``solve_budgets`` takes them."""
    if args.threads < 1:
        raise ValidationError(f"--threads must be >= 1, got {args.threads}")
    for flag, value in (("--time-limit", args.time_limit), ("--tolerance", args.tolerance)):
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value!r}")
    return {"mode": args.mode, "time_limit": args.time_limit, "tolerance": args.tolerance}


def cmd_synth(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
    model = {
        "unit_cost": args.unit_cost,
        "overhead": args.overhead,
        "tile": args.tile,
        "spatial": args.spatial,
    }
    manifest, texts = _manifest(
        "synth",
        {"arch": args.arch},
        {
            "seed": args.seed,
            "distribution": args.distribution,
            **model,
            "noise": args.noise,
        },
    )
    arch = arch_mod.parse_architecture(texts["arch"])
    scores = imp_mod.synth_scores(arch, args.seed, args.distribution)
    tables = lat_mod.synth_lut(arch, lat_mod.LatencyModelParams(**model), args.seed,
                               noise=args.noise)
    out = Path(args.out)
    _write_json(out / "scores.json", imp_mod.scores_to_obj(scores, manifest=manifest["hash"]))
    _write_json(out / "lut.json", lat_mod.lut_to_obj(tables, manifest=manifest["hash"]))
    _write_json(out / "manifest.json", manifest)
    print(f"synth: wrote scores.json and lut.json under {out}")
    return EXIT_OK


def cmd_solve(args) -> int:
    from . import extract as extract_mod
    from . import solver as solver_mod

    _budget(args.budget_ms, "--budget-ms")
    params = _solver_config(args)
    manifest, _, arch, raw_scores, vectors, tables = _load_problem(
        args, "solve", {"budget_ms": args.budget_ms, **params}
    )
    problem = solver_mod.assemble(arch, vectors, tables, args.budget_ms)
    solution = solver_mod.solve(problem, **params)

    out = Path(args.out)
    stamp = manifest["hash"]
    _write_json(out / "report.json", _solution_report(solution, args.budget_ms, stamp))
    _write_json(out / "timing.json", {"wall_time_s": solution.wall_time})
    _write_json(out / "manifest.json", manifest)
    if solution.status == "infeasible":
        print(f"solve: infeasible ({solution.message})")
        return EXIT_INFEASIBLE

    structure = extract_mod.extract_structure(
        solution.assignment, arch, vectors, tables, raw_scores
    )
    _write_structure(out, structure, stamp)
    _write(out / "assignment.csv", _assignment_csv(arch, solution.assignment, stamp))
    if structure["degenerate"]:
        print(f"solve: warning: {solution.status} plan removes every block "
              f"(degenerate network)")
    print(
        f"solve: {solution.status}, importance {solution.importance}, "
        f"latency {solution.latency} ms (budget {args.budget_ms} ms)"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    from . import solver as solver_mod

    budgets = [_budget(b.strip(), "--budgets") for b in args.budgets.split(",") if b.strip()]
    if not budgets:
        raise ValidationError("sweep: --budgets needs at least one value")
    params = _solver_config(args)
    manifest, _, arch, raw_scores, vectors, tables = _load_problem(
        args, "sweep", {"budgets_ms": budgets, **params}
    )
    stamp = manifest["hash"]
    rows = [f"# manifest: {stamp}", "budget_ms,status,importance,latency_ms,gap,node_count"]
    # One assembled problem and one batch: every budget reuses its frontiers
    # and LP bound, and the merge runs all budgets side by side.
    base = solver_mod.assemble(arch, vectors, tables, budgets[0])
    solutions = solver_mod.solve_budgets(base, budgets, **params)
    optimal = []
    for budget, solution in zip(budgets, solutions):
        if solution.status == "optimal":
            optimal.append((budget, solution.importance))
        r = _solution_report(solution, budget, stamp)
        sums = ["" if r[k] is None else repr(r[k]) for k in ("importance", "latency_ms", "gap")]
        rows.append(",".join([repr(budget), r["status"], *sums, str(r["node_count"])]))
    # Optimal importance cannot fall as the budget grows: a plan that fits
    # one budget fits every larger one.
    best = (-math.inf, 0.0)
    for budget, importance in sorted(optimal):
        if importance < best[0] - params["tolerance"]:
            raise SolveError(
                f"internal error: optimal importance {importance!r} at budget "
                f"{budget!r} ms is below {best[0]!r} at budget {best[1]!r} ms"
            )
        best = max(best, (importance, budget))
    out = Path(args.out)
    _write(out / "sweep.csv", "\n".join(rows) + "\n")
    # The batch's solve time, from its start to its last report.
    _write_json(out / "timing.json", {"wall_time_s": max(s.wall_time for s in solutions)})
    _write_json(out / "manifest.json", manifest)
    print(f"sweep: wrote {len(budgets)} rows to {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_compare_latency_models(args) -> int:
    manifest, texts = _manifest(
        "compare-latency-models",
        {"arch": args.arch, "lut": args.lut, "trajectory": args.trajectory},
        {},
    )
    arch = arch_mod.parse_architecture(texts["arch"])
    tables = lat_mod.parse_lut(texts["lut"])
    steps = arch_mod.records(texts["trajectory"], "trajectory", "steps")
    report = lat_mod.replay_trajectory(steps, tables, arch)

    stamp = manifest["hash"]
    rows = [f"# manifest: {stamp}", "step,scope,dim_id,true_ms,linear_ms,gap,epsilon,bound"]
    for r in report:
        rows.append(f"{r['step']},step,,{r['true_ms']!r},{r['linear_ms']!r},{r['gap']!r},,")
        for dim_id, eps, bound in r["layers"]:
            rows.append(f"{r['step']},layer,{arch_mod.csv_field(dim_id)},,,,{eps!r},{bound!r}")
    out = Path(args.out)
    _write(out / "latency_models.csv", "\n".join(rows) + "\n")
    _write_json(out / "manifest.json", manifest)
    print(f"compare-latency-models: wrote {out / 'latency_models.csv'}")
    return EXIT_OK


def cmd_extract(args) -> int:
    # The plan is rechecked against the tables, not solved: the solver is
    # never loaded.
    from . import extract as extract_mod

    manifest, texts, arch, raw_scores, vectors, tables = _load_problem(
        args, "extract", {}, ("report", "arch", "scores", "lut")
    )
    report = arch_mod.load_json(texts["report"], "report")
    arch_mod.require_keys(
        report,
        {"status", "budget_ms", "importance", "latency_ms", "assignment"},
        {"bound", "gap", "node_count", "message"},
        "report",
    )
    plan = report["assignment"]
    if plan is None:
        raise ValidationError("extract: report carries no assignment (infeasible solve?)")
    arch_mod.require_keys(plan, {"omega", "kappa"}, set(), "report: assignment")
    for name in ("omega", "kappa"):
        for key, value in arch_mod.typed(plan[name], dict, f"report: assignment.{name}").items():
            arch_mod.typed(value, int, f"report: assignment.{name}[{key!r}]")
    # Only the ids the writer emits, str() of an int: ASCII digits, no leading
    # zero, and no more than 640, the least digit limit int() can be set to.
    if not all(b.isdecimal() and len(b) <= 640 and b == str(int(b)) for b in plan["kappa"]):
        raise ParseError(f"report: assignment.kappa: block ids must be integers, "
                         f"got {arch_mod.shown(sorted(plan['kappa']))}")
    assignment = imp_mod.Assignment(
        omega=dict(plan["omega"]), kappa={int(b): k for b, k in plan["kappa"].items()}
    )
    # The checks and their order are those of assembling the solved problem.
    budget = arch_mod.checked_budget(arch_mod.number(report["budget_ms"], "report: budget_ms"))
    arch_mod.validate_problem_shapes(arch, tables, vectors)
    assignment.validate_for(arch)
    if report["status"] == "infeasible":
        raise ValidationError("cannot extract a structure from an infeasible solve")
    if report["status"] not in ("optimal", "feasible_heuristic"):
        raise ValidationError(f"report: status {arch_mod.shown(report['status'])} is not one "
                              f"a solve writes")
    structure = extract_mod.extract_structure(assignment, arch, vectors, tables, raw_scores)
    for key in ("importance", "latency_ms"):
        if arch_mod.number(report[key], f"report: {key}") != structure[key]:
            raise ValidationError(f"report: {key} {report[key]!r} is not the plan's "
                                  f"recomputed {structure[key]!r}")
    if structure["latency_ms"] > budget:
        raise ValidationError(f"report: the plan's latency {structure['latency_ms']!r} ms "
                              f"exceeds budget_ms {budget!r}")
    out = Path(args.out)
    _write_structure(out, structure, manifest["hash"])
    _write_json(out / "manifest.json", manifest)
    print(f"extract: wrote structure files under {out}")
    return EXIT_OK
