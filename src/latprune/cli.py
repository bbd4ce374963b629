"""Batch command-line front end.

Subcommands: ``synth``, ``check``, ``solve``, ``sweep``,
``compare-latency-models``, ``extract``.  Every run records a manifest of
input hashes and parameters; its hash is stamped into each output file so
reruns on identical inputs are byte-identical.  Wall-clock timings live in a
separate ``timing.json`` sidecar, never in the stamped outputs.

Exit codes: 0 success, 2 infeasible, 3 validation or usage error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import sys
from pathlib import Path

from . import arch as arch_mod
from . import importance as imp_mod
from . import latency as lat_mod
from .arch import MANIFEST_KEY
from .errors import LatPruneError, ParseError, SolveError, ValidationError

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# The solver and extract modules are imported by the commands that run them,
# so `check`, `synth` and `compare-latency-models` never load them.
_LAZY = {"solver_mod": "solver", "extract_mod": "extract"}


def __getattr__(name: str):
    """`solver_mod` and `extract_mod`, so callers can reach (and wrap) the
    library calls the commands make through them."""
    if name in _LAZY:
        return importlib.import_module(f".{_LAZY[name]}", __package__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _decode(data: bytes, name: str, path: str) -> str:
    """A document's bytes as UTF-8 text; other bytes are a ParseError naming
    the document."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{name}: {path} is not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from None


def _read_text(name: str, path: str) -> str:
    return _decode(Path(path).read_bytes(), name, path)


def _manifest(command: str, inputs: dict[str, str], params: dict) -> tuple[dict, dict[str, str]]:
    """The run's manifest, as manifest.json holds it, and its input documents
    as text.  Each file is read once, so the hash covers exactly the bytes
    that are parsed."""
    hashed, texts = {}, {}
    for name, path in inputs.items():
        data = Path(path).read_bytes()
        hashed[name] = {"path": str(path), "sha256": _sha256_hex(data)}
        texts[name] = _decode(data, name, path)
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


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


def cmd_check(args) -> int:
    checks: list[tuple[str, str]] = []

    def record(name: str, fn) -> object:
        try:
            value = fn()
        except LatPruneError as exc:
            checks.append((name, f"FAIL {exc}"))
            return None
        checks.append((name, "OK"))
        return value

    arch = record(
        "architecture", lambda: arch_mod.parse_architecture(_read_text("arch", args.arch))
    )
    raw_scores = None
    tables = None
    if args.scores:
        raw_scores = record(
            "scores", lambda: imp_mod.parse_scores(_read_text("scores", args.scores))
        )
    if args.lut:
        tables = record("lut", lambda: lat_mod.parse_lut(_read_text("lut", args.lut)))
    vectors = None
    if arch is not None and raw_scores is not None:
        vectors = record("importance vectors", lambda: arch_mod.checked_vectors(
            arch, imp_mod.build_all_vectors(arch, raw_scores)))
    if arch is not None and tables is not None and vectors is not None:
        record(
            "problem shapes",
            lambda: arch_mod.validate_problem_shapes(arch, tables, vectors),
        )

    failed = [c for c in checks if c[1] != "OK"]
    for name, result in checks:
        print(f"{name}: {result}")
    print("OK" if not failed else f"{len(failed)} check(s) failed")
    return EXIT_OK if not failed else EXIT_VALIDATION


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


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _add_problem_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--arch", required=True, help="architecture JSON file")
    parser.add_argument("--scores", required=True, help="raw scores JSON file")
    parser.add_argument("--lut", required=True, help="latency table JSON file")


def _add_solver_args(parser: argparse.ArgumentParser, time_help: str = "seconds") -> None:
    parser.add_argument(
        "--mode",
        default="branch_and_bound",
        choices=["exhaustive", "branch_and_bound", "heuristic_only"],
    )
    parser.add_argument("--time-limit", type=float, default=60.0, help=time_help)
    parser.add_argument("--tolerance", type=float, default=0.0)
    parser.add_argument(
        "--threads", type=int, default=1, help="ignored; the solver is sequential"
    )


def _synth_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--distribution", default="uniform01", choices=["uniform01", "exponential"])
    p.add_argument("--unit-cost", type=float, default=1e-6)
    p.add_argument("--overhead", type=float, default=0.01)
    p.add_argument("--tile", type=int, default=32)
    p.add_argument("--spatial", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.02)
    p.add_argument("--out", required=True)


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", required=True)
    p.add_argument("--scores")
    p.add_argument("--lut")


def _solve_args(p: argparse.ArgumentParser) -> None:
    _add_problem_args(p)
    p.add_argument("--budget-ms", type=float, required=True)
    _add_solver_args(p)
    p.add_argument("--out", required=True)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_problem_args(p)
    p.add_argument("--budgets", required=True, help="comma-separated budgets in ms")
    _add_solver_args(p, "seconds per budget: the budgets are merged in one pass under "
                        "one deadline, this times their count, from the pass's start")
    p.add_argument("--out", required=True)


def _compare_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--arch", required=True)
    p.add_argument("--lut", required=True)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out", required=True)


def _extract_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--report", required=True)
    _add_problem_args(p)
    p.add_argument("--out", required=True)


# Subcommand -> (help, function adding its arguments, the command).
_COMMANDS = {
    "synth": ("generate synthetic scores and latency tables", _synth_args, cmd_synth),
    "check": ("validate inputs without solving", _check_args, cmd_check),
    "solve": ("solve one budget and extract the plan", _solve_args, cmd_solve),
    "sweep": ("solve a list of budgets for Pareto data", _sweep_args, cmd_sweep),
    "compare-latency-models": (
        "replay a pruning trajectory under both latency models",
        _compare_args,
        cmd_compare_latency_models,
    ),
    "extract": ("re-extract a structure from a saved report", _extract_args, cmd_extract),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is registered, so the
    top-level help and the error for an unknown command list them all, but
    only `command`'s arguments are added, or every command's when it is
    None: a process parses one command's arguments and builds no others."""
    parser = argparse.ArgumentParser(
        prog="latprune",
        description="Budgeted multi-granularity pruning planner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_args, fn) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command is None or command == name:
            add_args(p)
            p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        return args.fn(args)
    except (ParseError, ValidationError, SolveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """The process entry point (``latprune`` and ``python -m latprune.cli``):
    `main` on the command line, then exit with its code.

    The heap is frozen first, so the interpreter's teardown skips collecting
    the objects still alive (numpy's and the package's module-level cycles),
    most of a process's exit time.  `atexit` handlers still run, standard
    output is still flushed and the OS reclaims the memory.  `main` never
    freezes, so a caller that stays alive after it leaks nothing."""
    # A message naming a non-ASCII id is escaped, not an error, where the
    # locale's encoding cannot print it (stderr already escapes).
    if sys.stdout is not None:  # None when the process starts with it closed
        sys.stdout.reconfigure(errors="backslashreplace")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
