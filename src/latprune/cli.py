"""Batch command-line front end.

Subcommands: ``synth``, ``check``, ``solve``, ``sweep``,
``compare-latency-models``, ``extract``.  ``check`` reads and validates its
documents and writes nothing; it runs here.  The five others hash their
inputs into a manifest and write stamped outputs, and run from
``latprune.stamped``, which `main` imports only to dispatch one of them: a
``check`` process compiles none of their code.

Exit codes: 0 success, 2 infeasible, 3 validation or usage error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import sys
from pathlib import Path

from . import arch as arch_mod
from . import importance as imp_mod
from . import latency as lat_mod
from .errors import (
    EXIT_IO, EXIT_OK, EXIT_VALIDATION, LatPruneError, ParseError, SolveError, ValidationError,
)

# Resolved on first access, so a command loads only what it runs: the solver
# and extract modules, through which callers can reach (and wrap) the library
# calls the commands make, and the solve report of `latprune.stamped`.
_LAZY = {"solver_mod": ("solver", None), "extract_mod": ("extract", None),
         "_solution_report": ("stamped", "_solution_report")}


def __getattr__(name: str):
    if name in _LAZY:
        module, attr = _LAZY[name]
        module = importlib.import_module(f".{module}", __package__)
        return module if attr is None else getattr(module, attr)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read_text(name: str, path: str) -> str:
    return arch_mod.document_text(Path(path).read_bytes(), name, path)


def cmd_check(args) -> int:
    """Each document parsed; then the scores (``importance.checked_scores``)
    and, unless they fail, the tables checked against the architecture."""
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
    scored = raw_scores if args.scores else {}  # None once a scores step fails
    if arch is not None and raw_scores is not None:
        scored = record("importance vectors", lambda: imp_mod.checked_scores(arch, raw_scores))
    if arch is not None and tables is not None and scored is not None:
        record("problem shapes", lambda: tables.validate_for(arch))

    failed = [c for c in checks if c[1] != "OK"]
    for name, result in checks:
        print(f"{name}: {result}")
    print("OK" if not failed else f"{len(failed)} check(s) failed")
    return EXIT_OK if not failed else EXIT_VALIDATION


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


# Subcommand -> (help, function adding its arguments).
_COMMANDS = {
    "synth": ("generate synthetic scores and latency tables", _synth_args),
    "check": ("validate inputs without solving", _check_args),
    "solve": ("solve one budget and extract the plan", _solve_args),
    "sweep": ("solve a list of budgets for Pareto data", _sweep_args),
    "compare-latency-models": (
        "replay a pruning trajectory under both latency models", _compare_args),
    "extract": ("re-extract a structure from a saved report", _extract_args),
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
    for name, (text, add_args) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command is None or command == name:
            add_args(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION
    try:
        if args.command == "check":
            return cmd_check(args)
        from . import stamped
        return getattr(stamped, "cmd_" + args.command.replace("-", "_"))(args)
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
