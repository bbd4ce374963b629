"""In-memory spans for the benchmark's traced run.

A span records (name, start, end, parent).  Spans are kept in a list while
the traced code runs and written out once at the end.  A span's self time is
its duration minus the durations of its direct children; the benchmark's
spans nest and never overlap, so self times add up to the root spans' total.
"""

from __future__ import annotations

import io
import json
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, children):
            out[name] += (end - start) - covered
        return dict(out)

    def write(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": name, "start_s": start - origin, "end_s": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, indent=1) + "\n")


# Library calls the CLI makes through its module aliases, and the span each
# one is timed under.  summarize and serialize_structure share one span.
CLI_CALLS = {
    "arch_mod": {"parse_architecture": "arch.parse", "validate_problem_shapes": "arch.validate"},
    "imp_mod": {"parse_scores": "importance.parse", "build_all_vectors": "importance.vectors"},
    "lat_mod": {"parse_lut": "latency.parse"},
    "solver_mod": {"assemble": "solver.assemble", "solve": "solver.solve"},
    "extract_mod": {
        "extract_structure": "extract.extract",
        "summarize": "extract.serialize",
        "serialize_structure": "extract.serialize",
    },
}


def run_cli(tr: Tracer, args: list[str], counts: dict) -> tuple[int, str]:
    """Run ``latprune.cli.main(args)`` in process inside a ``cli.<command>``
    span, with the library calls in CLI_CALLS wrapped in spans for the
    call's duration.  Adds solves, search nodes and structure bytes to
    `counts`; returns (exit code, standard output)."""
    from latprune import cli

    def wrap(attr: str, name: str, fn):
        def spanned(*args, **kwargs):
            with tr.span(name):
                result = fn(*args, **kwargs)
            if attr == "solve":
                counts["solves"] += 1
                counts["nodes"] += result.node_count
            elif attr == "serialize_structure":
                counts["structure_bytes"] += len(result.encode())
            return result
        return spanned

    saved = []  # a call the CLI no longer makes this way is left unwrapped
    for alias, calls in CLI_CALLS.items():
        module = getattr(cli, alias, None)
        for attr, name in calls.items():
            fn = getattr(module, attr, None)
            if fn is not None:
                saved.append((module, attr, fn))
                setattr(module, attr, wrap(attr, name, fn))
    stdout = io.StringIO()
    try:
        with tr.span("cli." + args[0]), redirect_stdout(stdout):
            code = cli.main(args)
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
    return code, stdout.getvalue()
