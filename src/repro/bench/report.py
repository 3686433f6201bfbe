"""Command-line experiment runner: regenerate the paper's tables/figures.

Usage::

    python -m repro.bench.report --all                 # every experiment
    python -m repro.bench.report -e fig09 -e table1    # selected ones
    python -m repro.bench.report --all --scale full    # paper-sized runs
    python -m repro.bench.report --all -o results.txt  # also write a file
    python -m repro.bench.report --all --update EXPERIMENTS.md

``--update`` rewrites the measured-results section of a document in
place: everything below :data:`MARKER` is replaced, everything above it
is kept.  A document that exists without the marker is refused rather
than overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.bench.experiments import EXPERIMENTS, run_experiment

__all__ = [
    "MARKER",
    "main",
    "bench_output_path",
    "bench_environment",
    "write_bench_report",
]


#: Separates a document's hand-written part from its generated results.
MARKER = (
    "<!-- GENERATED RESULTS BELOW - run "
    "python -m repro.bench.report --all --update EXPERIMENTS.md -->"
)


def bench_output_path(name: str) -> str:
    """Return the canonical path for a ``BENCH_*.json`` gate report.

    Every benchmark gate writes through this helper so the whole perf
    trajectory lands in one directory: ``$REPRO_BENCH_DIR`` when set,
    otherwise the current working directory (the repo root under
    ``make``).  ``name`` may be a bare gate name (``frontdoor``) or a
    full filename (``BENCH_frontdoor.json``).
    """
    if not name.endswith(".json"):
        name = f"BENCH_{name}.json"
    base = os.environ.get("REPRO_BENCH_DIR") or os.getcwd()
    return os.path.join(base, name)


def bench_environment() -> Dict:
    """Describe the host a benchmark ran on, for the gate report.

    Numbers in ``BENCH_*.json`` are only comparable across runs when the
    execution substrate is known — above all which dpconv backend (pure
    python or compiled C) actually served the hot loop.  Every gate
    writer stamps this stanza via :func:`write_bench_report` so a perf
    regression can immediately be told apart from a host that silently
    lost its C toolchain.
    """
    import platform

    from repro.optimizer.native import native_backend_status

    status = native_backend_status()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backend": status["resolved"],
        "numpy_version": status["numpy"]["version"],
        "cffi_version": status["cffi"]["version"],
        "cc": status["compiler"]["cc"],
        "c_kernel_built": status["c_kernel"]["built"],
    }


def write_bench_report(name: str, report: Dict, output: Optional[str] = None) -> str:
    """Write a gate report to ``BENCH_<name>.json`` with the environment stanza.

    ``output`` overrides the canonical :func:`bench_output_path`
    location (benchmarks expose it as ``--output``).  The report is
    written with an ``environment`` block (see :func:`bench_environment`)
    unless the caller already provided one.  Returns the path written.
    """
    document = dict(report)
    document.setdefault("environment", bench_environment())
    path = output or bench_output_path(name)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.report",
        description="Regenerate the evaluation tables and figures of "
        "Fender & Moerkotte (ICDE 2011).",
    )
    parser.add_argument(
        "-e",
        "--experiment",
        action="append",
        choices=sorted(EXPERIMENTS),
        help="experiment to run (repeatable)",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "full"],
        default="quick",
        help="workload size: quick (seconds) or full (minutes)",
    )
    parser.add_argument(
        "-o", "--output", help="also append rendered results to this file"
    )
    parser.add_argument(
        "--update",
        metavar="FILE",
        help="rewrite the generated-results section of FILE (below the "
        "marker line) with the results",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render figure-style experiments as ASCII charts too",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, fn in sorted(EXPERIMENTS.items()):
            doc = (fn.__doc__ or "").strip().splitlines()
            print(f"{name:20s} {doc[0] if doc else ''}")
        return 0

    names = list(EXPERIMENTS) if args.all else (args.experiment or [])
    if not names:
        parser.error("pass --all, --list, or at least one -e/--experiment")
    head = "# EXPERIMENTS\n\n"
    if args.update and os.path.exists(args.update):
        with open(args.update) as handle:
            document = handle.read()
        if MARKER not in document:
            print(
                f"error: {args.update} has no generated-results marker; "
                f"add this line where the results belong:\n{MARKER}",
                file=sys.stderr,
            )
            return 1
        head = document.split(MARKER)[0]

    chunks = []
    for name in names:
        started = time.perf_counter()
        result = run_experiment(name, scale=args.scale)
        elapsed = time.perf_counter() - started
        text = result.render() + f"\n(ran in {elapsed:.1f}s, scale={args.scale})\n"
        if args.chart:
            from repro.bench.charts import chart_from_experiment

            chart = chart_from_experiment(result)
            if "no chartable" not in chart and "no data" not in chart:
                text += "\n" + chart + "\n"
        print(text)
        chunks.append(text)
    if args.output:
        with open(args.output, "a") as handle:
            handle.write("\n".join(chunks))
    if args.update:
        sections = "\n\n".join(f"```\n{chunk.rstrip()}\n```" for chunk in chunks)
        with open(args.update, "w") as handle:
            handle.write(
                f"{head}{MARKER}\n\n## Measured results (scale={args.scale})\n\n"
                f"{sections}\n"
            )
        print(f"wrote {args.update}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
