"""Benchmark harness: timing, experiment definitions, reporting.

Every table and figure of the paper's evaluation section has an
experiment definition in :mod:`repro.bench.experiments`; run them all via
``python -m repro.bench.report --all`` or individually with
``--experiment fig09``.

:func:`repro.bench.report.bench_output_path` is the single home for
``BENCH_*.json`` gate reports, and :mod:`repro.bench.gate` runs the gate
table.  Neither is imported here: ``import repro.bench`` must stay
cheap for the hot paths that only need timing.
"""

from repro.bench.timing import time_callable, TimingResult
from repro.bench.runner import (
    time_optimizer,
    time_partitioning,
    normalized_runtimes,
)
from repro.bench.compare import ComparisonResult, compare_algorithms
from repro.bench.experiments import EXPERIMENTS, ExperimentResult, run_experiment

__all__ = [
    "time_callable",
    "TimingResult",
    "time_optimizer",
    "time_partitioning",
    "normalized_runtimes",
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "compare_algorithms",
    "ComparisonResult",
]
