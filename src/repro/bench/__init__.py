"""Benchmark harness: timing, experiment definitions, reporting.

Every table and figure of the paper's evaluation section has an
experiment definition in :mod:`repro.bench.experiments`; run them all via
``python -m repro.bench.report --all`` or individually with
``--experiment fig09``.

:func:`repro.bench.report.bench_output_path` is the single home for
``BENCH_*.json`` gate reports, and :mod:`repro.bench.gate` runs the gate
table.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "time_callable": "repro.bench.timing",
    "TimingResult": "repro.bench.timing",
    "time_optimizer": "repro.bench.runner",
    "time_partitioning": "repro.bench.runner",
    "normalized_runtimes": "repro.bench.runner",
    "EXPERIMENTS": "repro.bench.experiments",
    "ExperimentResult": "repro.bench.experiments",
    "run_experiment": "repro.bench.experiments",
    "compare_algorithms": "repro.bench.compare",
    "ComparisonResult": "repro.bench.compare",
}

__getattr__, __dir__ = _attach(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
