"""Unit tests for the benchmark harness (timing, runner, experiments)."""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)
from repro.bench.runner import normalized_runtimes, time_optimizer, time_partitioning
from repro.bench.timing import TimingResult, time_callable
from repro.catalog.workload import WorkloadGenerator
from repro.errors import ReproError


class TestTiming:
    def test_adaptive_repeats_fast_function(self):
        result = time_callable(lambda: None, min_repeats=3, max_repeats=10,
                               time_budget=0.001)
        assert 3 <= result.repeats <= 10
        assert result.best <= result.average

    def test_slow_function_stops_at_min(self):
        import time

        result = time_callable(
            lambda: time.sleep(0.02), min_repeats=2, max_repeats=50,
            time_budget=0.01,
        )
        assert result.repeats == 2

    def test_milliseconds_property(self):
        result = TimingResult(best=0.001, average=0.002, repeats=5)
        assert result.milliseconds == 2.0


class TestRunner:
    def test_time_optimizer(self):
        instance = WorkloadGenerator(seed=1).fixed_shape("chain", 5)
        timing = time_optimizer("tdmincutbranch", instance, time_budget=0.05)
        assert timing.average > 0

    def test_time_partitioning(self):
        instance = WorkloadGenerator(seed=2).fixed_shape("cycle", 6)
        timing = time_partitioning("mincutbranch", instance, time_budget=0.05)
        assert timing.average > 0

    def test_unknown_partitioner(self):
        instance = WorkloadGenerator(seed=3).fixed_shape("chain", 4)
        with pytest.raises(KeyError):
            time_partitioning("quantum", instance)

    def test_normalized_runtimes(self):
        gen = WorkloadGenerator(seed=4)
        instances = [gen.fixed_shape("chain", 6) for _ in range(2)]
        summaries = normalized_runtimes(
            ["dpccp", "tdmincutbranch"], instances, time_budget=0.05
        )
        by_name = {s.algorithm: s for s in summaries}
        # Baseline normalizes to exactly 1.
        assert by_name["dpccp"].minimum == 1.0
        assert by_name["dpccp"].maximum == 1.0
        other = by_name["tdmincutbranch"]
        assert other.minimum <= other.average <= other.maximum
        assert len(other.row()) == 4


class TestExperiments:
    def test_registry_covers_every_table_and_figure(self):
        expected = {
            "table1", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "fig17", "table4", "table5",
        }
        assert expected <= set(EXPERIMENTS)

    def test_registry_includes_ablations_and_extensions(self):
        for name in (
            "ablation_mcb_opts",
            "ablation_mcl_reuse",
            "ablation_pruning",
            "ext_plan_quality",
            "ext_partitioners",
        ):
            assert name in EXPERIMENTS

    def test_unknown_experiment(self):
        with pytest.raises(ReproError):
            run_experiment("fig99")

    def test_table1_runs_and_renders(self):
        result = run_experiment("table1")
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 12  # 4 shapes x 3 metrics
        text = result.render()
        assert "table1" in text
        assert "1742343625" in text  # clique #ccp at n=20

    def test_ablation_mcl_reuse_runs(self):
        result = run_experiment("ablation_mcl_reuse")
        assert any(row[0].startswith("clique") for row in result.rows)

    def test_ext_partitioners_runs(self):
        result = run_experiment("ext_partitioners")
        assert len(result.rows) == 4
        assert result.columns[0] == "shape"

    def test_render_alignment(self):
        result = ExperimentResult(
            experiment="x",
            title="t",
            paper_reference="ref",
            columns=["a", "long_column"],
            rows=[["1", "2"], ["333", "4"]],
            notes=["note text"],
        )
        text = result.render()
        lines = text.splitlines()
        assert lines[-1] == "note: note text"
        # Header and data rows align on column widths.
        header = [l for l in lines if l.startswith("a ")][0]
        assert "long_column" in header
