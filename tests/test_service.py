"""Tests for the optimizer service layer (cache, batching, metrics)."""

import json
import math
import threading

import pytest

from repro import (
    Catalog,
    OptimizationRequest,
    OptimizerService,
    QueryGraph,
    Relation,
    WorkloadGenerator,
    chain_graph,
    uniform_statistics,
)
from repro.cost.physical import HashJoin, PhysicalCostModel
from repro.errors import OptimizationError
from repro.service import PlanCache, CacheEntry, request_signature
from repro.service.metrics import LatencyHistogram


def relabelled_catalog(catalog: Catalog, permutation) -> Catalog:
    """The same statted query under a different vertex numbering."""
    graph = catalog.graph.relabelled(permutation)
    relations = [None] * graph.n_vertices
    for vertex in range(graph.n_vertices):
        relations[permutation[vertex]] = catalog.relations[vertex]
    selectivities = {
        (permutation[u], permutation[v]): catalog.selectivity(u, v)
        for (u, v) in catalog.graph.edges
    }
    return Catalog(graph, relations, selectivities)


class TestCacheHits:
    def test_second_call_hits(self):
        service = OptimizerService()
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 8).catalog
        cold = service.optimize(catalog)
        warm = service.optimize(catalog)
        assert not cold.cache_hit and warm.cache_hit
        assert cold.signature == warm.signature
        assert math.isclose(warm.cost, cold.cost, rel_tol=1e-9)
        warm.plan.validate()

    def test_hit_on_isomorphic_relabeled_graph(self):
        service = OptimizerService()
        catalog = WorkloadGenerator(seed=2).fixed_shape("cycle", 9).catalog
        cold = service.optimize(catalog)
        permutation = [3, 7, 1, 0, 8, 2, 6, 4, 5]
        warm = service.optimize(relabelled_catalog(catalog, permutation))
        assert warm.cache_hit
        assert math.isclose(warm.cost, cold.cost, rel_tol=1e-9)
        warm.plan.validate()
        # The rebound plan references the relabeled query's own relations.
        assert {leaf.relation for leaf in warm.plan.leaves()} == {
            r.name for r in catalog.relations
        }

    def test_miss_on_changed_selectivities(self):
        service = OptimizerService()
        graph = chain_graph(6)
        first = uniform_statistics(graph, selectivity=0.01)
        second = uniform_statistics(graph, selectivity=0.5)
        assert not service.optimize(first).cache_hit
        result = service.optimize(second)
        assert not result.cache_hit
        assert service.cache.stats()["misses"] == 2

    def test_miss_on_changed_cardinalities(self):
        service = OptimizerService()
        graph = chain_graph(6)
        assert not service.optimize(uniform_statistics(graph, cardinality=100.0)).cache_hit
        assert not service.optimize(uniform_statistics(graph, cardinality=9000.0)).cache_hit

    def test_miss_on_different_algorithm_or_pruning(self):
        service = OptimizerService()
        catalog = uniform_statistics(chain_graph(6))
        service.optimize(catalog, algorithm="tdmincutbranch")
        assert not service.optimize(catalog, algorithm="dpccp").cache_hit
        assert not service.optimize(
            catalog, algorithm="tdmincutbranch", enable_pruning=True
        ).cache_hit
        assert service.optimize(catalog, algorithm="tdmincutbranch").cache_hit

    def test_rounding_merges_near_identical_statistics(self):
        service = OptimizerService(round_digits=2)
        graph = chain_graph(5)
        assert not service.optimize(uniform_statistics(graph, cardinality=1000.0)).cache_hit
        assert service.optimize(uniform_statistics(graph, cardinality=1000.4)).cache_hit

    def test_trivial_single_relation_query(self):
        service = OptimizerService()
        catalog = uniform_statistics(QueryGraph(1, []))
        cold = service.optimize(catalog)
        assert cold.plan.is_leaf and cold.details.get("trivial") == 1
        assert service.optimize(catalog).cache_hit


class TestSignatureCoverage:
    """Regression: the cache key must cover every answer-changing knob."""

    def test_cost_model_parameters_distinguish_signatures(self):
        # Two differently-parameterized instances of the same class used
        # to collide to one key (only the class name was hashed) and be
        # served each other's plans.
        catalog = uniform_statistics(chain_graph(6))
        light, _ = request_signature(
            catalog, "dpccp", PhysicalCostModel(output_weight=1.0)
        )
        heavy, _ = request_signature(
            catalog, "dpccp", PhysicalCostModel(output_weight=50.0)
        )
        assert light != heavy
        again, _ = request_signature(
            catalog, "dpccp", PhysicalCostModel(output_weight=1.0)
        )
        assert light == again

    def test_join_implementation_parameters_distinguish_signatures(self):
        catalog = uniform_statistics(chain_graph(6))
        cheap, _ = request_signature(
            catalog,
            "dpccp",
            PhysicalCostModel(implementations=[HashJoin(build_factor=2.0)]),
        )
        costly, _ = request_signature(
            catalog,
            "dpccp",
            PhysicalCostModel(implementations=[HashJoin(build_factor=9.0)]),
        )
        assert cheap != costly

    def test_cross_product_flag_distinguishes_signatures(self):
        catalog = uniform_statistics(chain_graph(6))
        without, _ = request_signature(catalog, "dpccp")
        with_cp, _ = request_signature(
            catalog, "dpccp", allow_cross_products=True
        )
        assert without != with_cp

    def test_service_misses_on_reparameterized_cost_model(self):
        service = OptimizerService()
        catalog = WorkloadGenerator(seed=8).fixed_shape("cycle", 6).catalog
        first = service.optimize(
            catalog, algorithm="dpccp", cost_model=PhysicalCostModel(output_weight=1.0)
        )
        second = service.optimize(
            catalog,
            algorithm="dpccp",
            cost_model=PhysicalCostModel(output_weight=50.0),
        )
        assert not first.cache_hit and not second.cache_hit
        assert first.signature != second.signature
        # Identical parameterization still hits.
        assert service.optimize(
            catalog, algorithm="dpccp", cost_model=PhysicalCostModel(output_weight=1.0)
        ).cache_hit


class TestStatisticsValidation:
    """Regression: non-finite statistics must fail with a typed error
    naming the relation, not an OverflowError/ValueError from log10."""

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_cardinality_is_a_typed_error(self, bad):
        graph = chain_graph(3)
        relations = [Relation("r0", 10.0), Relation("bad_rel", bad), Relation("r2", 30.0)]
        catalog = Catalog(graph, relations, {e: 0.1 for e in graph.edges})
        service = OptimizerService()
        with pytest.raises(OptimizationError, match="bad_rel"):
            service.optimize(catalog)

    def test_non_finite_statistics_isolated_in_batch(self):
        graph = chain_graph(3)
        poisoned = Catalog(
            graph,
            [Relation("a", 10.0), Relation("b", float("nan")), Relation("c", 5.0)],
            {e: 0.1 for e in graph.edges},
        )
        healthy = uniform_statistics(chain_graph(4))
        for executor in ("serial", "thread", "process"):
            results = OptimizerService().optimize_batch(
                [healthy, poisoned, healthy], workers=2, executor=executor
            )
            assert results[0].ok and results[2].ok, executor
            assert not results[1].ok
            assert "OptimizationError" in results[1].error
            assert "'b'" in results[1].error


class TestErrorLabelResolution:
    """Regression: errors were recorded under the unresolved "auto"
    label while successes used the effective algorithm, skewing
    per-algorithm error rates."""

    def test_single_optimize_error_uses_effective_label(self):
        service = OptimizerService()  # default algorithm is "auto"
        disconnected = uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)]))
        with pytest.raises(OptimizationError):
            service.optimize(disconnected)
        algorithms = service.stats_snapshot()["algorithms"]
        assert "auto" not in algorithms
        # choose_algorithm resolves this small sparse graph to the
        # paper's top-down default.
        assert algorithms["tdmincutbranch"]["errors"] == 1

    def test_batch_errors_use_effective_label(self):
        service = OptimizerService()
        disconnected = uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)]))
        healthy = uniform_statistics(chain_graph(5))
        service.optimize_batch([healthy, disconnected], workers=2)
        algorithms = service.stats_snapshot()["algorithms"]
        assert "auto" not in algorithms
        slot = algorithms["tdmincutbranch"]
        assert slot["errors"] == 1 and slot["count"] == 2


class TestOptimizeErrorAccounting:
    """Regression: ``optimize()`` recorded only ``ReproError`` failures,
    so an engine bug left no error count and no stored trace, while the
    same item through ``optimize_batch`` was counted and traced."""

    def test_non_repro_engine_failure_is_recorded_and_traced(self, monkeypatch):
        import repro.service.core as core
        from repro.optimizer.api import choose_algorithm

        def broken_engine(request):
            raise ZeroDivisionError("engine bug")

        monkeypatch.setattr(core, "optimize_request", broken_engine)
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 6).catalog
        label = choose_algorithm(catalog)
        service = OptimizerService()
        with pytest.raises(ZeroDivisionError):
            service.optimize(catalog)
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["requests"] == 1
        assert snapshot["totals"]["errors"] == 1
        assert snapshot["algorithms"][label]["errors"] == 1
        assert snapshot["breaker"][label]["consecutive_failures"] == 1
        trace = service.traces.last()
        assert trace is not None
        assert trace.root.attributes["error"] == "ZeroDivisionError: engine bug"
        assert trace.root.attributes["algorithm"] == label
        # The batch path accounts for the same failure the same way.
        batched = service.optimize_batch([catalog], workers=1)[0]
        assert batched.error == "ZeroDivisionError: engine bug"
        assert service.stats_snapshot()["totals"]["errors"] == 2
        assert service.traces.get(batched.trace_id).root.attributes["error"] == (
            "ZeroDivisionError: engine bug"
        )


class TestLru:
    def test_eviction_at_capacity(self):
        service = OptimizerService(cache_capacity=2)
        catalogs = [
            WorkloadGenerator(seed=s).fixed_shape("chain", 5).catalog
            for s in range(3)
        ]
        for catalog in catalogs:
            service.optimize(catalog)
        stats = service.cache.stats()
        assert stats["size"] == 2
        assert stats["evictions"] == 1
        # The oldest entry was evicted; the newest two still hit.
        assert not service.optimize(catalogs[0]).cache_hit
        assert service.optimize(catalogs[2]).cache_hit

    def test_recency_refresh_on_hit(self):
        service = OptimizerService(cache_capacity=2)
        catalogs = [
            WorkloadGenerator(seed=s).fixed_shape("star", 5).catalog
            for s in range(3)
        ]
        service.optimize(catalogs[0])
        service.optimize(catalogs[1])
        service.optimize(catalogs[0])  # refresh 0 → 1 becomes LRU
        service.optimize(catalogs[2])  # evicts 1
        assert service.optimize(catalogs[0]).cache_hit
        assert not service.optimize(catalogs[1]).cache_hit

    def test_capacity_must_be_positive(self):
        with pytest.raises(OptimizationError):
            PlanCache(capacity=0)


class TestBatch:
    def test_batch_preserves_order_and_tags(self):
        service = OptimizerService()
        generator = WorkloadGenerator(seed=7)
        requests = [
            OptimizationRequest(
                query=generator.fixed_shape("chain", 4 + i), tag=f"q{i}"
            )
            for i in range(4)
        ]
        results = service.optimize_batch(requests, workers=3)
        assert [r.tag for r in results] == ["q0", "q1", "q2", "q3"]
        assert [r.plan.n_joins() for r in results] == [3, 4, 5, 6]

    def test_poisoned_query_is_isolated(self):
        service = OptimizerService()
        disconnected = uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)]))
        healthy = uniform_statistics(chain_graph(5))
        results = service.optimize_batch(
            [healthy, disconnected, healthy], workers=2
        )
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert results[1].plan is None
        # Disconnected graphs now raise the typed subclass; the message
        # keeps the "TypeName: ..." shape and carries a stable wire code.
        assert "DisconnectedGraphError" in results[1].error
        assert results[1].error.code == "invalid_query"
        with pytest.raises(OptimizationError):
            results[1].cost  # no plan to price
        assert "failed" in results[1].summary()
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["errors"] == 1
        assert snapshot["totals"]["requests"] == 3

    def test_poisoned_query_raises_outside_batch(self):
        service = OptimizerService()
        disconnected = uniform_statistics(QueryGraph(4, [(0, 1), (2, 3)]))
        with pytest.raises(OptimizationError):
            service.optimize(disconnected)
        assert service.stats_snapshot()["totals"]["errors"] == 1

    def test_garbage_query_object_is_isolated(self):
        service = OptimizerService()
        results = service.optimize_batch(
            [uniform_statistics(chain_graph(4)), 42], workers=1
        )
        assert results[0].ok
        assert not results[1].ok

    def test_non_repro_exception_during_build_is_isolated(self):
        # Regression: the build loop used to catch only ReproError, so a
        # malformed object raising TypeError poisoned the whole batch,
        # contradicting the docstring's isolation promise.
        class Liar:
            @property
            def __class__(self):
                raise TypeError("boom")

        healthy = uniform_statistics(chain_graph(5))
        service = OptimizerService()
        results = service.optimize_batch([healthy, Liar(), healthy], workers=2)
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "TypeError" in results[1].error and "boom" in results[1].error
        assert service.stats_snapshot()["totals"]["errors"] == 1

    def test_serial_batch_matches_threaded(self):
        generator = WorkloadGenerator(seed=3)
        queries = [generator.fixed_shape("cycle", 6) for _ in range(4)]
        serial = OptimizerService().optimize_batch(queries, workers=1)
        threaded = OptimizerService().optimize_batch(queries, workers=4)
        assert [r.cost for r in serial] == [r.cost for r in threaded]


class TestThreadSafety:
    def test_concurrent_optimize_on_shared_service(self):
        service = OptimizerService()
        catalog = WorkloadGenerator(seed=5).fixed_shape("cycle", 8).catalog
        results = []
        errors = []

        def worker():
            try:
                for _ in range(4):
                    results.append(service.optimize(catalog))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 32
        costs = {round(r.cost, 6) for r in results}
        assert len(costs) == 1
        stats = service.cache.stats()
        assert stats["hits"] + stats["misses"] == 32
        assert stats["hits"] >= 1 and stats["misses"] >= 1
        totals = service.stats_snapshot()["totals"]
        assert totals["requests"] == 32
        assert totals["cache_hits"] + totals["cache_misses"] == 32


class TestPersistence:
    def test_cache_round_trip(self, tmp_path):
        service = OptimizerService()
        generator = WorkloadGenerator(seed=11)
        catalogs = [generator.fixed_shape("chain", n).catalog for n in (5, 6, 7)]
        baseline = [service.optimize(c) for c in catalogs]
        path = tmp_path / "cache.json"
        assert service.save_cache(str(path)) == 3
        document = json.loads(path.read_text())
        assert document["kind"] == "plan_cache"

        fresh = OptimizerService()
        assert fresh.load_cache(str(path)) == 3
        for catalog, cold in zip(catalogs, baseline):
            warm = fresh.optimize(catalog)
            assert warm.cache_hit
            assert math.isclose(warm.cost, cold.cost, rel_tol=1e-9)

    def test_signature_stability(self):
        catalog = WorkloadGenerator(seed=1).fixed_shape("star", 7).catalog
        first, order = request_signature(catalog, "tdmincutbranch")
        second, _ = request_signature(catalog, "tdmincutbranch")
        assert first == second
        assert sorted(order) == list(range(7))
        other, _ = request_signature(catalog, "dpccp")
        assert other != first


class TestMetrics:
    def test_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):
            histogram.record(ms / 1000.0)
        assert histogram.count == 100
        assert math.isclose(histogram.percentile(50), 0.050, rel_tol=1e-9)
        assert math.isclose(histogram.percentile(95), 0.095, rel_tol=1e-9)
        assert math.isclose(histogram.percentile(99), 0.099, rel_tol=1e-9)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 100
        assert math.isclose(snapshot["p50_ms"], 50.0, rel_tol=1e-9)
        assert math.isclose(snapshot["max_ms"], 100.0, rel_tol=1e-9)

    def test_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.percentile(50) is None
        assert histogram.snapshot() == {"count": 0}

    def test_snapshot_shape_and_reset(self):
        service = OptimizerService()
        catalog = uniform_statistics(chain_graph(5))
        service.optimize(catalog, algorithm="tdmincutbranch")
        service.optimize(catalog, algorithm="tdmincutbranch")
        snapshot = service.stats_snapshot()
        algo = snapshot["algorithms"]["tdmincutbranch"]
        assert algo["count"] == 2 and algo["cache_hits"] == 1
        for key in ("p50_ms", "p95_ms", "p99_ms", "mean_ms"):
            assert algo["latency"][key] >= 0.0
        json.dumps(snapshot)  # must be JSON-clean as-is
        service.reset_stats()
        assert service.stats_snapshot()["totals"]["requests"] == 0
        # Cache content survives a metrics reset.
        assert service.optimize(catalog, algorithm="tdmincutbranch").cache_hit
