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
from repro import serialize
from repro.cost.physical import HashJoin, PhysicalCostModel
from repro.errors import OptimizationError
from repro.service import PlanCache, CacheEntry, request_signature
from repro.service.metrics import LatencyHistogram

from .conftest import chain3_catalog, relabelled_catalog


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

    def test_same_named_cost_models_from_different_functions_miss(self):
        # Regression: the key used the bare class name, so a second
        # ``Model`` was served the first one's plan and cost.
        from repro.cost.base import CostModel

        def output_sized():
            class Model(CostModel):
                def join_cost(self, left_card, right_card, output_card):
                    return output_card, "join"

            return Model

        def nested_loop():
            class Model(CostModel):
                def join_cost(self, left_card, right_card, output_card):
                    return left_card * right_card, "nl"

            return Model

        first_model, second_model = output_sized()(), nested_loop()()
        assert type(first_model).__name__ == type(second_model).__name__
        catalog = WorkloadGenerator(seed=2).fixed_shape("star", 6).catalog
        service = OptimizerService()
        first = service.optimize(catalog, cost_model=first_model)
        second = service.optimize(catalog, cost_model=second_model)
        assert not first.cache_hit and not second.cache_hit
        assert first.signature != second.signature
        expected = OptimizerService().optimize(catalog, cost_model=second_model)
        assert second.cost == expected.cost != first.cost

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


class TestStatsEpoch:
    def test_epoch_zero_signature_is_unchanged(self):
        # Epoch 0 must not alter historical signatures: persisted cache
        # snapshots and the pinned corpus in test_wire_schema stay valid.
        catalog = chain3_catalog()
        sig_default, _ = request_signature(catalog, "tdmincutbranch")
        sig_explicit, _ = request_signature(
            catalog, "tdmincutbranch", stats_epoch=0
        )
        assert sig_default == sig_explicit

    def test_nonzero_epoch_changes_the_signature(self):
        catalog = chain3_catalog()
        sig0, _ = request_signature(catalog, "tdmincutbranch")
        sig1, _ = request_signature(catalog, "tdmincutbranch", stats_epoch=1)
        sig2, _ = request_signature(catalog, "tdmincutbranch", stats_epoch=2)
        assert len({sig0, sig1, sig2}) == 3

    def test_sub_quantum_drift_without_epoch_collides(self):
        # The bug the epoch field fixes: a stats refresh whose values
        # round to the same 4-significant-digit quantum produces the
        # *same* signature, so the cache serves the pre-refresh plan.
        old = chain3_catalog()
        drifted = chain3_catalog(scale=1.0 + 1e-9)
        sig_old, _ = request_signature(old, "tdmincutbranch")
        sig_new, _ = request_signature(drifted, "tdmincutbranch")
        assert sig_old == sig_new  # the collision the epoch must break

    def test_sub_quantum_drift_with_epoch_invalidates(self):
        service = OptimizerService()
        before = service.optimize(
            OptimizationRequest(query=chain3_catalog(), stats_epoch=0)
        )
        assert not before.cache_hit
        replay_hit = service.optimize(
            OptimizationRequest(query=chain3_catalog(), stats_epoch=0)
        )
        assert replay_hit.cache_hit
        # Stats refresh: values drift below the rounding quantum, epoch
        # bumps.  The request must MISS (recompute under new stats), not
        # silently serve the stale plan.
        after = service.optimize(
            OptimizationRequest(
                query=chain3_catalog(scale=1.0 + 1e-9), stats_epoch=1
            )
        )
        assert not after.cache_hit
        assert after.signature != before.signature

    def test_wire_roundtrip_and_tolerant_default(self):
        request = OptimizationRequest(query=chain3_catalog(), stats_epoch=7)
        document = serialize.request_to_dict(request)
        assert document["stats_epoch"] == 7
        assert serialize.request_from_dict(document).stats_epoch == 7
        # Documents from pre-epoch writers carry no field: default 0.
        del document["stats_epoch"]
        assert serialize.request_from_dict(document).stats_epoch == 0

    def test_validation_rejects_bad_epochs(self):
        for bad in (-1, 1.5, "3"):
            with pytest.raises(OptimizationError):
                OptimizationRequest(query=chain3_catalog(), stats_epoch=bad)


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
        for executor in ("serial", "process"):
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

    def test_serial_batch_matches_process(self):
        generator = WorkloadGenerator(seed=3)
        queries = [generator.fixed_shape("cycle", 6) for _ in range(4)]
        serial = OptimizerService().optimize_batch(queries, workers=1)
        process = OptimizerService().optimize_batch(queries, workers=4)
        assert [r.cost for r in serial] == [r.cost for r in process]


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

    def test_lru_memo_counts_and_bound_survive_contention(self):
        import sys

        from repro.service.cache import LRUMemo

        memo = LRUMemo(capacity=4)
        rounds = 2000
        errors = []

        def worker(offset):
            try:
                for i in range(rounds):
                    key = (offset + i) % 7
                    if memo.get(key) is None:
                        memo.put(key, i + 1)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == 6 * rounds
        assert stats["size"] <= 4


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


class TestDigestMemo:
    """A replayed wire document (same door digest) skips decode and key
    resolution on the shard, and is never served a stale plan."""

    @staticmethod
    def document(seed=3, shape="cycle", n=8, tag="q", **fields):
        from repro import serialize

        catalog = WorkloadGenerator(seed=seed).fixed_shape(shape, n).catalog
        request = OptimizationRequest(
            query=catalog, algorithm="auto", tag=tag, **fields
        )
        return serialize.request_to_dict(request)

    @staticmethod
    def serve(service, document, deadline=30.0, digest=True):
        """One shard op, as the door sends it: digest of the unstamped
        document, deadline stamped on top."""
        from repro.service.executor import stamp_deadline
        from repro.service.frontdoor import _request_digest
        from repro.service.sharding import _optimize_on_shard

        job = {
            "op": "optimize",
            "request": stamp_deadline(document, deadline),
            "digest": _request_digest(document) if digest else None,
        }
        body, status = _optimize_on_shard(service, job, shard=0)
        assert status == 200, body
        reply = json.loads(body)
        assert reply["kind"] == "optimize_reply"
        return reply["result"]

    @pytest.fixture
    def calls(self, monkeypatch):
        """Count decodes and canonical labelings on the shard path."""
        from repro.service import core, sharding

        counts = {"parse": 0, "signature": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            sharding,
            "parse_request_document",
            counting("parse", sharding.parse_request_document),
        )
        monkeypatch.setattr(
            core, "request_signature", counting("signature", core.request_signature)
        )
        return counts

    def test_replay_skips_decode_and_signature(self, calls):
        service = OptimizerService(cache_capacity=8)
        document = self.document(tag="replay-me")
        first = self.serve(service, document)
        assert calls == {"parse": 1, "signature": 1}
        replay = self.serve(service, document, deadline=12.5)
        assert calls == {"parse": 1, "signature": 1}
        assert not first["cache_hit"] and replay["cache_hit"]
        assert replay["plan"] == first["plan"]  # tree, costs, relation names
        assert replay["tag"] == first["tag"] == "replay-me"
        assert replay["signature"] == first["signature"]
        assert replay["algorithm"] == first["algorithm"] == "auto"
        memo = service.stats_snapshot()["digest_memo"]
        assert memo["hits"] == 1 and memo["misses"] == 1 and memo["size"] == 1
        canonicalize = service.traces.get(replay["trace_id"]).find("canonicalize")
        assert canonicalize.attributes["memoized"] is True
        first_trace = service.traces.get(first["trace_id"])
        assert first_trace.find("canonicalize").attributes["memoized"] is False

    @pytest.mark.parametrize("drift", ["statistics", "stats_epoch"])
    def test_drifted_document_misses_and_is_served_fresh(self, drift, calls):
        from repro import serialize

        service = OptimizerService(cache_capacity=8)
        document = self.document(seed=4, shape="chain", n=6)
        self.serve(service, document)
        drifted = json.loads(json.dumps(document))
        if drift == "statistics":
            for relation in drifted["query"]["relations"][::2]:
                relation["cardinality"] *= 1000
        else:
            drifted["stats_epoch"] = 1
        result = self.serve(service, drifted)
        assert calls == {"parse": 2, "signature": 2}
        assert not result["cache_hit"]
        assert service.stats_snapshot()["digest_memo"]["misses"] == 2
        fresh = OptimizerService().optimize(serialize.request_from_dict(drifted))
        assert result["plan"] == serialize.plan_to_dict(fresh.plan)

    def test_isomorphic_relabeling_takes_full_path_and_hits(self, calls):
        from repro import serialize

        service = OptimizerService(cache_capacity=8)
        document = self.document(seed=5, shape="cycle", n=7)
        first = self.serve(service, document)
        request = serialize.request_from_dict(document)
        relabelled = serialize.request_to_dict(
            request.with_query(
                relabelled_catalog(request.query, [3, 6, 0, 5, 1, 4, 2])
            )
        )
        result = self.serve(service, relabelled)
        assert calls == {"parse": 2, "signature": 2}
        assert result["cache_hit"]
        assert result["signature"] == first["signature"]
        assert math.isclose(
            serialize.plan_from_dict(result["plan"]).cost,
            serialize.plan_from_dict(first["plan"]).cost,
            rel_tol=1e-9,
        )

    def test_evicted_plan_runs_under_this_requests_deadline(self, monkeypatch):
        from repro.service import core

        service = OptimizerService(cache_capacity=1)
        document = self.document(seed=6, shape="chain", n=6)
        self.serve(service, document, deadline=30.0)
        # A library call (no digest) evicts the plan but not the memo.
        service.optimize(WorkloadGenerator(seed=7).fixed_shape("star", 5).catalog)
        assert service.stats_snapshot()["digest_memo"]["size"] == 1
        deadlines = []

        def spy(request):
            deadlines.append(request.deadline_seconds)
            return real(request)

        real = core.optimize_request
        monkeypatch.setattr(core, "optimize_request", spy)
        result = self.serve(service, document, deadline=7.5)
        assert not result["cache_hit"]
        assert deadlines == [7.5]
        assert service.stats_snapshot()["digest_memo"]["hits"] == 1

    def test_overrides_never_reuse_or_replace_the_memoized_key(self):
        from repro.service.frontdoor import _request_digest

        service = OptimizerService(cache_capacity=8)
        document = self.document(seed=10, shape="chain", n=6)
        first = self.serve(service, document)
        digest = _request_digest(document)
        other = service.optimize(
            service.recall(digest), digest=digest, algorithm="dpccp"
        )
        assert other.signature != first["signature"]
        assert self.serve(service, document)["signature"] == first["signature"]

    def test_memo_is_bounded_by_cache_capacity(self):
        service = OptimizerService(cache_capacity=3)
        for seed in range(7):
            self.serve(service, self.document(seed=seed, shape="chain", n=5))
            assert service.stats_snapshot()["digest_memo"]["size"] <= 3
        memo = service.stats_snapshot()["digest_memo"]
        assert memo["size"] == 3 and memo["capacity"] == 3

    def test_jobs_without_digest_bypass_the_memo(self, calls):
        service = OptimizerService(cache_capacity=8)
        document = self.document(seed=8)
        self.serve(service, document, digest=False)
        replay = self.serve(service, document, digest=False)
        assert replay["cache_hit"]
        assert calls == {"parse": 2, "signature": 2}
        memo = service.stats_snapshot()["digest_memo"]
        assert memo == {"size": 0, "capacity": 8, "hits": 0, "misses": 0}

    def test_memo_renders_in_prometheus(self):
        from repro.service.metrics import render_prometheus

        service = OptimizerService(cache_capacity=8)
        document = self.document(seed=9)
        self.serve(service, document)
        self.serve(service, document)
        text = render_prometheus(service.stats_snapshot())
        assert "repro_digest_memo_hits_total 1" in text
        assert "repro_digest_memo_misses_total 1" in text
        assert "repro_digest_memo_size 1" in text
