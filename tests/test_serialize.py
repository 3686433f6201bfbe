"""Round-trip tests for JSON serialization."""

import json
import math

import pytest

from repro import (
    attach_random_statistics,
    chain_graph,
    optimize_query,
)
from repro.errors import ReproError
from repro.serialize import (
    catalog_from_dict,
    catalog_to_dict,
    cost_model_from_dict,
    cost_model_to_dict,
    graph_from_dict,
    graph_to_dict,
    plan_from_dict,
    plan_to_dict,
    request_from_dict,
    request_to_dict,
    result_from_dict,
    result_to_dict,
)

from .conftest import random_connected_graph


class TestGraphRoundTrip:
    def test_round_trip(self, rng):
        for _ in range(20):
            graph = random_connected_graph(rng)
            document = graph_to_dict(graph)
            json.dumps(document)  # must be plain-JSON encodable
            assert graph_from_dict(document) == graph

    def test_kind_check(self):
        with pytest.raises(ReproError):
            graph_from_dict({"kind": "catalog"})

    def test_not_a_dict(self):
        with pytest.raises(ReproError):
            graph_from_dict([1, 2, 3])


class TestCatalogRoundTrip:
    def test_round_trip(self, rng):
        for _ in range(10):
            graph = random_connected_graph(rng)
            catalog = attach_random_statistics(graph, rng=rng)
            document = json.loads(json.dumps(catalog_to_dict(catalog)))
            restored = catalog_from_dict(document)
            assert restored.graph == catalog.graph
            for v in range(graph.n_vertices):
                assert restored.cardinality(v) == catalog.cardinality(v)
            for (u, v) in graph.edges:
                assert restored.selectivity(u, v) == catalog.selectivity(u, v)

    def test_restored_catalog_optimizes_identically(self, rng):
        graph = random_connected_graph(rng)
        catalog = attach_random_statistics(graph, rng=rng)
        restored = catalog_from_dict(catalog_to_dict(catalog))
        assert math.isclose(
            optimize_query(catalog).cost,
            optimize_query(restored).cost,
            rel_tol=1e-12,
        )

    def test_corrupted_selectivity_rejected(self):
        catalog = attach_random_statistics(chain_graph(3), seed=1)
        document = catalog_to_dict(catalog)
        document["selectivities"][0]["selectivity"] = 2.0
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            catalog_from_dict(document)


class TestPlanRoundTrip:
    def test_round_trip(self, rng):
        for _ in range(10):
            graph = random_connected_graph(rng)
            catalog = attach_random_statistics(graph, rng=rng)
            plan = optimize_query(catalog).plan
            document = json.loads(json.dumps(plan_to_dict(plan)))
            restored = plan_from_dict(document)
            assert restored == plan

    def test_validation_on_load(self):
        catalog = attach_random_statistics(chain_graph(3), seed=2)
        document = plan_to_dict(optimize_query(catalog).plan)
        # Corrupt: make the two children overlap.
        document["root"]["left"] = document["root"]["right"]
        with pytest.raises(AssertionError):
            plan_from_dict(document)


class TestCostModelRoundTrip:
    def test_cout_round_trip(self):
        from repro.cost.cout import CoutCostModel

        document = json.loads(json.dumps(cost_model_to_dict(CoutCostModel())))
        restored = cost_model_from_dict(document)
        assert isinstance(restored, CoutCostModel)

    def test_physical_round_trip_preserves_parameters(self):
        from repro.cost.physical import HashJoin, PhysicalCostModel

        model = PhysicalCostModel(
            implementations=[HashJoin(build_factor=7.0, probe_factor=3.0)],
            output_weight=2.5,
        )
        document = json.loads(json.dumps(cost_model_to_dict(model)))
        restored = cost_model_from_dict(document)
        assert restored.signature_fields() == model.signature_fields()
        assert restored.join_cost(10.0, 20.0, 5.0) == model.join_cost(
            10.0, 20.0, 5.0
        )

    def test_custom_cost_model_round_trip(self):
        from dataclasses import dataclass

        from repro.cost.base import JoinImplementation
        from repro.cost.cout import CoutCostModel
        from repro.cost.physical import HashJoin, PhysicalCostModel

        class Scaled(CoutCostModel):
            def __init__(self, scale=1.0):
                self.scale = scale

            def join_cost(self, left_card, right_card, output_card):
                return self.scale * output_card, "join"

            def signature_fields(self):
                return {"scale": self.scale}

        @dataclass(frozen=True)
        class Probe(JoinImplementation):
            name: str = "probe"
            factor: float = 1.0

            def cost(self, left_card, right_card, output_card):
                return self.factor * right_card

        for model in (
            Scaled(scale=3.0),
            PhysicalCostModel(implementations=[Probe(factor=4.0), HashJoin()]),
        ):
            document = json.loads(json.dumps(cost_model_to_dict(model)))
            assert document["class"] == type(model).__qualname__
            restored = cost_model_from_dict(document)
            assert type(restored) is type(model)
            assert restored.signature_fields() == model.signature_fields()
            assert restored.join_cost(10.0, 20.0, 5.0) == model.join_cost(
                10.0, 20.0, 5.0
            )

    def test_custom_cost_model_rejected(self):
        from repro.cost.cout import CoutCostModel

        def make():
            class Custom(CoutCostModel):
                pass

            return Custom

        # Two live classes with one qualified name cannot be told apart.
        first, second = make(), make()
        with pytest.raises(ReproError, match="ambiguous"):
            cost_model_to_dict(second())
        with pytest.raises(ReproError, match="ambiguous"):
            cost_model_from_dict(
                {"kind": "cost_model", "class": first.__qualname__, "params": {}}
            )
        # Unknown names stay rejected; nothing is imported to find them.
        with pytest.raises(ReproError, match="unknown cost model class"):
            cost_model_from_dict(
                {"kind": "cost_model", "class": "Custom", "params": {}}
            )
        with pytest.raises(ReproError, match="unknown cost model class"):
            cost_model_from_dict(
                {"kind": "cost_model", "class": "json.JSONDecoder", "params": {}}
            )


class TestRequestResultRoundTrip:
    def test_request_round_trip_catalog_query(self):
        from repro.cost.physical import PhysicalCostModel
        from repro.optimizer.api import OptimizationRequest, optimize_request

        catalog = attach_random_statistics(chain_graph(6), seed=3)
        request = OptimizationRequest(
            query=catalog,
            algorithm="dpccp",
            cost_model=PhysicalCostModel(output_weight=2.0),
            tag="rt",
        )
        document = json.loads(json.dumps(request_to_dict(request)))
        restored = request_from_dict(document)
        assert restored.algorithm == "dpccp" and restored.tag == "rt"
        original = optimize_request(request)
        replayed = optimize_request(restored)
        assert math.isclose(replayed.plan.cost, original.plan.cost, rel_tol=1e-9)

    def test_request_round_trip_query_instance(self):
        from repro.catalog.workload import QueryInstance, WorkloadGenerator
        from repro.optimizer.api import OptimizationRequest

        instance = WorkloadGenerator(seed=2).fixed_shape("star", 5)
        request = OptimizationRequest(query=instance, enable_pruning=True)
        restored = request_from_dict(
            json.loads(json.dumps(request_to_dict(request)))
        )
        assert isinstance(restored.query, QueryInstance)
        assert restored.query.shape == "star"
        assert restored.enable_pruning

    def test_request_round_trip_bare_graph(self):
        from repro.optimizer.api import OptimizationRequest

        request = OptimizationRequest(
            query=chain_graph(4), allow_cross_products=True
        )
        restored = request_from_dict(
            json.loads(json.dumps(request_to_dict(request)))
        )
        assert restored.query == chain_graph(4)
        assert restored.allow_cross_products

    def test_result_round_trip(self):
        catalog = attach_random_statistics(chain_graph(5), seed=1)
        result = optimize_query(catalog, algorithm="tdmincutbranch")
        document = json.loads(json.dumps(result_to_dict(result)))
        restored = result_from_dict(document)
        assert math.isclose(restored.plan.cost, result.plan.cost, rel_tol=1e-9)
        assert restored.memo_entries == result.memo_entries
        assert restored.cost_evaluations == result.cost_evaluations
        assert restored.ok

    def test_error_result_round_trip(self):
        from repro.optimizer.api import OptimizationResult

        failed = OptimizationResult(
            plan=None,
            algorithm="dpccp",
            elapsed_seconds=0.1,
            memo_entries=0,
            cost_evaluations=0,
            cardinality_estimations=0,
            error="OptimizationError: nope",
            tag="bad",
        )
        restored = result_from_dict(
            json.loads(json.dumps(result_to_dict(failed)))
        )
        assert not restored.ok and restored.plan is None
        assert restored.error == failed.error and restored.tag == "bad"

    def test_kind_checks(self):
        with pytest.raises(ReproError):
            request_from_dict({"kind": "join_tree"})
        with pytest.raises(ReproError):
            result_from_dict({"kind": "optimization_request"})
