"""Tests for the Star Schema Benchmark workload."""

import math

import pytest

from repro import optimize_query
from repro.errors import CatalogError
from repro.workloads import ssb_database, ssb_query, ssb_query_names


class TestSchema:
    def test_fact_table_size(self):
        db = ssb_database(1.0)
        assert db.table("lineorder").rows == 6_000_000
        assert db.table("date_dim").rows == 2_556  # fixed size

    def test_scale(self):
        db = ssb_database(0.1)
        assert db.table("customer").rows == 3_000

    def test_rejects_bad_sf(self):
        with pytest.raises(CatalogError):
            ssb_database(-1)


class TestQueries:
    def test_thirteen_queries(self):
        assert len(ssb_query_names()) == 13

    def test_all_parse_and_connect(self):
        for name in ssb_query_names():
            catalog = ssb_query(name)
            assert catalog.graph.is_connected(catalog.graph.all_vertices)

    def test_flight_shapes(self):
        # Flight 1 joins one dimension (a 2-chain); flights 2-4 are stars.
        assert ssb_query("q1.1").graph.n_vertices == 2
        assert ssb_query("q2.1").graph.shape_name() == "star"
        assert ssb_query("q4.1").graph.n_vertices == 5
        assert ssb_query("q4.1").graph.shape_name() == "star"

    def test_fact_table_is_hub(self):
        catalog = ssb_query("q4.1")
        hub = catalog.relation_names().index("lo")
        assert catalog.graph.degree(hub) == 4

    def test_filters_applied(self):
        catalog = ssb_query("q2.1")
        names = catalog.relation_names()
        part = names.index("p")
        # p_category = 12 -> 200000 / 25.
        assert math.isclose(catalog.cardinality(part), 8_000)

    def test_unknown_query(self):
        with pytest.raises(CatalogError):
            ssb_query("q9.9")

    def test_more_selective_flights_cost_less(self):
        # Within flight 3 the filters get progressively narrower.
        costs = [optimize_query(ssb_query(f"q3.{i}")).cost for i in (1, 2, 3)]
        assert costs[0] > costs[1] > costs[2]


class TestOptimization:
    @pytest.mark.parametrize("name", ssb_query_names())
    def test_topdown_equals_bottomup(self, name):
        catalog = ssb_query(name)
        top_down = optimize_query(catalog, algorithm="tdmincutbranch")
        bottom_up = optimize_query(catalog, algorithm="dpccp")
        assert math.isclose(top_down.cost, bottom_up.cost, rel_tol=1e-9)
        top_down.plan.validate()

    def test_all_flights_agree(self):
        for name in ssb_query_names():
            catalog = ssb_query(name)
            costs = [
                optimize_query(catalog, algorithm=a).cost
                for a in ("dpccp", "tdmincutbranch", "tdmincutlazy")
            ]
            assert all(math.isclose(c, costs[0], rel_tol=1e-9) for c in costs)

    def test_star_plans_are_left_deep_from_hub(self):
        # Star queries only admit hub-extension plans: each join adds
        # one dimension to the set containing the fact table.
        result = optimize_query(ssb_query("q4.1"))
        names = set(result.plan.leaves())
        for node in result.plan.inner_nodes():
            sides = sorted(
                (node.left, node.right), key=lambda s: s.n_relations()
            )
            assert sides[0].n_relations() == 1  # always adds one dimension
