"""Tests for the TPC-H-shaped workload."""

import math

import pytest

from repro import ALGORITHMS, optimize_query
from repro.errors import CatalogError
from repro.workloads import tpch_database, tpch_query, tpch_query_names


class TestSchema:
    def test_table_counts_at_sf1(self):
        db = tpch_database(1.0)
        assert db.table("lineitem").rows == 6_000_000
        assert db.table("region").rows == 5
        assert len(db.tables) == 8

    def test_scale_factor(self):
        db = tpch_database(0.01)
        assert db.table("lineitem").rows == 60_000
        assert db.table("nation").rows == 25  # fixed-size tables don't scale

    def test_rejects_nonpositive_sf(self):
        with pytest.raises(CatalogError):
            tpch_database(0)

    def test_fk_selectivities(self):
        db = tpch_database(1.0)
        assert math.isclose(
            db.join_selectivity("lineitem", "l_orderkey", "orders", "o_orderkey"),
            1.0 / 1_500_000,
        )


class TestQueries:
    def test_all_queries_parse(self):
        for name in tpch_query_names():
            catalog = tpch_query(name)
            assert catalog.graph.is_connected(catalog.graph.all_vertices)

    def test_unknown_query(self):
        with pytest.raises(CatalogError):
            tpch_query("q99")

    def test_expected_shapes(self):
        shapes = {
            name: tpch_query(name).graph.shape_name()
            for name in tpch_query_names()
        }
        assert shapes["q3"] == "chain"
        assert shapes["q5"] == "cyclic"
        assert shapes["q9"] == "cyclic"
        assert shapes["q7"] in ("tree", "chain")

    def test_q5_has_the_nation_cycle(self):
        graph = tpch_query("q5").graph
        assert graph.n_edges == graph.n_vertices  # exactly one cycle

    def test_filters_reduce_cardinalities(self):
        catalog = tpch_query("q3")
        names = catalog.relation_names()
        customer = names.index("c")
        # c_mktsegment = 'BUILDING' -> 150000 / 5.
        assert math.isclose(catalog.cardinality(customer), 30_000)

    def test_self_join_aliases_in_q7(self):
        catalog = tpch_query("q7")
        names = catalog.relation_names()
        assert "n1" in names and "n2" in names


class TestOptimization:
    @pytest.mark.parametrize("name", tpch_query_names())
    def test_all_algorithms_agree(self, name):
        catalog = tpch_query(name)
        costs = {
            algorithm: optimize_query(catalog, algorithm=algorithm).cost
            for algorithm in ("tdmincutbranch", "tdmincutlazy", "dpccp", "dpsub")
        }
        reference = costs["dpsub"]
        for algorithm, cost in costs.items():
            assert math.isclose(cost, reference, rel_tol=1e-9), (name, algorithm)

    def test_all_queries_all_algorithms_agree(self):
        algorithms = ["dpccp", "tdmincutbranch", "tdmincutlazy", "memoizationbasic"]
        for name in tpch_query_names():
            catalog = tpch_query(name)
            costs = [
                optimize_query(catalog, algorithm=a).cost for a in algorithms
            ]
            assert all(
                math.isclose(c, costs[0], rel_tol=1e-9) for c in costs
            ), name

    def test_q5_prefers_selective_side_first(self):
        # The region filter makes the nation/region side tiny; the
        # optimal plan must not start from the raw lineitem side.
        result = optimize_query(tpch_query("q5"))
        result.plan.validate()
        first_join = next(result.plan.inner_nodes())
        leaf_names = {leaf.relation for leaf in first_join.leaves()}
        assert leaf_names & {"n", "r", "s", "c"}

    def test_scale_factor_changes_cost_not_plan_validity(self):
        small = optimize_query(tpch_query("q3", scale_factor=0.01))
        big = optimize_query(tpch_query("q3", scale_factor=1.0))
        small.plan.validate()
        big.plan.validate()
        assert big.cost > small.cost

    def test_q9_exercises_cyclic_machinery(self):
        catalog = tpch_query("q9")
        result = optimize_query(catalog)
        assert result.details["ccps_emitted"] > catalog.graph.n_vertices - 1
