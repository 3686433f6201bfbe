"""Unit tests for the public facade (make_optimizer / optimize_query)."""

import pytest

from repro import (
    ALGORITHMS,
    Catalog,
    CoutCostModel,
    OptimizationRequest,
    QueryGraph,
    WorkloadGenerator,
    chain_graph,
    make_optimizer,
    optimize_query,
    optimize_request,
    register_algorithm,
    uniform_statistics,
    unregister_algorithm,
)
from repro.errors import OptimizationError

from .conftest import pin_dpconv_kernel


class TestRegistry:
    def test_expected_algorithms_present(self):
        assert set(ALGORITHMS) == {
            "tdmincutbranch",
            "tdmincutlazy",
            "memoizationbasic",
            "tdconservative",
            "dpccp",
            "dpsub",
            "dpsize",
            "dpconv",
        }

    def test_make_optimizer_unknown_name(self):
        catalog = uniform_statistics(chain_graph(3))
        with pytest.raises(OptimizationError):
            make_optimizer("quickpick", catalog)

    def test_make_optimizer_returns_named_optimizer(self):
        catalog = uniform_statistics(chain_graph(3))
        optimizer = make_optimizer("dpccp", catalog)
        assert optimizer.name == "dpccp"

    def test_register_algorithm_decorator_is_live(self):
        @register_algorithm("plugin-td")
        def make_plugin(catalog, cost_model=None, enable_pruning=False):
            return ALGORITHMS["tdmincutbranch"](
                catalog, cost_model=cost_model, enable_pruning=enable_pruning
            )

        try:
            assert "plugin-td" in ALGORITHMS  # dict is the live view
            catalog = uniform_statistics(chain_graph(4))
            result = optimize_query(catalog, algorithm="plugin-td")
            assert result.plan.n_joins() == 3
        finally:
            assert unregister_algorithm("plugin-td") is make_plugin
        assert "plugin-td" not in ALGORITHMS

    def test_register_duplicate_name_rejected(self):
        with pytest.raises(OptimizationError):
            register_algorithm("dpccp")(lambda *a, **k: None)

    def test_register_replace_existing(self):
        original = ALGORITHMS["dpccp"]
        try:
            register_algorithm("dpccp", replace_existing=True)(original)
            assert ALGORITHMS["dpccp"] is original
        finally:
            ALGORITHMS["dpccp"] = original

    def test_unregister_unknown_rejected(self):
        with pytest.raises(OptimizationError):
            unregister_algorithm("no-such-algorithm")


class TestOptimizationRequest:
    def test_request_round_trip(self):
        catalog = uniform_statistics(chain_graph(5))
        request = OptimizationRequest(query=catalog, algorithm="dpsub", tag="r1")
        result = optimize_request(request)
        assert result.algorithm == "dpsub"
        assert result.tag == "r1"
        assert result.ok and result.error is None
        assert result.plan.n_joins() == 4

    def test_request_rejects_garbage_query(self):
        with pytest.raises(OptimizationError):
            OptimizationRequest(query=object())

    def test_request_rejects_non_string_algorithm(self):
        with pytest.raises(OptimizationError):
            OptimizationRequest(query=chain_graph(3), algorithm=7)

    def test_request_is_frozen(self):
        request = OptimizationRequest(query=uniform_statistics(chain_graph(3)))
        with pytest.raises(Exception):
            request.algorithm = "dpccp"

    def test_with_query_copies_settings(self):
        request = OptimizationRequest(
            query=uniform_statistics(chain_graph(3)),
            algorithm="dpccp",
            enable_pruning=False,
        )
        other = request.with_query(uniform_statistics(chain_graph(4)))
        assert other.algorithm == "dpccp"
        assert other.query is not request.query

    def test_make_optimizer_accepts_request(self):
        request = OptimizationRequest(
            query=uniform_statistics(chain_graph(3)), algorithm="dpccp"
        )
        assert make_optimizer(request).name == "dpccp"

    def test_make_optimizer_rejects_request_plus_catalog(self):
        catalog = uniform_statistics(chain_graph(3))
        request = OptimizationRequest(query=catalog)
        with pytest.raises(OptimizationError):
            make_optimizer(request, catalog)

    def test_single_relation_fast_path(self):
        catalog = uniform_statistics(QueryGraph(1, []), cardinality=77.0)
        for algorithm in ("tdmincutbranch", "dpccp", "auto"):
            result = optimize_request(
                OptimizationRequest(query=catalog, algorithm=algorithm)
            )
            assert result.plan.is_leaf
            assert result.plan.cardinality == 77.0
            assert result.plan.cost == 0.0
            assert result.details == {"trivial": 1}
            assert result.memo_entries == 1

    def test_choose_algorithm_single_relation(self):
        from repro.optimizer.api import choose_algorithm

        catalog = uniform_statistics(QueryGraph(1, []))
        assert choose_algorithm(catalog) == "tdmincutbranch"
        assert choose_algorithm(catalog, enable_pruning=True) == "tdmincutbranch"


class TestOptimizeQuery:
    def test_accepts_catalog(self):
        catalog = uniform_statistics(chain_graph(4))
        result = optimize_query(catalog)
        assert result.algorithm == "tdmincutbranch"
        assert result.plan.n_joins() == 3

    def test_accepts_bare_graph(self):
        with pytest.warns(DeprecationWarning):
            result = optimize_query(chain_graph(4))
        assert result.plan.n_joins() == 3

    def test_catalog_does_not_warn(self):
        import warnings

        catalog = uniform_statistics(chain_graph(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            optimize_query(catalog)

    def test_accepts_query_instance(self):
        instance = WorkloadGenerator(seed=0).fixed_shape("cycle", 5)
        result = optimize_query(instance)
        assert result.plan.n_joins() == 4

    def test_rejects_garbage(self):
        with pytest.raises(OptimizationError):
            optimize_query(42)

    def test_result_counters_consistent(self):
        catalog = uniform_statistics(chain_graph(5))
        result = optimize_query(catalog)
        assert result.cost == result.plan.cost
        assert result.memo_entries >= 5
        # C_out is symmetric: one evaluation per emitted ccp (the mirrored
        # orientation is provably redundant and skipped).
        assert result.cost_evaluations == result.details["ccps_emitted"]
        assert result.elapsed_seconds > 0

    def test_details_for_bottom_up(self):
        catalog = uniform_statistics(chain_graph(5))
        result = optimize_query(catalog, algorithm="dpccp")
        assert "ccps_emitted" not in result.details

    def test_summary_format(self):
        catalog = uniform_statistics(chain_graph(3))
        summary = optimize_query(catalog).summary()
        assert "tdmincutbranch" in summary
        assert "cost=" in summary
        assert "memo=" in summary

    def test_custom_cost_model_used(self):
        catalog = uniform_statistics(chain_graph(4))
        cout = optimize_query(catalog, cost_model=CoutCostModel())
        assert cout.plan.implementation == "join"


class TestAutoAlgorithm:
    def test_auto_runs(self):
        from repro import attach_random_statistics, cycle_graph

        catalog = attach_random_statistics(cycle_graph(6), seed=1)
        result = optimize_query(catalog, algorithm="auto")
        result.plan.validate()
        assert result.algorithm == "auto"

    def test_choose_sparse_prefers_topdown(self, monkeypatch):
        from repro import chain_graph
        from repro.optimizer.api import choose_algorithm

        catalog = uniform_statistics(chain_graph(12))
        pin_dpconv_kernel(monkeypatch, False)
        assert choose_algorithm(catalog) == "tdmincutbranch"
        # chain-12: 286 ccps, below DPCONV_BREAK_EVEN_CCPS[12] (where C
        # top-down's fitted time meets C dpconv's), so even with a
        # kernel the top-down engine is predicted faster.
        pin_dpconv_kernel(monkeypatch, True)
        assert choose_algorithm(catalog) == "tdmincutbranch"

    def test_choose_dense_prefers_dpconv_else_topdown(self, monkeypatch):
        from repro import clique_graph
        from repro.optimizer.api import choose_algorithm

        catalog = uniform_statistics(clique_graph(12))
        pin_dpconv_kernel(monkeypatch, False)
        assert choose_algorithm(catalog) == "tdmincutbranch"
        pin_dpconv_kernel(monkeypatch, True)
        assert choose_algorithm(catalog) == "dpconv"

    def test_no_kernel_picks_topdown_on_every_shape(self, monkeypatch):
        from repro import grid_graph, make_shape
        from repro.optimizer.api import choose_algorithm

        pin_dpconv_kernel(monkeypatch, False)
        graphs = [
            make_shape(shape, n)
            for shape in ("chain", "star", "cycle", "clique")
            for n in range(3, 21)
        ] + [grid_graph(r, c) for r in range(1, 5) for c in range(2, 6)]
        for graph in graphs:
            assert choose_algorithm(uniform_statistics(graph)) == "tdmincutbranch"

    def test_kernel_only_serves_what_dpconv_serves_exactly(self, monkeypatch):
        from repro import clique_graph
        from repro.cost.physical import PhysicalCostModel
        from repro.optimizer.api import DPCONV_BREAK_EVEN_CCPS, choose_algorithm

        pin_dpconv_kernel(monkeypatch, True)
        catalog = uniform_statistics(clique_graph(12))
        assert choose_algorithm(catalog, cost_model=CoutCostModel()) == "dpconv"
        assert (
            choose_algorithm(catalog, cost_model=PhysicalCostModel())
            == "tdmincutbranch"
        )
        assert choose_algorithm(catalog, enable_pruning=True) == "tdmincutbranch"
        limit = max(DPCONV_BREAK_EVEN_CCPS)
        assert choose_algorithm(uniform_statistics(clique_graph(limit))) == "dpconv"
        beyond = uniform_statistics(clique_graph(limit + 1))
        assert choose_algorithm(beyond) == "tdmincutbranch"
        disconnected = uniform_statistics(
            QueryGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        )
        assert choose_algorithm(disconnected) == "tdmincutbranch"

    def test_kernel_sends_what_dpconv_does_not_take_to_topdown(self, monkeypatch):
        # Neither is a dpconv request, so both go to the top-down driver,
        # which honours cooperative budgets (DPccp does not).
        from repro import attach_random_statistics, clique_graph
        from repro.cost.physical import PhysicalCostModel
        from repro.optimizer.api import choose_algorithm

        pin_dpconv_kernel(monkeypatch, True)
        assert choose_algorithm(uniform_statistics(clique_graph(17))) == (
            "tdmincutbranch"
        )
        physical = attach_random_statistics(clique_graph(10), seed=1)
        assert (
            choose_algorithm(physical, cost_model=PhysicalCostModel())
            == "tdmincutbranch"
        )

    def test_auto_dpconv_returns_the_exact_optimum(self, monkeypatch):
        from repro import attach_random_statistics, clique_graph

        pin_dpconv_kernel(monkeypatch, True)
        catalog = attach_random_statistics(clique_graph(9), seed=4)
        auto = optimize_query(catalog, algorithm="auto")
        assert auto.details["kernel"] == "dpconv"
        exact = optimize_query(catalog, algorithm="dpsub")
        assert auto.cost == pytest.approx(exact.cost, rel=1e-12)

    def test_pruning_forces_topdown(self):
        from repro import clique_graph
        from repro.optimizer.api import choose_algorithm

        catalog = uniform_statistics(clique_graph(12))
        assert choose_algorithm(catalog, enable_pruning=True) == "tdmincutbranch"

    def test_auto_with_pruning_end_to_end(self):
        from repro import attach_random_statistics, clique_graph

        catalog = attach_random_statistics(clique_graph(7), seed=2)
        pruned = optimize_query(catalog, algorithm="auto", enable_pruning=True)
        plain = optimize_query(catalog, algorithm="dpsub")
        import math

        assert math.isclose(pruned.cost, plain.cost, rel_tol=1e-9)
