"""Tests for the branch-and-bound pruning extension (paper Sec. I / V)."""

import math
import sys
import threading

import pytest

from repro import (
    CoutCostModel,
    PhysicalCostModel,
    attach_random_statistics,
    chain_graph,
    clique_graph,
    optimize_query,
    star_graph,
)
from repro.catalog.statistics import Catalog
from repro.catalog.workload import uniform_statistics
from repro.enumeration.mincutbranch import MinCutBranch
from repro.errors import OptimizationError
from repro.graph.shapes import make_shape
from repro.optimizer.budget import Budget
from repro.optimizer.topdown import TopDownPlanGenerator
from repro.plan.validation import validate_plan

from .conftest import random_connected_graph

#: 19 graphs x (uniform statistics + 8 random seeds) = 171 parity cases.
CORPUS_GRAPHS = (
    [("chain", n) for n in (4, 6, 8, 10, 12, 16, 24)]
    + [("cycle", n) for n in (4, 6, 8, 10, 12)]
    + [("star", n) for n in (4, 6, 8, 10)]
    + [("clique", n) for n in (4, 6, 8)]
)
COST_MODELS = [CoutCostModel, PhysicalCostModel]


def joins(plan):
    """Every inner node as (set, left operand, right operand), preorder."""
    rows, stack = [], [plan]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            rows.append(
                (node.vertex_set, node.left.vertex_set, node.right.vertex_set)
            )
            stack += [node.right, node.left]
    return rows


def plain_and_pruned(catalog, cost_model_cls=CoutCostModel):
    """Optimize without and with pruning: two (optimizer, plan) pairs."""
    runs = []
    for pruning in (False, True):
        optimizer = TopDownPlanGenerator(
            catalog, MinCutBranch, cost_model_cls(), enable_pruning=pruning
        )
        runs.append((optimizer, optimizer.optimize()))
    return runs


class TestSoundness:
    def test_pruned_matches_unpruned_cout(self, rng):
        for _ in range(30):
            graph = random_connected_graph(rng, max_vertices=8)
            catalog = attach_random_statistics(graph, rng=rng)
            plain = optimize_query(catalog, algorithm="tdmincutbranch")
            pruned = optimize_query(
                catalog, algorithm="tdmincutbranch", enable_pruning=True
            )
            assert math.isclose(plain.cost, pruned.cost, rel_tol=1e-12)

    def test_pruned_matches_unpruned_physical(self, rng):
        for _ in range(15):
            graph = random_connected_graph(rng, max_vertices=7)
            catalog = attach_random_statistics(graph, rng=rng)
            plain = optimize_query(
                catalog, algorithm="tdmincutbranch", cost_model=PhysicalCostModel()
            )
            pruned = optimize_query(
                catalog,
                algorithm="tdmincutbranch",
                cost_model=PhysicalCostModel(),
                enable_pruning=True,
            )
            assert math.isclose(plain.cost, pruned.cost, rel_tol=1e-12)

    def test_pruned_plan_is_valid(self, rng):
        for _ in range(10):
            graph = random_connected_graph(rng, max_vertices=7)
            catalog = attach_random_statistics(graph, rng=rng)
            result = optimize_query(
                catalog, algorithm="tdmincutbranch", enable_pruning=True
            )
            result.plan.validate()


class TestEffectiveness:
    def test_pruning_skips_work_on_skewed_stats(self):
        # With widely varying cardinalities, many subplans exceed the
        # budget and are cut.
        graph = clique_graph(8)
        catalog = attach_random_statistics(graph, seed=5)
        result = optimize_query(
            catalog, algorithm="tdmincutbranch", enable_pruning=True
        )
        assert result.details["pruned_sets"] > 0

    def test_pruning_reduces_cost_evaluations_sometimes(self, rng):
        reduced = 0
        for seed in range(10):
            graph = star_graph(8)
            catalog = attach_random_statistics(graph, seed=seed)
            plain = optimize_query(catalog, algorithm="tdmincutbranch")
            pruned = optimize_query(
                catalog, algorithm="tdmincutbranch", enable_pruning=True
            )
            if pruned.cost_evaluations < plain.cost_evaluations:
                reduced += 1
        assert reduced > 0

    def test_bottom_up_cannot_prune(self):
        graph = chain_graph(4)
        catalog = attach_random_statistics(graph, seed=0)
        for name in ("dpccp", "dpsub", "dpsize"):
            with pytest.raises(OptimizationError):
                optimize_query(catalog, algorithm=name, enable_pruning=True)

    def test_all_topdown_variants_support_pruning(self, rng):
        graph = random_connected_graph(rng, max_vertices=6)
        catalog = attach_random_statistics(graph, rng=rng)
        reference = optimize_query(catalog, algorithm="tdmincutbranch").cost
        for name in ("tdmincutbranch", "tdmincutlazy", "memoizationbasic"):
            result = optimize_query(
                catalog, algorithm=name, enable_pruning=True
            )
            assert math.isclose(result.cost, reference, rel_tol=1e-12)


class TestGreedySeededBudget:
    def test_upper_bound_seeding_slashes_work_on_cliques(self):
        from repro import attach_random_statistics, clique_graph, make_optimizer

        graph = clique_graph(9)
        catalog = attach_random_statistics(graph, seed=5)
        plain = make_optimizer("tdmincutbranch", catalog)
        plain.optimize()
        pruned = make_optimizer("tdmincutbranch", catalog, enable_pruning=True)
        pruned.optimize()
        # The GOO-seeded budget prunes the overwhelming majority of
        # subproblems on skewed statistics while keeping the optimum
        # (asserted by TestSoundness above).
        assert pruned.builder.cost_evaluations < plain.builder.cost_evaluations / 10
        assert pruned.pruned_sets > 1000

    def test_upper_bound_priced_under_active_model(self):
        from repro import (
            PhysicalCostModel,
            attach_random_statistics,
            clique_graph,
            make_optimizer,
        )

        graph = clique_graph(7)
        catalog = attach_random_statistics(graph, seed=6)
        optimizer = make_optimizer(
            "tdmincutbranch",
            catalog,
            cost_model=PhysicalCostModel(),
            enable_pruning=True,
        )
        plan = optimizer.optimize()
        unpruned = make_optimizer(
            "tdmincutbranch", catalog, cost_model=PhysicalCostModel()
        ).optimize()
        assert math.isclose(plan.cost, unpruned.cost, rel_tol=1e-12)


class TestParityCorpus:
    """Pruning must pick the unpruned kernel's join tree on every case."""

    @pytest.mark.parametrize(
        "cost_model", COST_MODELS, ids=lambda c: c.name
    )
    @pytest.mark.parametrize(
        "shape,n", CORPUS_GRAPHS, ids=[f"{s}-{n}" for s, n in CORPUS_GRAPHS]
    )
    def test_same_tree_as_unpruned(self, shape, n, cost_model):
        graph = make_shape(shape, n)
        catalogs = [uniform_statistics(graph)] + [
            attach_random_statistics(graph, seed=seed) for seed in range(8)
        ]
        for catalog in catalogs:
            (plain_run, plain), (pruned_run, pruned) = plain_and_pruned(
                catalog, cost_model
            )
            assert joins(pruned) == joins(plain)
            assert math.isclose(pruned.cost, plain.cost, rel_tol=1e-12)
            # Each set is enumerated at most once, so pruning never
            # emits more ccps than the plain run (re-enumerating under
            # growing limits did, e.g. on clique-8 seeds 2 and 3).
            assert (
                pruned_run.partitioner.stats.emitted
                <= plain_run.partitioner.stats.emitted
            )

    @pytest.mark.parametrize(
        "cost_model", COST_MODELS, ids=lambda c: c.name
    )
    @pytest.mark.parametrize(
        "shape,n", CORPUS_GRAPHS, ids=[f"{s}-{n}" for s, n in CORPUS_GRAPHS]
    )
    def test_bit_equal_on_power_of_two_statistics(self, shape, n, cost_model):
        # Exact cardinality arithmetic: whichever ccp seeds a set's
        # estimate, the bits agree, so the costs must too.
        catalog = uniform_statistics(
            make_shape(shape, n), cardinality=4.0, selectivity=0.25
        )
        (_, plain), (_, pruned) = plain_and_pruned(catalog, cost_model)
        assert joins(pruned) == joins(plain)
        assert pruned.cost == plain.cost


    def test_lower_bounds_never_reach_pricing(self, monkeypatch):
        # Halved estimates are still admissible lower bounds, so the
        # pruned run must stay exact -- and since they are off by a
        # factor of two, any of them priced as a cardinality would show.
        catalog = uniform_statistics(
            clique_graph(7), cardinality=4.0, selectivity=0.25
        )
        estimate = Catalog.estimate
        monkeypatch.setattr(
            Catalog, "estimate", lambda self, s: 0.5 * estimate(self, s)
        )
        for cost_model in COST_MODELS:
            (_, plain), (_, pruned) = plain_and_pruned(catalog, cost_model)
            assert joins(pruned) == joins(plain)
            assert pruned.cost == plain.cost


class TestLongChains:
    @pytest.mark.parametrize("n", [103, 150])
    def test_pruned_matches_kernel_on_uniform_chain(self, n):
        # The cardinality estimate of chain-103's root overflowed to inf
        # before it was computed edge by edge, and the inf lower bound
        # pruned the root: "no plan was found".  The costs agree to the
        # corpus tolerance: when a set's first ccp is cut, its estimate
        # is seeded from a later ccp, which can round differently.
        (_, plain), (_, pruned) = plain_and_pruned(
            uniform_statistics(chain_graph(n))
        )
        assert joins(pruned) == joins(plain)
        assert math.isclose(pruned.cost, plain.cost, rel_tol=1e-12)

    def test_estimate_stays_finite_past_the_float_range(self):
        catalog = uniform_statistics(chain_graph(103))
        assert math.isfinite(catalog.estimate(catalog.graph.all_vertices))
        plan = TopDownPlanGenerator(catalog, MinCutBranch).optimize()
        assert validate_plan(plan, catalog) == []

    def test_pruned_chain_beyond_recursion_limit(self):
        # Mirrors the kernel's TestDeepChains: branch-and-bound runs on
        # the kernel's explicit stack, so a chain deeper than half the
        # recursion limit completes in a thread with a known-clean stack.
        n = 120
        catalog = uniform_statistics(
            chain_graph(n), cardinality=4.0, selectivity=0.25
        )
        outcome = {}

        def run():
            old = sys.getrecursionlimit()
            sys.setrecursionlimit(2 * n)
            try:
                optimizer = TopDownPlanGenerator(
                    catalog, MinCutBranch, CoutCostModel(), enable_pruning=True
                )
                outcome["joins"] = optimizer.optimize().n_joins()
            except RecursionError:  # pragma: no cover - the regression
                outcome["recursion_error"] = True
            finally:
                sys.setrecursionlimit(old)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert outcome.get("joins") == n - 1


class TestBudgetedPruning:
    """Budgets charge and salvage on the pruned path as on the plain one."""

    @staticmethod
    def assert_explored_are_optimal(pruned, plain):
        # A set proven to exceed its limit is never flushed as explored:
        # every explored entry holds the set's true optimum.
        for entry in pruned.builder.memo.entries():
            if entry.explored:
                exact = plain.builder.memo.lookup(entry.vertex_set).cost
                assert math.isclose(entry.cost, exact, rel_tol=1e-12)
            else:
                assert entry.cost == math.inf

    @pytest.mark.parametrize("cap", [2, 7, 23, 60])
    def test_node_cap_salvage_flushes_only_exact_sets(self, cap):
        catalog = attach_random_statistics(clique_graph(9), seed=5)
        plain = TopDownPlanGenerator(catalog, MinCutBranch)
        plain.optimize()
        pruned = TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            enable_pruning=True,
            budget=Budget(node_cap=cap),
        )
        plan = pruned.optimize()
        assert pruned.budget_expired
        assert validate_plan(plan, catalog, cost_model=CoutCostModel()) == []
        report = pruned.salvage_report
        assert report["salvaged_cost"] <= report["goo_cost"]
        self.assert_explored_are_optimal(pruned, plain)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_over_limit_sets_stay_unexplored(self, seed):
        # Physical pricing leaves over-limit sets with a finite but not
        # optimal best plan: the case a flush must not mistake.
        catalog = attach_random_statistics(clique_graph(6), seed=seed)
        (plain, _), (pruned, _) = plain_and_pruned(catalog, PhysicalCostModel)
        self.assert_explored_are_optimal(pruned, plain)

    def test_generous_budget_finishes_exact(self):
        catalog = attach_random_statistics(clique_graph(9), seed=5)
        pruned = TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            enable_pruning=True,
            budget=Budget(node_cap=10_000_000),
        )
        plain = TopDownPlanGenerator(catalog, MinCutBranch)
        assert joins(pruned.optimize()) == joins(plain.optimize())
        assert not pruned.budget_expired


class TestOutputFloor:
    """The bound scales estimates by the model's guaranteed output floor.

    ``lb(S) = estimate(S)`` assumed a local join cost of at least the
    output cardinality; a physical model with ``output_weight < 1``
    breaks that, and the pruned run cut the optimum and found no plan.
    """

    def test_floors(self):
        assert CoutCostModel().output_floor() == 1.0
        assert PhysicalCostModel().output_floor() == 1.0
        assert PhysicalCostModel(output_weight=0.25).output_floor() == 0.25

    def test_chain_3_with_output_weight_below_one(self):
        catalog = uniform_statistics(
            chain_graph(3), cardinality=100, selectivity=0.5
        )
        model = PhysicalCostModel(output_weight=0.9)
        plain = TopDownPlanGenerator(catalog, MinCutBranch, model).optimize()
        pruned = TopDownPlanGenerator(
            catalog, MinCutBranch, model, enable_pruning=True
        ).optimize()
        assert plain.cost == pruned.cost == 234800.0
        assert joins(pruned) == joins(plain)

    @pytest.mark.parametrize("weight", [0.0, 0.5, 0.9])
    def test_random_graphs_keep_the_optimum(self, rng, weight):
        model = PhysicalCostModel(output_weight=weight)
        for _ in range(25):
            catalog = attach_random_statistics(
                random_connected_graph(rng, rng.randint(3, 9)),
                seed=rng.randrange(1 << 30),
            )
            plain = TopDownPlanGenerator(catalog, MinCutBranch, model).optimize()
            pruned = TopDownPlanGenerator(
                catalog, MinCutBranch, model, enable_pruning=True
            ).optimize()
            assert math.isclose(pruned.cost, plain.cost, rel_tol=1e-12)

    def test_a_custom_model_prunes_on_operand_costs_only(self):
        # A model that declares no floor gets the default 0, which
        # assumes only non-negative local costs: still exact.
        from repro.cost.base import CostModel

        class HalfCout(CostModel):
            name = "half-cout"

            def join_cost(self, left_card, right_card, output_card):
                return 0.5 * output_card, "join"

        catalog = attach_random_statistics(clique_graph(7), seed=1)
        assert HalfCout().output_floor() == 0.0
        plain = TopDownPlanGenerator(catalog, MinCutBranch, HalfCout()).optimize()
        pruned = TopDownPlanGenerator(
            catalog, MinCutBranch, HalfCout(), enable_pruning=True
        ).optimize()
        assert math.isclose(pruned.cost, plain.cost, rel_tol=1e-12)
