"""Chaos and resilience tests: admission, degradation, breaker, retry,
fault injection, and crash-safe cache persistence.

The process-executor tests script real infrastructure faults through
:mod:`repro.service.faults` — worker crashes, hangs, corrupted payloads —
and assert the exact recovery path (retry, deadline, breaker trip)
deterministically.
"""

import json
import os
import time

import pytest

from repro import (
    OptimizationRequest,
    OptimizerService,
    WorkloadGenerator,
    chain_graph,
    clique_graph,
    cycle_graph,
    star_graph,
    uniform_statistics,
)
from repro.analysis.formulas import ccp_count, ccp_estimate
from repro.enumeration.counting import count_ccps
from repro.errors import (
    AdmissionError,
    GraphError,
    OptimizationError,
    ReproError,
)
from repro.graph.query_graph import QueryGraph
from repro.cost.cout import CoutCostModel
from repro.cost.physical import PhysicalCostModel
from repro.service import (
    FaultInjector,
    FaultSpec,
    ResilienceConfig,
    RetryBudget,
    RetryPolicy,
    estimate_ccps,
)
from repro.service.core import service_signature
from repro.service.faults import FAULTS_ENV_VAR
from repro.service.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    LADDER_RUNGS,
    CircuitBreaker,
    heuristic_rung_for,
    run_rung,
)

from .conftest import pin_dpconv_kernel


class FakeClock:
    """Manually advanced monotonic clock for breaker tests."""

    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, cooldown_seconds=30.0)
        for _ in range(2):
            assert breaker.allow("dpccp")
            breaker.record_failure("dpccp")
        assert breaker.state("dpccp") == BREAKER_CLOSED
        assert breaker.allow("dpccp")
        breaker.record_failure("dpccp")
        assert breaker.state("dpccp") == BREAKER_OPEN
        assert not breaker.allow("dpccp")

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("x")
        breaker.record_success("x")
        breaker.record_failure("x")
        assert breaker.state("x") == BREAKER_CLOSED

    def test_labels_are_independent(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record_failure("broken")
        assert breaker.state("broken") == BREAKER_OPEN
        assert breaker.state("healthy") == BREAKER_CLOSED
        assert breaker.allow("healthy")

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=10.0, clock=clock)
        breaker.record_failure("x")
        assert not breaker.allow("x")
        clock.advance(10.0)
        assert breaker.allow("x")  # the probe
        assert breaker.state("x") == BREAKER_HALF_OPEN
        assert not breaker.allow("x")  # only one probe at a time

    def test_probe_success_closes_the_circuit(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=5.0, clock=clock)
        breaker.record_failure("x")
        clock.advance(5.0)
        assert breaker.allow("x")
        breaker.record_success("x")
        assert breaker.state("x") == BREAKER_CLOSED
        assert breaker.allow("x")

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=5.0, clock=clock)
        breaker.record_failure("x")
        clock.advance(5.0)
        assert breaker.allow("x")
        breaker.record_failure("x")
        assert breaker.state("x") == BREAKER_OPEN
        clock.advance(4.9)
        assert not breaker.allow("x")  # new cooldown, not the old one
        clock.advance(0.1)
        assert breaker.allow("x")

    def test_snapshot_is_json_ready(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown_seconds=5.0, clock=clock)
        breaker.record_failure("bad")
        breaker.record_success("good")
        clock.advance(2.0)
        snapshot = breaker.snapshot()
        json.dumps(snapshot)
        assert snapshot["bad"]["state"] == BREAKER_OPEN
        assert snapshot["bad"]["seconds_since_opened"] == pytest.approx(2.0)
        assert snapshot["good"]["state"] == BREAKER_CLOSED
        assert snapshot["good"]["seconds_since_opened"] is None

    def test_validation(self):
        with pytest.raises(OptimizationError):
            CircuitBreaker(threshold=0)
        with pytest.raises(OptimizationError):
            CircuitBreaker(cooldown_seconds=-1)


# ----------------------------------------------------------------------
# Retry policy and budget
# ----------------------------------------------------------------------

class TestRetryPolicy:
    def test_delay_is_deterministic_per_token(self):
        policy = RetryPolicy(max_retries=3, base_delay=0.1, jitter=0.25)
        assert policy.delay(1, "q7") == policy.delay(1, "q7")
        assert policy.delay(1, "q7") != policy.delay(1, "q8")

    def test_exponential_growth_with_cap(self):
        policy = RetryPolicy(
            max_retries=8, base_delay=0.1, max_delay=0.5, jitter=0.0
        )
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(2) == pytest.approx(0.4)
        assert policy.delay(3) == pytest.approx(0.5)  # capped
        assert policy.delay(7) == pytest.approx(0.5)

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.5)
        for attempt in range(4):
            for token in ("a", "b", "c"):
                delay = policy.delay(attempt, token)
                nominal = min(10.0, 0.1 * 2 ** attempt)
                assert nominal * 0.75 <= delay <= nominal * 1.25

    def test_validation(self):
        with pytest.raises(OptimizationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(OptimizationError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(OptimizationError):
            RetryPolicy().delay(-1)

    def test_budget_caps_total_attempts(self):
        budget = RetryBudget(2)
        assert budget.try_acquire()
        assert budget.try_acquire()
        assert not budget.try_acquire()
        assert budget.spent == 2
        assert budget.remaining == 0


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------

class TestAdmissionEstimates:
    def test_fixed_shapes_use_closed_forms_at_any_size(self):
        for shape, graph in [
            ("chain", chain_graph(30)),
            ("star", star_graph(20)),
            ("cycle", cycle_graph(25)),
            ("clique", clique_graph(18)),
        ]:
            estimate = estimate_ccps(graph)
            assert estimate.method == f"closed-form:{shape}"
            assert estimate.ccps == ccp_count(shape, graph.n_vertices)

    def test_small_irregular_graph_is_counted_exactly(self):
        # A 6-vertex tree that is neither a chain nor a star.
        graph = QueryGraph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
        estimate = estimate_ccps(graph, exact_max_n=10)
        assert estimate.method == "exact"
        assert estimate.ccps == count_ccps(graph)

    def test_large_irregular_graph_is_interpolated(self):
        instance = WorkloadGenerator(seed=5).random_acyclic(16)
        graph = instance.graph
        if graph.shape_name() in ("chain", "star"):
            pytest.skip("random tree happened to be a fixed shape")
        estimate = estimate_ccps(graph, exact_max_n=10)
        assert estimate.method == "interpolated"
        assert ccp_count("chain", 16) <= estimate.ccps <= ccp_count("clique", 16)

    def test_interpolated_estimate_is_monotonic_in_density(self):
        n = 14
        tree_edges = n - 1
        max_edges = n * (n - 1) // 2
        previous = 0
        for m in range(tree_edges, max_edges + 1, 13):
            estimate = ccp_estimate(n, m, max_degree=3)
            assert estimate >= previous
            previous = estimate

    def test_ccp_estimate_endpoints_match_closed_forms(self):
        n = 16
        assert ccp_estimate(n, n - 1, max_degree=2) == ccp_count("chain", n)
        assert ccp_estimate(n, n - 1, max_degree=n - 1) == ccp_count("star", n)
        clique_edges = n * (n - 1) // 2
        assert ccp_estimate(n, clique_edges, max_degree=n - 1) == ccp_count(
            "clique", n
        )

    def test_ccp_estimate_rejects_impossible_edge_counts(self):
        with pytest.raises(GraphError):
            ccp_estimate(10, 8)  # below spanning tree
        with pytest.raises(GraphError):
            ccp_estimate(10, 46)  # above complete graph

    def test_ccp_estimate_tree_endpoints_exact_across_sizes(self):
        # Regression: the exp/log interpolation overshot the chain and
        # star endpoints by +1 for many n (e.g. chain n=4: 11 vs 10,
        # star n=10: 2305 vs 2304).  The closed-form endpoints must be
        # returned exactly, for every size.
        for n in (3, 4, 5, 8, 12, 20, 40, 64):
            assert ccp_estimate(n, n - 1, max_degree=2) == ccp_count(
                "chain", n
            ), n
            assert ccp_estimate(n, n - 1, max_degree=n - 1) == ccp_count(
                "star", n
            ), n
            clique_edges = n * (n - 1) // 2
            assert ccp_estimate(
                n, clique_edges, max_degree=n - 1
            ) == ccp_count("clique", n), n

    def test_ccp_estimate_n3_trees_are_chains(self):
        # Any 3-vertex tree is simultaneously a chain and a star; both
        # closed forms agree and the estimate must match them.
        assert ccp_estimate(3, 2, max_degree=2) == ccp_count("chain", 3)
        assert ccp_estimate(3, 2, max_degree=2) == ccp_count("star", 3)

    def test_small_tree_estimates_verified_against_exact_count(self):
        # Star exactness pinned against the real enumerator for n=4, 5.
        for n in (4, 5):
            star = star_graph(n)
            assert ccp_estimate(n, n - 1, max_degree=n - 1) == count_ccps(
                star
            ), n
            chain = chain_graph(n)
            assert ccp_estimate(n, n - 1, max_degree=2) == count_ccps(
                chain
            ), n

    def test_disconnected_graph_is_priced_per_component(self):
        # Regression: estimate_ccps used to raise GraphError ("between
        # n-1 and ... edges") for disconnected inputs.  It now sums the
        # per-component estimates instead of crashing.
        graph = QueryGraph(7, [(0, 1), (1, 2), (3, 4), (5, 6)])
        estimate = estimate_ccps(graph)
        assert estimate.method == "per-component"
        assert estimate.shape == "disconnected"
        # chain-3 + chain-2 + chain-2 components.
        assert estimate.ccps == (
            ccp_count("chain", 3) + ccp_count("chain", 2) + ccp_count("chain", 2)
        )

    def test_isolated_vertices_do_not_crash_admission(self):
        graph = QueryGraph(4, [(0, 1)])
        estimate = estimate_ccps(graph)
        assert estimate.method == "per-component"
        assert estimate.ccps == ccp_count("chain", 2)

    def test_cross_products_price_the_clique(self):
        # Regression: with allow_cross_products=True every vertex pair
        # is joinable, so admission must price the clique search space —
        # not the sparser declared-edge graph.
        graph = chain_graph(9)
        estimate = estimate_ccps(graph, allow_cross_products=True)
        assert estimate.method == "closed-form:clique"
        assert estimate.shape == "cross-products"
        assert estimate.ccps == ccp_count("clique", 9)

    def test_cross_products_price_the_clique_even_when_disconnected(self):
        graph = QueryGraph(6, [(0, 1), (2, 3)])
        estimate = estimate_ccps(graph, allow_cross_products=True)
        assert estimate.method == "closed-form:clique"
        assert estimate.ccps == ccp_count("clique", 6)

    def test_disconnected_cross_product_request_is_served(self):
        # End to end: a disconnected request with cross products enabled
        # passes admission (no GraphError) and produces a valid plan.
        graph = QueryGraph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        catalog = uniform_statistics(graph, cardinality=4.0, selectivity=0.25)
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=100_000)
        )
        result = service.optimize(catalog, allow_cross_products=True)
        assert result.ok
        result.plan.validate()


class TestDegradationLadder:
    def test_rung_choice_by_cyclicity(self):
        assert heuristic_rung_for(chain_graph(8)) == "ikkbz"
        assert heuristic_rung_for(cycle_graph(8)) == "goo"

    def test_run_rung_produces_valid_plans(self):
        catalog = WorkloadGenerator(seed=3).fixed_shape("chain", 7).catalog
        for rung in ("ikkbz", "goo"):
            plan, used = run_rung(rung, catalog)
            assert used == rung
            plan.validate()

    def test_unknown_rung_raises(self):
        catalog = WorkloadGenerator(seed=3).fixed_shape("chain", 5).catalog
        with pytest.raises(AdmissionError):
            run_rung("exact", catalog)

    # The heuristic-rung tests disable the anytime rung, which otherwise
    # intercepts every over-budget request whose engine supports
    # cooperative budgets (covered by tests/test_anytime.py).

    def test_over_budget_acyclic_degrades_to_ikkbz(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=50, anytime_enabled=False)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        result = service.optimize(catalog, cost_model=PhysicalCostModel())
        assert result.ok
        result.plan.validate()
        assert result.details["degraded"] == 1
        assert result.details["rung"] == "ikkbz"
        assert result.details["degrade_reason"] == "over_budget"
        assert result.details["admission_estimate"] == ccp_count("chain", 12)
        assert result.details["admission_budget"] == 50
        assert result.details["admission_method"] == "closed-form:chain"

    def test_over_budget_cyclic_degrades_to_goo(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=10, anytime_enabled=False)
        )
        catalog = WorkloadGenerator(seed=2).fixed_shape("cycle", 9).catalog
        result = service.optimize(catalog, cost_model=PhysicalCostModel())
        assert result.ok
        assert result.details["rung"] == "goo"
        assert result.details["degrade_reason"] == "over_budget"

    def test_degraded_results_are_not_cached(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=10, anytime_enabled=False)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        service.optimize(catalog, cost_model=PhysicalCostModel())
        again = service.optimize(catalog, cost_model=PhysicalCostModel())
        assert len(service.cache) == 0
        assert not again.cache_hit
        assert again.details["degraded"] == 1

    def test_within_budget_runs_exact_and_caches(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=10_000)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 8).catalog
        result = service.optimize(catalog)
        assert "degraded" not in result.details
        assert len(service.cache) == 1

    def test_degraded_counter_in_stats(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=10, anytime_enabled=False)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 10).catalog
        service.optimize(catalog, cost_model=PhysicalCostModel())
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["degraded"] == 1

    def test_open_breaker_degrades_instead_of_failing(self):
        service = OptimizerService(
            resilience=ResilienceConfig(breaker_threshold=2)
        )
        catalog = WorkloadGenerator(seed=4).fixed_shape("chain", 6).catalog
        for _ in range(2):
            service.breaker.record_failure("tdmincutbranch")
        result = service.optimize(catalog, algorithm="tdmincutbranch")
        assert result.ok
        assert result.details["degrade_reason"] == "breaker_open"
        assert result.details["rung"] == "ikkbz"
        assert len(service.cache) == 0

    def test_breaker_recovers_via_half_open_probe(self):
        service = OptimizerService(
            resilience=ResilienceConfig(
                breaker_threshold=1, breaker_cooldown_seconds=0.0
            )
        )
        catalog = WorkloadGenerator(seed=4).fixed_shape("chain", 6).catalog
        service.breaker.record_failure("tdmincutbranch")
        assert service.breaker.state("tdmincutbranch") == BREAKER_OPEN
        # Cooldown elapsed (0s): the next request is the half-open probe;
        # its success closes the circuit and serves the exact optimum.
        result = service.optimize(catalog, algorithm="tdmincutbranch")
        assert "degraded" not in result.details
        assert service.breaker.state("tdmincutbranch") == BREAKER_CLOSED
        assert len(service.cache) == 1


# ----------------------------------------------------------------------
# The retired dpconv rung's traffic
# ----------------------------------------------------------------------

class TestDpconvRung:
    """Over-budget enumerator requests, which a dpconv ladder rung used
    to reroute: they now take the anytime rung (exact, and cached, when
    the engine finishes inside its deadline) or a heuristic rung."""

    def test_ladder_has_no_dpconv_rung(self):
        assert LADDER_RUNGS == ("exact", "anytime", "ikkbz", "goo")

    def test_over_budget_enumerator_is_served_exactly_by_anytime(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=50)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        exact = OptimizerService().optimize(catalog, algorithm="tdmincutbranch")
        result = service.optimize(catalog, algorithm="tdmincutbranch")
        assert result.ok
        result.plan.validate()
        assert result.details["rung"] == "anytime"
        assert result.details["degrade_reason"] == "over_budget"
        assert result.details["fast_exact"] == 1
        assert result.details["kernel"] == "fast"
        assert result.details["backend"] == exact.details["backend"]
        assert "degraded" not in result.details
        assert result.details["admission_estimate"] == ccp_count("chain", 12)
        assert result.details["admission_budget"] == 50

    def test_dpconv_rung_serves_the_exact_optimum(self):
        # The traffic the dpconv rung used to serve still gets the true
        # optimum: the anytime rung runs the requested engine itself.
        catalog = WorkloadGenerator(seed=2).fixed_shape("cycle", 10).catalog
        degraded = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=10)
        ).optimize(catalog, algorithm="tdmincutbranch")
        exact = OptimizerService().optimize(catalog, algorithm="tdmincutbranch")
        assert degraded.details["rung"] == "anytime"
        assert degraded.details["fast_exact"] == 1
        # The same engine on the same statistics: the same optimum.
        assert degraded.cost == exact.cost

    def test_dpconv_rung_results_are_cached(self):
        # Unlike the heuristic rungs, an exact anytime answer returns the
        # true optimum, so its plan may warm the cache — with clean
        # details (no ladder provenance) on the cached entry.
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=50)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        first = service.optimize(catalog, algorithm="tdmincutbranch")
        assert first.details["rung"] == "anytime"
        assert len(service.cache) == 1
        again = service.optimize(catalog, algorithm="tdmincutbranch")
        assert again.cache_hit
        assert again.cost == first.cost
        assert "rung" not in again.details
        assert "fast_exact" not in again.details

    def test_dpconv_admissible_treats_none_as_default_cout(self):
        # A dpconv request without an explicit cost model runs the
        # registry default (C_out, symmetric), so admission sizes it by
        # dpconv_max_n, not by #ccp; an asymmetric model runs the
        # top-down driver and is priced by its ccps.
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=50, anytime_enabled=False)
        )
        catalog = WorkloadGenerator(seed=3).fixed_shape("chain", 8).catalog
        assert ccp_count("chain", 8) > 50
        default = service.optimize(catalog, algorithm="dpconv")
        assert "rung" not in default.details
        assert default.details["kernel"] == "dpconv"
        physical = service.optimize(
            catalog, algorithm="dpconv", cost_model=PhysicalCostModel()
        )
        assert physical.details["rung"] == "ikkbz"
        assert physical.details["admission_estimate"] == ccp_count("chain", 8)

    def test_auto_over_budget_without_the_kernel_gets_a_heuristic(
        self, monkeypatch
    ):
        # Without a C kernel `auto` resolves a dense clique to DPccp,
        # which has no cooperative budget, so the anytime rung is skipped.
        pin_dpconv_kernel(monkeypatch, False)
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=5000)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("clique", 12).catalog
        result = service.optimize(catalog)
        assert result.details["rung"] == "goo"
        assert result.details["degraded"] == 1
        assert result.details["degrade_reason"] == "over_budget"
        assert service.stats_snapshot()["algorithms"].keys() == {"dpccp"}
        assert len(service.cache) == 0

    def test_asymmetric_cost_model_skips_dpconv(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=50, anytime_enabled=False)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        result = service.optimize(catalog, cost_model=PhysicalCostModel())
        assert result.details["rung"] == "ikkbz"
        assert result.details["degraded"] == 1

    def test_pruning_request_skips_dpconv(self):
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=50, anytime_enabled=False)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        result = service.optimize(catalog, enable_pruning=True)
        assert result.details["rung"] == "ikkbz"
        assert result.details["degraded"] == 1

    def test_open_breaker_never_routes_to_dpconv(self):
        service = OptimizerService(
            resilience=ResilienceConfig(breaker_threshold=2)
        )
        catalog = WorkloadGenerator(seed=4).fixed_shape("chain", 6).catalog
        for _ in range(2):
            service.breaker.record_failure("tdmincutbranch")
        result = service.optimize(catalog, algorithm="tdmincutbranch")
        assert result.details["degrade_reason"] == "breaker_open"
        assert result.details["rung"] == "ikkbz"

    def test_fast_exact_counters_in_stats_and_prometheus(self):
        from repro.service import render_prometheus

        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=50)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        service.optimize(catalog, algorithm="tdmincutbranch")
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["fast_exact"] == 1
        assert snapshot["totals"]["kernel_fast"] == 1
        assert snapshot["totals"]["kernel_dpconv"] == 0
        assert snapshot["totals"]["degraded"] == 0
        text = render_prometheus(snapshot)
        assert "fast_exact" in text

    def test_over_budget_beyond_dpconv_cap_falls_to_heuristics(self):
        service = OptimizerService(
            resilience=ResilienceConfig(
                max_ccp_budget=10, dpconv_max_n=8, anytime_enabled=False
            )
        )
        catalog = WorkloadGenerator(seed=2).fixed_shape("cycle", 9).catalog
        result = service.optimize(catalog, algorithm="tdmincutbranch")
        assert result.details["rung"] == "goo"
        assert result.details["degraded"] == 1

    def test_run_rung_rejects_dpconv(self):
        catalog = WorkloadGenerator(seed=3).fixed_shape("chain", 7).catalog
        with pytest.raises(AdmissionError):
            run_rung("dpconv", catalog)


class TestAdmissionPricesEachEngine:
    """The ccp budget prices the enumerators; dpconv answers to its own
    size limit, ``dpconv_max_n``, because its work does not depend on
    #ccp."""

    def test_explicit_dpconv_over_the_ccp_budget_runs_exact(self):
        # clique-12 has 261 625 ccps, far over the budget, but n = 12 is
        # within dpconv_max_n: the request is served exactly, not by the
        # anytime rung, and is cached.
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=5000)
        )
        catalog = WorkloadGenerator(seed=1).fixed_shape("clique", 12).catalog
        result = service.optimize(catalog, algorithm="dpconv")
        assert result.ok
        assert "rung" not in result.details
        assert "degraded" not in result.details
        assert result.details["kernel"] == "dpconv"
        assert len(service.cache) == 1
        assert service.optimize(catalog, algorithm="dpconv").cache_hit

    def test_dpconv_beyond_its_n_limit_goes_down_the_ladder(self):
        service = OptimizerService(
            resilience=ResilienceConfig(
                max_ccp_budget=5000, dpconv_max_n=8, anytime_enabled=False
            )
        )
        catalog = WorkloadGenerator(seed=2).fixed_shape("cycle", 9).catalog
        result = service.optimize(catalog, algorithm="dpconv")
        assert result.details["rung"] == "goo"
        assert result.details["degrade_reason"] == "over_budget"
        assert result.details["admission_method"] == "dpconv-n-limit"
        assert result.details["admission_estimate"] == 9
        assert result.details["admission_budget"] == 8

    @pytest.mark.parametrize(
        "shape, n, config",
        [
            ("chain", 17, ResilienceConfig(max_ccp_budget=5000)),
            ("cycle", 9, ResilienceConfig(max_ccp_budget=5000, dpconv_max_n=8)),
        ],
    )
    def test_dpconv_rejected_by_its_n_limit_never_runs(
        self, monkeypatch, shape, n, config
    ):
        # Regression: the anytime rung used to run the very dpconv that
        # admission had rejected, allocating its O(2^n) arrays before
        # the first budget check.  A rejection goes to a heuristic, and
        # no dpconv engine is even built (not by the budget probe
        # either).
        from repro.optimizer.dpconv import DPconvPlanGenerator

        assert config.anytime_enabled
        built = []
        original = DPconvPlanGenerator.__init__

        def spy(self, *args, **kwargs):
            built.append(n)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DPconvPlanGenerator, "__init__", spy)
        catalog = WorkloadGenerator(seed=2).fixed_shape(shape, n).catalog
        result = OptimizerService(resilience=config).optimize(
            catalog, algorithm="dpconv"
        )
        assert result.details["rung"] == heuristic_rung_for(catalog.graph)
        assert result.details["degraded"] == 1
        assert result.details["admission_method"] == "dpconv-n-limit"
        assert built == []

    def test_asymmetric_dpconv_request_is_priced_by_ccps(self):
        # dpconv with an asymmetric model runs the top-down driver, so
        # the ccp budget applies: chain-6 (35 ccps) is admitted.
        service = OptimizerService(resilience=ResilienceConfig(max_ccp_budget=50))
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 6).catalog
        result = service.optimize(
            catalog, algorithm="dpconv", cost_model=PhysicalCostModel()
        )
        assert "rung" not in result.details
        assert result.details["kernel"] == "fast"

    def test_dpconv_max_n_defaults_to_15(self):
        # 15 is where the convolution's 3^n / 2 splits (~7.2M) still fit
        # well under a request deadline.
        assert ResilienceConfig().dpconv_max_n == 15
        with pytest.raises(OptimizationError):
            ResilienceConfig(dpconv_max_n=-1)

    @pytest.mark.parametrize(
        "config",
        [
            ResilienceConfig(max_ccp_budget=5000),
            ResilienceConfig(max_ccp_budget=50, dpconv_max_n=9),
            ResilienceConfig(max_ccp_budget=50, dpconv_max_n=12),
        ],
    )
    def test_auto_never_picks_a_dpconv_run_admission_rejects(
        self, monkeypatch, config
    ):
        pin_dpconv_kernel(monkeypatch, True)
        picked = 0
        for shape in ("chain", "cycle", "star", "clique"):
            for n in range(3, 19):
                catalog = WorkloadGenerator(seed=n).fixed_shape(shape, n).catalog
                request = OptimizationRequest(query=catalog, algorithm="auto")
                _, effective, _, _ = service_signature(
                    request, catalog, resilience=config
                )
                if effective == "dpconv":
                    picked += 1
                    assert n <= config.dpconv_max_n, (shape, n)
        assert picked

    def test_auto_resolved_dpconv_is_admitted_exact(self, monkeypatch):
        pin_dpconv_kernel(monkeypatch, True)
        service = OptimizerService(
            resilience=ResilienceConfig(max_ccp_budget=5000)
        )
        catalog = WorkloadGenerator(seed=3).fixed_shape("clique", 10).catalog
        result = service.optimize(catalog)
        assert result.ok
        assert "rung" not in result.details
        assert result.details["kernel"] == "dpconv"
        assert "dpconv" in service.stats_snapshot()["algorithms"]


# ----------------------------------------------------------------------
# Fault specs / injector
# ----------------------------------------------------------------------

class TestFaultInjection:
    def test_spec_matching_on_tag_and_attempt(self):
        spec = FaultSpec(kind="crash", tag="q1", times=2)
        assert spec.matches("q1", 0) and spec.matches("q1", 1)
        assert not spec.matches("q1", 2)
        assert not spec.matches("q2", 0)
        always = FaultSpec(kind="hang", times=None)
        assert always.matches("anything", 99)

    def test_injector_first_match_wins_and_is_falsy_when_empty(self):
        injector = FaultInjector(
            [FaultSpec(kind="crash", tag="q1"), FaultSpec(kind="slow")]
        )
        assert injector.fault_for("q1", 0).kind == "crash"
        assert injector.fault_for("q2", 0).kind == "slow"
        assert not FaultInjector()
        assert injector

    def test_parse_and_env_round_trip(self):
        text = json.dumps(
            [{"kind": "crash", "tag": "q1", "times": 2}, {"kind": "hang"}]
        )
        injector = FaultInjector.parse(text)
        assert len(injector) == 2
        # A hang spec without an explicit duration sleeps far past any
        # sane deadline, so the reaper (not the sleep) ends it.
        assert injector.specs[1].seconds == 3600.0
        from_env = FaultInjector.from_env({FAULTS_ENV_VAR: text})
        assert from_env.specs == injector.specs
        assert not FaultInjector.from_env({})

    def test_parse_rejects_garbage(self):
        with pytest.raises(OptimizationError):
            FaultInjector.parse("not json")
        with pytest.raises(OptimizationError):
            FaultInjector.parse('{"kind": "crash"}')  # not a list
        with pytest.raises(OptimizationError):
            FaultSpec(kind="meltdown")
        with pytest.raises(OptimizationError):
            FaultSpec.from_dict({"kind": "crash", "bogus": 1})


# ----------------------------------------------------------------------
# Process-executor chaos
# ----------------------------------------------------------------------

def _requests(count: int, n: int = 5, seed: int = 11):
    generator = WorkloadGenerator(seed=seed)
    return [
        OptimizationRequest(
            query=generator.fixed_shape("chain", n + i),
            algorithm="tdmincutbranch",
            tag=f"q{i}",
        )
        for i in range(count)
    ]


class TestProcessChaos:
    def test_crash_is_retried_and_succeeds(self):
        service = OptimizerService(
            resilience=ResilienceConfig(
                max_retries=2, retry_base_delay=0.01, retry_max_delay=0.05
            ),
            fault_injector=FaultInjector(
                [FaultSpec(kind="crash", tag="q0", times=1)]
            ),
        )
        results = service.optimize_batch(
            _requests(2), workers=2, executor="process"
        )
        assert all(r.ok for r in results), [r.error for r in results]
        totals = service.stats_snapshot()["totals"]
        assert totals["retries"] == 1
        assert totals["errors"] == 0
        # The retried item still succeeded, so the breaker never opened.
        assert service.breaker.state("tdmincutbranch") == BREAKER_CLOSED

    def test_crash_without_retry_is_an_isolated_error(self):
        service = OptimizerService(
            fault_injector=FaultInjector(
                [FaultSpec(kind="crash", tag="q0", times=None)]
            ),
        )
        results = service.optimize_batch(
            _requests(3), workers=2, executor="process"
        )
        assert not results[0].ok
        assert "died unexpectedly" in results[0].error
        assert results[1].ok and results[2].ok

    def test_persistent_crash_exhausts_retries(self):
        service = OptimizerService(
            resilience=ResilienceConfig(
                max_retries=2, retry_base_delay=0.01, retry_max_delay=0.02
            ),
            fault_injector=FaultInjector(
                [FaultSpec(kind="crash", tag="q0", times=None)]
            ),
        )
        results = service.optimize_batch(
            _requests(1), workers=1, executor="process"
        )
        assert not results[0].ok
        assert "RetryExhaustedError" in results[0].error
        assert service.stats_snapshot()["totals"]["retries"] == 2

    def test_corrupted_payload_is_isolated_to_its_item(self):
        service = OptimizerService(
            fault_injector=FaultInjector(
                [FaultSpec(kind="corrupt", tag="q1", times=None)]
            ),
        )
        results = service.optimize_batch(
            _requests(3), workers=2, executor="process"
        )
        assert results[0].ok and results[2].ok
        assert not results[1].ok
        assert "corrupted" in results[1].error
        for result in (results[0], results[2]):
            result.plan.validate()

    def test_hang_trips_deadline_then_breaker_then_degrades(self):
        service = OptimizerService(
            resilience=ResilienceConfig(
                breaker_threshold=2, breaker_cooldown_seconds=60.0
            ),
            fault_injector=FaultInjector([FaultSpec(kind="hang", times=None)]),
        )
        results = service.optimize_batch(
            _requests(2),
            workers=2,
            executor="process",
            deadline_seconds=0.5,
        )
        assert all(not r.ok for r in results)
        assert all("deadline" in r.error.lower() for r in results)
        totals = service.stats_snapshot()["totals"]
        assert totals["timeouts"] == 2
        # Two consecutive timeouts on the same label open the breaker ...
        assert service.breaker.state("tdmincutbranch") == BREAKER_OPEN
        # ... and the next request is served from the ladder, not enumerated
        # (and not dispatched to a worker, so the injected hang is moot).
        catalog = WorkloadGenerator(seed=9).fixed_shape("chain", 6).catalog
        degraded = service.optimize(catalog, algorithm="tdmincutbranch")
        assert degraded.ok
        assert degraded.details["degrade_reason"] == "breaker_open"

    def test_slow_fault_delays_but_succeeds(self):
        service = OptimizerService(
            fault_injector=FaultInjector(
                [FaultSpec(kind="slow", tag="q0", seconds=0.2, times=1)]
            ),
        )
        started = time.perf_counter()
        results = service.optimize_batch(
            _requests(1), workers=1, executor="process"
        )
        elapsed = time.perf_counter() - started
        assert results[0].ok
        assert elapsed >= 0.2


# ----------------------------------------------------------------------
# Crash-safe cache persistence
# ----------------------------------------------------------------------

class TestCrashSafePersistence:
    def _warm_service(self, count=3):
        service = OptimizerService()
        generator = WorkloadGenerator(seed=7)
        for i in range(count):
            service.optimize(generator.fixed_shape("chain", 5 + i).catalog)
        return service

    def test_save_is_atomic_and_stamps_checksums(self, tmp_path):
        service = self._warm_service()
        path = tmp_path / "cache.json"
        saved = service.save_cache(str(path))
        assert saved == 3
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        document = json.loads(path.read_text())
        assert all("checksum" in item for item in document["entries"])

    def test_round_trip_after_save(self, tmp_path):
        service = self._warm_service()
        path = tmp_path / "cache.json"
        service.save_cache(str(path))
        fresh = OptimizerService()
        assert fresh.load_cache(str(path)) == 3
        catalog = WorkloadGenerator(seed=7).fixed_shape("chain", 5).catalog
        assert fresh.optimize(catalog).cache_hit

    def test_truncated_file_loads_as_empty_with_warning(self, tmp_path):
        service = self._warm_service()
        path = tmp_path / "cache.json"
        service.save_cache(str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write
        fresh = OptimizerService()
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert fresh.load_cache(str(path)) == 0
        assert len(fresh.cache) == 0

    def test_garbage_file_loads_as_empty_with_warning(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_bytes(b"\x00\xffnot json at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert OptimizerService().load_cache(str(path)) == 0

    def test_wrong_document_kind_warns(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps({"kind": "something_else"}))
        with pytest.warns(RuntimeWarning, match="not a plan cache"):
            assert OptimizerService().load_cache(str(path)) == 0

    def test_missing_file_still_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            OptimizerService().load_cache(str(tmp_path / "nope.json"))

    def test_corrupt_entry_is_quarantined_others_load(self, tmp_path):
        service = self._warm_service()
        path = tmp_path / "cache.json"
        service.save_cache(str(path))
        document = json.loads(path.read_text())
        document["entries"][1]["algorithm"] = "tampered"  # breaks checksum
        path.write_text(json.dumps(document))
        fresh = OptimizerService()
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert fresh.load_cache(str(path)) == 2
        assert len(fresh.cache) == 2
        quarantine = json.loads((tmp_path / "cache.json.quarantine").read_text())
        assert quarantine["kind"] == "plan_cache_quarantine"
        assert len(quarantine["rejected"]) == 1
        assert "checksum" in quarantine["rejected"][0]["error"]

    def test_legacy_entries_without_checksums_load(self, tmp_path):
        service = self._warm_service()
        path = tmp_path / "cache.json"
        service.save_cache(str(path))
        document = json.loads(path.read_text())
        for item in document["entries"]:
            item.pop("checksum")
        path.write_text(json.dumps(document))
        assert OptimizerService().load_cache(str(path)) == 3


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------

class TestResilienceConfig:
    def test_defaults_disable_budget_and_retry(self):
        cfg = ResilienceConfig()
        assert cfg.max_ccp_budget is None
        assert cfg.max_retries == 0
        assert cfg.retry_policy() is None

    def test_retry_policy_reflects_knobs(self):
        cfg = ResilienceConfig(
            max_retries=3, retry_base_delay=0.2, retry_max_delay=1.0,
            retry_jitter=0.0,
        )
        policy = cfg.retry_policy()
        assert policy.max_retries == 3
        assert policy.delay(0) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(OptimizationError):
            ResilienceConfig(max_ccp_budget=0)
        with pytest.raises(OptimizationError):
            ResilienceConfig(breaker_threshold=0)
        with pytest.raises(OptimizationError):
            ResilienceConfig(max_retries=-1)

    def test_service_env_fault_injector_default_is_empty(self):
        assert os.environ.get(FAULTS_ENV_VAR) is None
        assert not OptimizerService().fault_injector
