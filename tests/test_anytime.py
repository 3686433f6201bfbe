"""Anytime optimization: cooperative budgets and partial-memo salvage.

The exact engines carry a :class:`~repro.optimizer.budget.Budget` and
stop cleanly when it expires; :func:`repro.plan.salvage.salvage_plan`
then completes the partially-filled memo into a valid plan that never
costs more than pure GOO.  These tests pin the whole contract:

* the :class:`Budget` handle itself (limits, determinism, expiry),
* a property-style sweep asserting every salvaged plan is semantically
  valid, covers each relation exactly once, and respects the GOO floor,
* the service ladder's ``anytime`` rung (selection, caching rules,
  metrics), and
* a deadline storm through the process executor where cooperating
  engines make hard kills the exception.

Determinism: everywhere a test must not depend on machine speed it uses
``node_budget`` (a deterministic expansion cap) instead of wall-clock
deadlines; the storm tests use generous margins and assert *outcomes*
(valid plan, no timeout error), not timings.
"""

import math

import pytest

from repro import (
    OptimizationRequest,
    OptimizerService,
    WorkloadGenerator,
)
from repro.cost.cout import CoutCostModel
from repro.cost.physical import PhysicalCostModel
from repro.errors import OptimizationError
from repro.heuristics.goo import greedy_operator_ordering
from repro.optimizer.api import optimize_request
from repro.optimizer.budget import Budget, BudgetExpired
from repro.plan.validation import validate_plan
from repro.service import ResilienceConfig, render_prometheus


def anytime_result(shape, n, node_budget, seed=1, cost_model=None,
                   algorithm="tdmincutbranch"):
    instance = WorkloadGenerator(seed=seed).fixed_shape(shape, n)
    request = OptimizationRequest(
        query=instance,
        algorithm=algorithm,
        cost_model=cost_model,
        node_budget=node_budget,
    )
    return instance.catalog, optimize_request(request)


# ----------------------------------------------------------------------
# The Budget handle
# ----------------------------------------------------------------------


class TestBudget:
    def test_requires_at_least_one_limit(self):
        with pytest.raises(OptimizationError):
            Budget()

    def test_rejects_nonpositive_limits(self):
        with pytest.raises(OptimizationError):
            Budget(deadline_seconds=0.0)
        with pytest.raises(OptimizationError):
            Budget(node_cap=0)

    def test_node_cap_is_deterministic(self):
        budget = Budget(node_cap=5)
        for _ in range(4):
            budget.charge()
        assert not budget.expired
        with pytest.raises(BudgetExpired):
            budget.charge()
        assert budget.expired
        assert "node cap" in budget.reason

    def test_deadline_uses_injected_clock(self):
        now = [0.0]
        budget = Budget(deadline_seconds=1.0, clock=lambda: now[0])
        budget.check()  # plenty of time left
        now[0] = 2.0
        with pytest.raises(BudgetExpired):
            budget.check()
        assert budget.reason == "deadline reached"

    def test_remaining_seconds(self):
        now = [0.0]
        budget = Budget(deadline_seconds=2.0, clock=lambda: now[0])
        assert budget.remaining_seconds() == pytest.approx(2.0)
        now[0] = 5.0
        assert budget.remaining_seconds() == 0.0
        assert Budget(node_cap=3).remaining_seconds() is None

    def test_expired_is_not_an_optimization_error(self):
        # Generic error handling must not swallow expiry before the
        # engine's salvage path runs.
        assert not issubclass(BudgetExpired, OptimizationError)


# ----------------------------------------------------------------------
# Salvage contract (property-style sweep, deterministic via node caps)
# ----------------------------------------------------------------------

SALVAGE_CASES = [
    (shape, n, cap, seed)
    for shape, n in (("chain", 12), ("cycle", 10), ("star", 10), ("clique", 9))
    for cap in (2, 7, 23)
    for seed in (1, 4)
]


class TestSalvagedPlans:
    @pytest.mark.parametrize("shape,n,cap,seed", SALVAGE_CASES)
    def test_salvaged_plan_is_valid_and_floored_at_goo(
        self, shape, n, cap, seed
    ):
        catalog, result = anytime_result(shape, n, cap, seed=seed)
        assert result.details.get("anytime") == 1, (
            "tiny node cap must interrupt the search"
        )
        plan = result.plan
        # Semantically valid against the catalog: leaves match, no cross
        # products, cardinalities consistent, costs consistent.
        violations = validate_plan(plan, catalog, cost_model=CoutCostModel())
        assert violations == []
        # Covers every relation exactly once.
        assert plan.vertex_set == (1 << n) - 1
        assert plan.n_joins() == n - 1
        # The hard anytime guarantee: never worse than pure GOO.
        report = result.details["salvage"]
        assert plan.cost == report["salvaged_cost"]
        assert report["salvaged_cost"] <= report["goo_cost"]
        assert report["source"] in ("memo", "goo")
        assert 0.0 <= report["memo_solved_fraction"] <= 1.0
        if report["lower_bound"] > 0:
            assert report["optimality_ratio"] >= 1.0 - 1e-9

    def test_asymmetric_cost_model_salvage(self):
        model = PhysicalCostModel()
        catalog, result = anytime_result(
            "cycle", 10, 11, cost_model=model
        )
        assert result.details.get("anytime") == 1
        assert validate_plan(result.plan, catalog, cost_model=model) == []

    def test_salvage_goo_floor_matches_real_goo(self):
        # With a 2-expansion cap the memo holds almost nothing: the
        # salvaged answer is the repriced GOO plan itself.
        catalog, result = anytime_result("chain", 12, 2)
        goo = greedy_operator_ordering(catalog)
        assert result.plan.cost <= goo.cost or math.isclose(
            result.plan.cost, goo.cost
        )

    def test_generous_budget_finishes_exact(self):
        catalog, budgeted = anytime_result("chain", 10, 10_000_000)
        exact = optimize_request(
            OptimizationRequest(query=catalog, algorithm="tdmincutbranch")
        )
        assert "anytime" not in budgeted.details
        assert budgeted.cost == pytest.approx(exact.cost)

    def test_larger_budgets_never_hurt(self):
        # Monotonicity in practice: more budget -> equal or cheaper plan.
        costs = []
        for cap in (3, 30, 300, 10_000_000):
            _, result = anytime_result("cycle", 10, cap, seed=2)
            costs.append(result.cost)
        for tighter, looser in zip(costs, costs[1:]):
            assert looser <= tighter * (1 + 1e-9)

    def test_dpconv_salvages_under_node_cap(self):
        catalog, result = anytime_result(
            "clique", 9, 40, algorithm="dpconv"
        )
        assert result.details.get("anytime") == 1
        assert validate_plan(result.plan, catalog, cost_model=CoutCostModel()) == []
        assert result.plan.vertex_set == (1 << 9) - 1

    def test_unsupported_engine_reports_not_enforced(self):
        instance = WorkloadGenerator(seed=1).fixed_shape("chain", 8)
        result = optimize_request(
            OptimizationRequest(
                query=instance, algorithm="dpccp", node_budget=3
            )
        )
        # Bottom-up engines run to completion; the bound is recorded as
        # requested-but-not-enforced, and the answer stays exact.
        assert result.details.get("budget_unsupported") == 1
        assert "anytime" not in result.details

    def test_budget_fields_round_trip_serialization(self):
        from repro import serialize

        instance = WorkloadGenerator(seed=1).fixed_shape("chain", 6)
        request = OptimizationRequest(
            query=instance, deadline_seconds=0.5, node_budget=99
        )
        again = serialize.request_from_dict(serialize.request_to_dict(request))
        assert again.deadline_seconds == 0.5
        assert again.node_budget == 99


# ----------------------------------------------------------------------
# The service ladder's anytime rung
# ----------------------------------------------------------------------


def over_budget_service(**resilience_kwargs):
    resilience_kwargs.setdefault("max_ccp_budget", 50)
    return OptimizerService(resilience=ResilienceConfig(**resilience_kwargs))


class TestAnytimeRung:
    def test_run_rung_rejects_anytime(self):
        from repro.errors import AdmissionError
        from repro.service.resilience import run_rung

        catalog = WorkloadGenerator(seed=3).fixed_shape("chain", 7).catalog
        with pytest.raises(AdmissionError):
            run_rung("anytime", catalog)

    def test_over_budget_engine_that_finishes_is_fast_exact(self):
        # chain-12 exceeds the admission budget but the engine finishes
        # well inside the generous default deadline: the rung serves the
        # exact optimum and may cache it.
        service = over_budget_service()
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        result = service.optimize(catalog, algorithm="tdmincutbranch")
        assert result.ok
        assert result.details["rung"] == "anytime"
        assert result.details["fast_exact"] == 1
        assert "degraded" not in result.details
        assert len(service.cache) == 1
        again = service.optimize(catalog, algorithm="tdmincutbranch")
        assert again.cache_hit

    def test_over_budget_expiry_serves_salvaged_plan(self):
        # A physical clique-14 cannot finish in 30ms (~150ms on the C
        # kernel, seconds in python); the rung salvages.  Outcome-only
        # assertions (no timing).
        service = over_budget_service()
        instance = WorkloadGenerator(seed=2).fixed_shape("clique", 14)
        request = OptimizationRequest(
            query=instance,
            algorithm="tdmincutbranch",
            cost_model=PhysicalCostModel(),
            deadline_seconds=0.03,
        )
        result = service.optimize(request)
        assert result.ok
        assert result.details["rung"] == "anytime"
        assert result.details["degraded"] == 1
        assert result.details["anytime"] == 1
        assert result.details["degrade_reason"] == "over_budget"
        assert "salvage" in result.details
        assert validate_plan(result.plan, instance.catalog) == []

    def test_salvaged_results_are_never_cached(self):
        service = over_budget_service()
        instance = WorkloadGenerator(seed=2).fixed_shape("clique", 14)
        request = OptimizationRequest(
            query=instance,
            algorithm="tdmincutbranch",
            cost_model=PhysicalCostModel(),
            deadline_seconds=0.03,
        )
        first = service.optimize(request)
        assert first.details["anytime"] == 1
        assert len(service.cache) == 0
        again = service.optimize(request)
        assert not again.cache_hit

    def test_anytime_disabled_restores_heuristic_ladder(self):
        service = over_budget_service(anytime_enabled=False)
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        result = service.optimize(catalog, cost_model=PhysicalCostModel())
        assert result.details["rung"] == "ikkbz"
        assert result.details["degraded"] == 1

    def test_no_resolvable_deadline_skips_the_rung(self):
        service = over_budget_service(anytime_default_deadline_seconds=None)
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        result = service.optimize(catalog, cost_model=PhysicalCostModel())
        assert result.details["rung"] == "ikkbz"

    def test_budget_incapable_engine_skips_the_rung(self):
        service = over_budget_service()
        catalog = WorkloadGenerator(seed=1).fixed_shape("chain", 12).catalog
        result = service.optimize(
            catalog, algorithm="dpccp", cost_model=PhysicalCostModel()
        )
        assert result.details["rung"] == "ikkbz"

    def test_anytime_metrics_and_prometheus(self):
        service = over_budget_service()
        instance = WorkloadGenerator(seed=2).fixed_shape("clique", 14)
        request = OptimizationRequest(
            query=instance,
            algorithm="tdmincutbranch",
            cost_model=PhysicalCostModel(),
            deadline_seconds=0.03,
        )
        service.optimize(request)
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["anytime"] == 1
        assert snapshot["salvage_fraction"]["count"] == 1
        fraction = snapshot["salvage_fraction"]["mean"]
        assert 0.0 <= fraction <= 1.0
        text = render_prometheus(snapshot)
        assert "repro_salvage_fraction" in text
        assert "anytime" in text
        assert "hard_kills_avoided" in text


# ----------------------------------------------------------------------
# Deadline storm through the process executor
# ----------------------------------------------------------------------


class TestDeadlineStorm:
    def test_cooperating_engines_survive_a_storm_without_hard_kills(self):
        # A burst of heavy cliques under a tight per-item deadline, all
        # on a cooperating engine: every item must resolve ok with a
        # valid (salvaged) plan — zero DeadlineExceededError, zero
        # worker kills.  Under the physical model none of them finishes
        # in time on either kernel (clique-15 takes ~0.4s in C).
        service = OptimizerService()
        generator = WorkloadGenerator(seed=9)
        requests = [
            OptimizationRequest(
                query=generator.fixed_shape("clique", n),
                algorithm="tdmincutbranch",
                cost_model=PhysicalCostModel(),
                tag=f"storm-{n}",
            )
            for n in (15, 16, 17)
        ]
        results = service.optimize_batch(
            requests, workers=2, executor="process", deadline_seconds=0.08
        )
        assert [r.tag for r in results] == ["storm-15", "storm-16", "storm-17"]
        for request, result in zip(requests, results):
            assert result.ok, result.error
            assert result.details.get("anytime") == 1
            assert "deadline_timeout" not in result.details
            catalog = request.resolved_catalog()
            assert validate_plan(result.plan, catalog) == []
        totals = service.stats_snapshot()["totals"]
        assert totals["timeouts"] == 0
        assert totals["errors"] == 0
        assert totals["anytime"] == 3
        assert totals["hard_kills_avoided"] == 3

    def test_c_out_storm_cooperates_on_either_kernel(self):
        # The same storm on C_out cliques no kernel finishes in time (the
        # C kernel included: clique-19 has ~5.8e8 ccps).  Where a C
        # kernel loads it serves them and must stop at the deadline from
        # inside a dense set's enumeration.
        from repro.optimizer._native_build import load_c_kernel

        backend = "c" if load_c_kernel(build=True) is not None else "python"
        service = OptimizerService()
        generator = WorkloadGenerator(seed=9)
        requests = [
            OptimizationRequest(
                query=generator.fixed_shape("clique", n),
                algorithm="tdmincutbranch",
                tag=f"storm-{n}",
            )
            for n in (19, 20, 21)
        ]
        results = service.optimize_batch(
            requests, workers=2, executor="process", deadline_seconds=0.08
        )
        for request, result in zip(requests, results):
            assert result.ok, result.error
            assert result.details.get("anytime") == 1
            assert "deadline_timeout" not in result.details
            assert result.details.get("backend") == backend
            assert validate_plan(result.plan, request.resolved_catalog()) == []
        totals = service.stats_snapshot()["totals"]
        assert totals["timeouts"] == 0
        assert totals["errors"] == 0
        assert totals["hard_kills_avoided"] == 3

    def test_storm_results_do_not_poison_the_cache(self):
        # A physical clique-16 takes over a second even in C.
        service = OptimizerService()
        instance = WorkloadGenerator(seed=9).fixed_shape("clique", 16)
        request = OptimizationRequest(
            query=instance,
            algorithm="tdmincutbranch",
            cost_model=PhysicalCostModel(),
            tag="s",
        )
        service.optimize_batch(
            [request], workers=1, executor="process", deadline_seconds=0.08
        )
        assert service.cache.stats()["size"] == 0

    def test_fast_items_in_a_storm_stay_exact_and_cached(self):
        service = OptimizerService()
        generator = WorkloadGenerator(seed=9)
        fast = OptimizationRequest(
            query=generator.fixed_shape("chain", 6),
            algorithm="tdmincutbranch",
            tag="fast",
        )
        # A physical clique-17 takes seconds even in C.
        slow = OptimizationRequest(
            query=generator.fixed_shape("clique", 17),
            algorithm="tdmincutbranch",
            cost_model=PhysicalCostModel(),
            tag="slow",
        )
        results = service.optimize_batch(
            [fast, slow], workers=2, executor="process", deadline_seconds=0.4
        )
        by_tag = {r.tag: r for r in results}
        assert by_tag["fast"].ok and "anytime" not in by_tag["fast"].details
        assert by_tag["slow"].ok and by_tag["slow"].details.get("anytime") == 1
        # Only the exact answer warmed the cache.
        assert service.cache.stats()["size"] == 1
