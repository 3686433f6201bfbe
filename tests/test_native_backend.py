"""Native backend selection, labels, status, metrics, and degradation.

The bit-exactness of the C rung is gated by the equivalence corpora
(``test_dpconv_equivalence``, ``test_kernel_equivalence``); this module
covers the plumbing around it:

* the selection ladder (constructor requests, the exact-type cost
  model restriction, the ``C_MAX_N`` ceiling),
* the ``backend`` label's journey — optimizer attribute, result
  details, service metrics counters, stats snapshot,
* the operator-facing ``native_backend_status()`` document,
* silent degradation: ``off`` must behave exactly like a host without
  a compiler,
* cooperative budgets expiring inside the C rung still salvage.
"""

import math

import pytest

from repro.catalog.workload import uniform_statistics
from repro.cost.cout import CoutCostModel
from repro.cost.physical import HashJoin, PhysicalCostModel, SortMergeJoin
from repro.enumeration.mincutbranch import MinCutBranch
from repro.errors import OptimizationError
from repro.graph.shapes import chain_graph, clique_graph, cycle_graph
from repro.optimizer import native
from repro.optimizer._native_build import load_c_kernel
from repro.optimizer.api import OptimizationRequest, optimize_request
from repro.optimizer.budget import Budget
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.native import native_backend_status, resolve_backend
from repro.optimizer.topdown import TopDownPlanGenerator
from repro.serialize import plan_to_dict

HAVE_C = load_c_kernel(build=True) is not None

needs_c = pytest.mark.skipif(not HAVE_C, reason="no C kernel on this host")


@pytest.fixture
def no_c_kernel(monkeypatch):
    """Simulate a host where no C kernel loads or builds."""
    monkeypatch.setattr(
        "repro.optimizer._native_build.load_c_kernel",
        lambda build=False: None,
    )


def exact_catalog(graph):
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


class SymmetricSubclass(CoutCostModel):
    """Symmetric but not *the* CoutCostModel: must stay on pure python."""

    name = "sym-sub"


class TestResolveBackend:
    def test_backends_are_one_native_rung(self):
        assert native.BACKENDS == ("auto", "c", "off")

    def test_off_resolves_to_none(self):
        assert resolve_backend(CoutCostModel(), requested="off") is None

    def test_explicit_invalid_request_raises(self):
        with pytest.raises(OptimizationError):
            resolve_backend(CoutCostModel(), requested="turbo")

    def test_generic_symmetric_subclass_stays_pure(self):
        assert resolve_backend(SymmetricSubclass()) is None
        assert resolve_backend(SymmetricSubclass(), requested="c") is None

    @needs_c
    def test_auto_resolves_c_with_a_loaded_kernel(self):
        assert resolve_backend(None) == "c"
        assert resolve_backend(CoutCostModel(), n=native.C_MAX_N) == "c"

    @needs_c
    def test_topdown_also_prices_the_plain_physical_model(self):
        model = PhysicalCostModel([SortMergeJoin(), HashJoin(build_factor=0.5)], 0.0)
        assert resolve_backend(model, engine="topdown") == "c"
        # dpconv stays C_out-only, so ``auto`` chooses as before.
        assert resolve_backend(model) is None
        subclass = type("Sub", (PhysicalCostModel,), {})()
        assert resolve_backend(subclass, engine="topdown") is None

    @needs_c
    def test_c_respects_size_ceiling(self):
        assert (
            resolve_backend(
                CoutCostModel(), requested="c", n=native.C_MAX_N + 1
            )
            is None
        )

    def test_constructor_rejects_invalid_backend(self):
        # "numpy" names a deleted rung: it must fail loudly at
        # construction rather than silently run something else.
        for backend in ("turbo", "numpy"):
            with pytest.raises(OptimizationError):
                DPconvPlanGenerator(
                    exact_catalog(chain_graph(4)), native_backend=backend
                )


class TestBackendStatus:
    def test_document_shape(self):
        status = native_backend_status()
        assert set(status) == {
            "numpy", "cffi", "compiler", "c_kernel", "resolved", "max_n"
        }
        assert set(status["numpy"]) == {"available", "version"}
        assert set(status["cffi"]) == {"available", "version"}
        assert set(status["compiler"]) == {"available", "cc"}
        assert set(status["c_kernel"]) == {"built", "path", "tag"}
        assert status["resolved"] in ("python", "c")
        assert status["max_n"] == {
            "dpconv": native.C_MAX_N, "topdown": native.TOPDOWN_MAX_N
        }

    def test_off_resolves_python(self, no_c_kernel):
        assert native_backend_status()["resolved"] == "python"


class TestBackendLabels:
    def test_off_runs_python_backend(self):
        conv = DPconvPlanGenerator(
            exact_catalog(cycle_graph(7)), native_backend="off"
        )
        conv.optimize()
        assert conv.last_kernel == "dpconv"
        assert conv.last_backend == "python"

    @needs_c
    def test_c_label(self):
        conv = DPconvPlanGenerator(
            exact_catalog(cycle_graph(7)), native_backend="c"
        )
        conv.optimize()
        assert conv.last_backend == "c"

    def test_details_carry_backend(self, no_c_kernel):
        result = optimize_request(
            OptimizationRequest(
                query=exact_catalog(cycle_graph(7)), algorithm="dpconv"
            )
        )
        assert result.details["kernel"] == "dpconv"
        assert result.details["backend"] == "python"

    @needs_c
    def test_details_carry_native_backend(self):
        result = optimize_request(
            OptimizationRequest(
                query=exact_catalog(cycle_graph(7)), algorithm="dpconv"
            )
        )
        assert result.details["backend"] == "c"

    def test_topdown_reports_its_backend(self):
        # The C top-down kernel serves plain C_out MinCutBranch runs
        # wherever a kernel loads.
        request = OptimizationRequest(
            query=exact_catalog(cycle_graph(7)), algorithm="tdmincutbranch"
        )
        expected = "c" if HAVE_C else "python"
        assert optimize_request(request).details["backend"] == expected

    def test_topdown_without_a_kernel_reports_python(self, no_c_kernel):
        result = optimize_request(
            OptimizationRequest(
                query=exact_catalog(cycle_graph(7)), algorithm="tdmincutbranch"
            )
        )
        assert result.details["backend"] == "python"

    def test_topdown_off_reports_python(self):
        optimizer = TopDownPlanGenerator(
            exact_catalog(cycle_graph(7)), MinCutBranch, native_backend="off"
        )
        optimizer.optimize()
        assert optimizer.last_kernel == "fast"
        assert optimizer.last_backend == "python"


class TestServiceWiring:
    @needs_c
    def test_metrics_count_native_backends(self):
        from repro.service import OptimizerService

        service = OptimizerService()
        request = OptimizationRequest(
            query=exact_catalog(cycle_graph(7)), algorithm="dpconv"
        )
        service.optimize(request)
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["kernel_native_c"] == 1
        assert snapshot["totals"]["kernel_dpconv"] == 1
        native_counters = [
            key for key in snapshot["totals"] if key.startswith("kernel_native")
        ]
        assert native_counters == ["kernel_native_c"]
        # Cache hits do not re-count the backend.
        service.optimize(request)
        snapshot = service.stats_snapshot()
        assert snapshot["totals"]["kernel_native_c"] == 1

    def test_stats_snapshot_embeds_backend_status(self):
        from repro.service import OptimizerService

        snapshot = OptimizerService().stats_snapshot()
        assert "backends" in snapshot
        assert snapshot["backends"]["resolved"] in ("python", "c")

    def test_prometheus_exports_native_counters(self):
        from repro.service import OptimizerService, render_prometheus

        text = render_prometheus(OptimizerService().stats_snapshot())
        assert "repro_kernel_native_c_total" in text
        assert "numpy" not in text


class TestBudgetInteraction:
    @needs_c
    def test_c_budget_expiry_salvages(self):
        catalog = exact_catalog(clique_graph(12))
        conv = DPconvPlanGenerator(
            catalog,
            native_backend="c",
            budget=Budget(node_cap=500),
        )
        plan = conv.optimize()
        assert conv.budget_expired
        assert conv.salvage_report is not None
        assert math.isfinite(plan.cost)
        plan.validate()

    @needs_c
    def test_generous_budget_still_exact(self):
        catalog = exact_catalog(clique_graph(9))
        exact = DPconvPlanGenerator(catalog, native_backend="off").optimize()
        conv = DPconvPlanGenerator(
            catalog,
            native_backend="c",
            budget=Budget(node_cap=10_000_000),
        )
        plan = conv.optimize()
        assert not conv.budget_expired
        assert conv.last_backend == "c"
        assert plan.cost == exact.cost


class TestSilentDegradation:
    def test_missing_c_kernel_falls_back(self, no_c_kernel):
        # Even an explicit "c" request must run the pure loop, label it
        # honestly, and not raise.
        catalog = exact_catalog(cycle_graph(7))
        conv = DPconvPlanGenerator(catalog, native_backend="c")
        plan = conv.optimize()
        assert conv.last_backend == "python"
        baseline = DPconvPlanGenerator(catalog, native_backend="off")
        assert plan.cost == baseline.optimize().cost

    def test_off_matches_auto_results(self):
        # The acceptance bar: whatever auto picks must be output-
        # indistinguishable from the pure path.
        catalog = exact_catalog(cycle_graph(8))
        off_engine = DPconvPlanGenerator(catalog, native_backend="off")
        off_plan = off_engine.optimize()
        auto_engine = DPconvPlanGenerator(catalog)
        auto_plan = auto_engine.optimize()
        assert off_engine.last_backend == "python"
        assert plan_to_dict(off_plan) == plan_to_dict(auto_plan)
        assert off_plan.cost == auto_plan.cost
        assert (
            off_engine.builder.cost_evaluations
            == auto_engine.builder.cost_evaluations
        )
        assert len(off_engine.builder.memo) == len(auto_engine.builder.memo)
