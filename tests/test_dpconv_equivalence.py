"""DPconv fast-exact tier vs the top-down enumerators: cost equivalence.

:class:`~repro.optimizer.dpconv.DPconvPlanGenerator` promises the exact
optimal *cost* for symmetric cost models — bit-identical wherever the
cardinality arithmetic itself is exact (power-of-two statistics keep
every float product representable and association-invariant), and
1e-9-close on arbitrary statistics where the two engines may associate
sums differently.  Counter accounting (``cost_evaluations`` = one per
ccp, ``cardinality_estimations`` = one per connected non-singleton set,
memo size = number of connected subsets) must match the symmetric
top-down run exactly.  Tie-breaks may legitimately differ — dpconv scans
splits in descending-submask order, not partitioner emission order — so
plan *shape* is never compared against the top-down engine, only cost,
and every plan must validate.

Between dpconv's own backends the bar is higher: the compiled C rung
must return the same plan *tree* (``plan_to_dict``) and a bit-equal
cost as the pure loop on any statistics, so hosts with and without a C
toolchain cache the same plan under one signature.
"""

import math
import random

import pytest

from repro.catalog.workload import attach_random_statistics, uniform_statistics
from repro.cost.cout import CoutCostModel
from repro.cost.physical import PhysicalCostModel
from repro.enumeration.mincutbranch import MinCutBranch
from repro.errors import DisconnectedGraphError, OptimizationError
from repro.graph.query_graph import QueryGraph
from repro.graph.random import random_acyclic_graph, random_cyclic_graph
from repro.graph.shapes import (
    chain_graph,
    clique_graph,
    cycle_graph,
    grid_graph,
    star_graph,
)
from repro.optimizer.api import OptimizationRequest, optimize_request
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.topdown import TopDownPlanGenerator
from repro.serialize import plan_to_dict

SHAPES = [
    ("chain-9", chain_graph(9)),
    ("star-8", star_graph(8)),
    ("cycle-8", cycle_graph(8)),
    ("clique-7", clique_graph(7)),
    ("grid-3x3", grid_graph(3, 3)),
    ("random-acyclic-10", random_acyclic_graph(10, seed=7)),
    ("random-cyclic-10", random_cyclic_graph(10, 14, seed=9)),
]


def _available_backends():
    """Backends this host can run: pure python always, the C rung when
    it compiles.  The same corpus gates both, so a host with a C
    toolchain proves the whole ladder."""
    backends = ["off"]
    from repro.optimizer._native_build import load_c_kernel

    if load_c_kernel(build=True) is not None:
        backends.append("c")
    return backends


BACKENDS = _available_backends()

#: The backend label each request is expected to report back.
EXPECTED_LABEL = {"off": "python", "c": "c"}

#: Native rungs that must reproduce the pure loop's plan tree.
NATIVE_BACKENDS = [backend for backend in BACKENDS if backend != "off"]


class SymmetricModel(CoutCostModel):
    """C_out priced through the generic symmetric code path.

    ``DPconvPlanGenerator`` special-cases ``type(model) is CoutCostModel``
    into a hot loop that hoists the split-independent local term; any
    subclass falls through to the per-split ``join_cost`` loop.  Same
    numbers, different code path — so comparing the two proves the
    generic loop against both the hot loop and the reference driver.
    """

    name = "sym-cout"


def exact_catalog(graph):
    """Power-of-two statistics: every cardinality product is exact."""
    return uniform_statistics(graph, cardinality=4.0, selectivity=0.25)


def run_pair(catalog, cost_model_cls=CoutCostModel, backend="off"):
    """Optimize with the top-down kernel and with dpconv; return both."""
    reference = TopDownPlanGenerator(catalog, MinCutBranch, cost_model_cls())
    conv = DPconvPlanGenerator(
        catalog, cost_model=cost_model_cls(), native_backend=backend
    )
    return reference, reference.optimize(), conv, conv.optimize()


def assert_cost_identical(reference, ref_plan, conv, conv_plan):
    """Bit-identical cost, matching counters, same memo coverage."""
    assert conv.last_kernel == "dpconv"
    assert conv_plan.cost == ref_plan.cost
    assert conv_plan.cardinality == ref_plan.cardinality
    conv_plan.validate()
    ref_plan.validate()
    assert (
        conv.builder.cost_evaluations == reference.builder.cost_evaluations
    )
    assert (
        conv.builder.estimator.estimations
        == reference.builder.estimator.estimations
    )
    ref_memo = reference.builder.memo
    conv_memo = conv.builder.memo
    assert len(conv_memo) == len(ref_memo)
    for entry in ref_memo.entries():
        other = conv_memo.lookup(entry.vertex_set)
        assert other is not None
        assert other.cardinality == entry.cardinality
        assert other.cost == entry.cost


class TestShapeEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
    def test_bit_identical_cost_on_exact_statistics(self, shape, backend):
        graph = dict(SHAPES)[shape]
        pair = run_pair(exact_catalog(graph), backend=backend)
        assert pair[2].last_backend == EXPECTED_LABEL[backend]
        assert_cost_identical(*pair)

    @pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
    def test_generic_symmetric_path_matches_too(self, shape):
        graph = dict(SHAPES)[shape]
        pair = run_pair(exact_catalog(graph), SymmetricModel)
        # Generic symmetric subclasses must stay on the pure engine:
        # the native rungs hard-code the C_out pricing.
        assert pair[2].last_backend == "python"
        assert_cost_identical(*pair)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_two_relation_join(self, backend):
        assert_cost_identical(
            *run_pair(exact_catalog(chain_graph(2)), backend=backend)
        )

    def test_single_relation_is_a_leaf(self):
        catalog = exact_catalog(chain_graph(1))
        conv = DPconvPlanGenerator(catalog)
        plan = conv.optimize()
        assert plan.n_joins() == 0
        assert conv.last_kernel == "dpconv"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_random_graphs_exact_statistics(self, backend):
        rng = random.Random(0xD9C0)
        for _ in range(12):
            n = rng.randint(2, 9)
            if n < 3 or rng.random() < 0.5:
                graph = random_acyclic_graph(n, rng=rng)
            else:
                m = rng.randint(n, n * (n - 1) // 2)
                graph = random_cyclic_graph(n, m, rng=rng)
            assert_cost_identical(
                *run_pair(exact_catalog(graph), backend=backend)
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_arbitrary_statistics_agree_to_1e9(self, backend):
        # Arbitrary floats lose association invariance, so dpconv and
        # the top-down kernel may differ in the last ulps; optimality
        # itself is unaffected.  (The C rung mirrors the pure loop's
        # operation order exactly and stays bit-identical to it even
        # here — TestRungPlanIdentity pins that.)
        rng = random.Random(0xA11)
        for _ in range(10):
            n = rng.randint(3, 9)
            graph = random_acyclic_graph(n, rng=rng)
            catalog = uniform_statistics(
                graph,
                cardinality=rng.uniform(10.0, 5000.0),
                selectivity=rng.uniform(0.001, 0.9),
            )
            reference, ref_plan, conv, conv_plan = run_pair(
                catalog, backend=backend
            )
            assert math.isclose(
                conv_plan.cost, ref_plan.cost, rel_tol=1e-9
            )
            assert (
                conv.builder.cost_evaluations
                == reference.builder.cost_evaluations
            )


def assert_same_plan_as_pure(catalog, backend):
    """The native rung returns the pure loop's plan tree, bit for bit."""
    pure = DPconvPlanGenerator(catalog, native_backend="off")
    pure_plan = pure.optimize()
    conv = DPconvPlanGenerator(catalog, native_backend=backend)
    plan = conv.optimize()
    assert pure.last_backend == "python"
    assert conv.last_backend == EXPECTED_LABEL[backend]
    assert plan.cost == pure_plan.cost
    assert plan_to_dict(plan) == plan_to_dict(pure_plan)


class TestRungPlanIdentity:
    """Native rungs pick the same plan tree as the pure loop, ties included.

    Power-of-two statistics make every split of a set tie on cost, so
    the corpus exercises the tie-break order; Gaussian statistics make
    every float product inexact, so they exercise the operation order.
    """

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    @pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
    def test_same_tree_on_exact_statistics(self, shape, backend):
        graph = dict(SHAPES)[shape]
        assert_same_plan_as_pure(exact_catalog(graph), backend)

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    @pytest.mark.parametrize("seed", range(35))
    def test_same_tree_on_random_statistics(self, seed, backend):
        _, graph = SHAPES[seed % len(SHAPES)]
        catalog = attach_random_statistics(graph, seed=seed)
        assert_same_plan_as_pure(catalog, backend)


class TestRestrictions:
    def test_asymmetric_model_raises_at_construction(self):
        catalog = exact_catalog(chain_graph(5))
        with pytest.raises(OptimizationError):
            DPconvPlanGenerator(catalog, cost_model=PhysicalCostModel())

    def test_pruning_request_raises_at_construction(self):
        catalog = exact_catalog(chain_graph(5))
        with pytest.raises(OptimizationError):
            DPconvPlanGenerator(catalog, enable_pruning=True)

    def test_disconnected_graph_raises_typed_error(self):
        graph = QueryGraph(4, [(0, 1), (2, 3)])
        catalog = exact_catalog(graph)
        with pytest.raises(DisconnectedGraphError):
            DPconvPlanGenerator(catalog).optimize()


class TestRegistryRouting:
    def test_symmetric_request_runs_native_dpconv(self):
        request = OptimizationRequest(
            query=exact_catalog(cycle_graph(7)), algorithm="dpconv"
        )
        result = optimize_request(request)
        assert result.details["kernel"] == "dpconv"
        baseline = optimize_request(
            OptimizationRequest(query=exact_catalog(cycle_graph(7)))
        )
        assert result.cost == baseline.cost

    def test_asymmetric_request_falls_back_to_topdown(self):
        request = OptimizationRequest(
            query=exact_catalog(cycle_graph(7)),
            algorithm="dpconv",
            cost_model=PhysicalCostModel(),
        )
        result = optimize_request(request)
        assert result.ok
        assert result.details["kernel"] == "fast"
        baseline = optimize_request(
            OptimizationRequest(
                query=exact_catalog(cycle_graph(7)),
                cost_model=PhysicalCostModel(),
            )
        )
        assert result.cost == baseline.cost

    def test_pruning_request_falls_back_to_topdown(self):
        request = OptimizationRequest(
            query=exact_catalog(chain_graph(8)),
            algorithm="dpconv",
            enable_pruning=True,
        )
        result = optimize_request(request)
        assert result.ok
        baseline = optimize_request(
            OptimizationRequest(query=exact_catalog(chain_graph(8)))
        )
        assert result.cost == baseline.cost
