"""Fast kernel vs reference recursion: exact equivalence.

The fast enumeration kernel (:mod:`repro.optimizer.kernel`) promises
*bit-identical* results to the paper-faithful recursive TDPGSUB
(:func:`~repro.optimizer.topdown.tdpgsub_reference`) — not just the same
optimal cost, but the same best splits, tie-breaks, counter totals, and
memo contents.  These tests enforce that promise over every canonical
shape, seeded random graphs, both cost-model families, and all three
partitioning strategies; plus the driver-level behaviors that only the
kernel provides (no RecursionError on deep chains) and the ``last_kernel``
label.

The same shape corpus also anchors the native dpconv rung (compiled C)
to the reference driver whenever this host can run it — see
:class:`TestNativeRungEquivalence`.
"""

import random
import sys
import threading

import pytest

from repro.catalog.workload import uniform_statistics
from repro.cost.cout import CoutCostModel
from repro.cost.physical import PhysicalCostModel
from repro.enumeration.mincutbranch import MinCutBranch
from repro.enumeration.mincutlazy import MinCutLazy
from repro.enumeration.naive import NaivePartitioning
from repro.graph.random import random_acyclic_graph, random_cyclic_graph
from repro.graph.shapes import (
    chain_graph,
    clique_graph,
    cycle_graph,
    grid_graph,
    star_graph,
)
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.topdown import TopDownPlanGenerator, tdpgsub_reference

SHAPES = [
    ("chain-9", chain_graph(9)),
    ("star-8", star_graph(8)),
    ("cycle-8", cycle_graph(8)),
    ("clique-7", clique_graph(7)),
    ("grid-3x3", grid_graph(3, 3)),
    ("random-acyclic-10", random_acyclic_graph(10, seed=7)),
    ("random-cyclic-10", random_cyclic_graph(10, 14, seed=9)),
]


def _native_backends():
    """Native dpconv rungs this host can run (possibly empty)."""
    from repro.optimizer._native_build import load_c_kernel

    return ["c"] if load_c_kernel(build=True) is not None else []


NATIVE_BACKENDS = _native_backends()

COST_MODELS = [CoutCostModel, PhysicalCostModel]
PARTITIONERS = [MinCutBranch, MinCutLazy, NaivePartitioning]


def run_pair(catalog, partitioner, cost_model_cls):
    """Optimize with the reference recursion and the kernel; return both."""
    reference = TopDownPlanGenerator(catalog, partitioner, cost_model_cls())
    root = catalog.graph.all_vertices
    tdpgsub_reference(reference, root)
    ref_plan = reference.builder.memo.extract_plan(root)
    fast = TopDownPlanGenerator(catalog, partitioner, cost_model_cls())
    return reference, ref_plan, fast, fast.optimize()


def assert_identical(reference, ref_plan, fast, fast_plan):
    """Assert the two runs are indistinguishable, memo entry by entry."""
    assert fast.last_kernel == "fast"
    assert ref_plan == fast_plan  # JoinTree is a frozen dataclass: deep eq
    assert (
        reference.partitioner.stats.emitted == fast.partitioner.stats.emitted
    )
    assert (
        reference.builder.cost_evaluations == fast.builder.cost_evaluations
    )
    assert (
        reference.builder.estimator.estimations
        == fast.builder.estimator.estimations
    )
    ref_memo = reference.builder.memo
    fast_memo = fast.builder.memo
    assert len(ref_memo) == len(fast_memo)
    for entry in ref_memo.entries():
        other = fast_memo.lookup(entry.vertex_set)
        assert other is not None
        assert other.cardinality == entry.cardinality
        assert other.cost == entry.cost
        assert other.best_left == entry.best_left
        assert other.best_right == entry.best_right
        assert other.implementation == entry.implementation
        assert other.explored == entry.explored


class TestShapeEquivalence:
    @pytest.mark.parametrize(
        "shape", [name for name, _ in SHAPES]
    )
    @pytest.mark.parametrize(
        "cost_model", COST_MODELS, ids=lambda c: c.name
    )
    def test_mincutbranch_all_shapes(self, shape, cost_model):
        graph = dict(SHAPES)[shape]
        catalog = uniform_statistics(graph)
        assert_identical(
            *run_pair(catalog, MinCutBranch, cost_model)
        )

    @pytest.mark.parametrize(
        "partitioner", PARTITIONERS, ids=lambda p: p.name
    )
    def test_every_partitioner(self, partitioner):
        # The kernel consumes any strategy through partitions_into —
        # including ones relying on the default drain-the-iterator shim.
        catalog = uniform_statistics(cycle_graph(7))
        assert_identical(*run_pair(catalog, partitioner, CoutCostModel))

    def test_bounded_statistics(self):
        # Shrinking statistics exercise non-monotone costs across levels.
        catalog = uniform_statistics(
            grid_graph(3, 3), cardinality=4.0, selectivity=0.25
        )
        assert_identical(*run_pair(catalog, MinCutBranch, CoutCostModel))

    def test_seeded_random_graphs(self):
        rng = random.Random(0x5EED)
        for _ in range(12):
            n = rng.randint(2, 9)
            if n < 3 or rng.random() < 0.5:
                graph = random_acyclic_graph(n, rng=rng)
            else:
                m = rng.randint(n, n * (n - 1) // 2)
                graph = random_cyclic_graph(n, m, rng=rng)
            catalog = uniform_statistics(graph)
            cost_model = rng.choice(COST_MODELS)
            assert_identical(*run_pair(catalog, MinCutBranch, cost_model))


class TestNativeRungEquivalence:
    """Anchor the native dpconv rungs to the reference enumerator.

    Skipped wholesale on hosts without a C toolchain — silent
    degradation to pure python is a supported configuration with its
    own CI leg.
    """

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    @pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
    def test_bit_identity_on_exact_statistics(self, shape, backend):
        # Power-of-two statistics keep cardinality arithmetic exact and
        # association-invariant: bit-identical cost is required.
        graph = dict(SHAPES)[shape]
        catalog = uniform_statistics(
            graph, cardinality=4.0, selectivity=0.25
        )
        reference = TopDownPlanGenerator(
            catalog, MinCutBranch, CoutCostModel()
        )
        ref_plan = reference.optimize()
        conv = DPconvPlanGenerator(
            catalog, cost_model=CoutCostModel(), native_backend=backend
        )
        plan = conv.optimize()
        assert conv.last_backend == backend
        assert plan.cost == ref_plan.cost
        assert (
            conv.builder.cost_evaluations
            == reference.builder.cost_evaluations
        )
        assert len(conv.builder.memo) == len(reference.builder.memo)
        plan.validate()

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    @pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
    def test_arbitrary_statistics(self, shape, backend):
        # Non-pow-2 statistics lose association invariance between
        # *engines*; the native rung replicates the pure dpconv loop's
        # operation order, so it is still compared bit-for-bit.
        graph = dict(SHAPES)[shape]
        catalog = uniform_statistics(graph)  # 1000.0 / 0.01
        pure = DPconvPlanGenerator(
            catalog, cost_model=CoutCostModel(), native_backend="off"
        )
        pure_plan = pure.optimize()
        conv = DPconvPlanGenerator(
            catalog, cost_model=CoutCostModel(), native_backend=backend
        )
        plan = conv.optimize()
        assert plan.cost == pure_plan.cost
        assert (
            conv.builder.cost_evaluations == pure.builder.cost_evaluations
        )


class TestPruningInteraction:
    def test_pruning_runs_on_the_kernel(self):
        # Branch-and-bound limits ride the kernel's explicit stack; there
        # is no second driver.
        catalog = uniform_statistics(chain_graph(8))
        pruned = TopDownPlanGenerator(
            catalog, MinCutBranch, CoutCostModel(), enable_pruning=True
        )
        plan = pruned.optimize()
        assert pruned.last_kernel == "fast"
        fast = TopDownPlanGenerator(catalog, MinCutBranch, CoutCostModel())
        fast_plan = fast.optimize()
        # Pruning preserves optimality, so costs agree with the kernel.
        assert plan.cost == fast_plan.cost
        plan.validate()

    def test_pruning_off_equivalence_with_pruning_costs(self):
        catalog = uniform_statistics(cycle_graph(8))
        for cost_model in COST_MODELS:
            pruned = TopDownPlanGenerator(
                catalog, MinCutBranch, cost_model(), enable_pruning=True
            )
            fast = TopDownPlanGenerator(catalog, MinCutBranch, cost_model())
            assert pruned.optimize().cost == fast.optimize().cost


class TestKernelSelection:
    def test_default_selects_fast_kernel(self):
        catalog = uniform_statistics(chain_graph(5))
        optimizer = TopDownPlanGenerator(catalog, MinCutBranch)
        optimizer.optimize()
        assert optimizer.last_kernel == "fast"

    def test_last_kernel_none_before_optimize(self):
        catalog = uniform_statistics(chain_graph(3))
        optimizer = TopDownPlanGenerator(catalog, MinCutBranch)
        assert optimizer.last_kernel is None


class TestDeepChains:
    def test_deep_chain_beyond_recursion_limit(self):
        # The reference recursion needs roughly two interpreter frames
        # per relation on a chain (driver + partitioner); the
        # kernel's explicit stack needs only the partitioner's frames.
        # Running a chain deeper than half the recursion limit in a
        # thread with a known-clean stack proves the driver recursion is
        # gone without paying for a 600-relation enumeration here (the
        # chain-600 end-to-end check lives in the kernel benchmark).
        n = 120
        limit = 2 * n  # reference would need ~2n frames plus overhead
        catalog = uniform_statistics(
            chain_graph(n), cardinality=4.0, selectivity=0.25
        )
        outcome = {}

        def run():
            old = sys.getrecursionlimit()
            sys.setrecursionlimit(limit)
            try:
                optimizer = TopDownPlanGenerator(
                    catalog, MinCutBranch, CoutCostModel()
                )
                plan = optimizer.optimize()
                outcome["joins"] = plan.n_joins()
            except RecursionError:  # pragma: no cover - the regression
                outcome["recursion_error"] = True
            finally:
                sys.setrecursionlimit(old)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        assert outcome.get("joins") == n - 1
