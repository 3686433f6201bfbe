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

The C top-down kernel (:func:`repro.optimizer.native.run_c_topdown`) is
held to the same bar: every comparison runs with ``native_backend`` set
to ``"off"`` and, where a kernel loads, ``"c"``, under both bundled cost
models, against both the reference recursion and the python kernel —
see :class:`TestNativeTopDown`.  The same shape corpus also anchors the
native dpconv rung (compiled C) to the reference driver whenever this
host can run it — see :class:`TestNativeRungEquivalence`.
"""

import math
import random
import sys
import threading
import time

import pytest

from repro.catalog.workload import attach_random_statistics, uniform_statistics
from repro.cost.base import JoinImplementation
from repro.cost.cout import CoutCostModel
from repro.cost.physical import (
    HashJoin,
    NestedLoopJoin,
    PhysicalCostModel,
    SortMergeJoin,
)
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
from repro.heuristics.goo import greedy_operator_ordering
from repro.optimizer.budget import Budget
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.topdown import TopDownPlanGenerator, tdpgsub_reference
from repro.plan.salvage import reprice

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

#: Top-down engines to prove against the oracles: the python kernel
#: always, the C kernel where one loads.
TOPDOWN_BACKENDS = ["off"] + NATIVE_BACKENDS

COST_MODELS = [CoutCostModel, PhysicalCostModel]
PARTITIONERS = [MinCutBranch, MinCutLazy, NaivePartitioning]


def run_pair(catalog, partitioner, cost_model_cls, backend=None):
    """Optimize with the reference recursion and the kernel; return both."""
    reference = TopDownPlanGenerator(catalog, partitioner, cost_model_cls())
    root = catalog.graph.all_vertices
    tdpgsub_reference(reference, root)
    ref_plan = reference.builder.memo.extract_plan(root)
    fast = TopDownPlanGenerator(
        catalog, partitioner, cost_model_cls(), native_backend=backend
    )
    return reference, ref_plan, fast, fast.optimize()


def memo_rows(optimizer):
    """The memo as a list of plain rows, in iteration order."""
    return [
        (
            entry.vertex_set,
            entry.cardinality,
            entry.cost,
            entry.best_left,
            entry.best_right,
            entry.implementation,
            entry.explored,
        )
        for entry in optimizer.builder.memo.entries()
    ]


def assert_identical(reference, ref_plan, fast, fast_plan):
    """Assert the two runs are indistinguishable, memo entry by entry."""
    assert fast.last_kernel == "fast"
    assert ref_plan == fast_plan  # JoinTree is a frozen dataclass: deep eq
    # Every PartitionStats field, not only ``emitted``: the C kernel
    # mirrors the partitioner's work counters too.
    assert reference.partitioner.stats == fast.partitioner.stats
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


def _random_corpus(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, max_n)
        if n < 3 or rng.random() < 0.5:
            graph = random_acyclic_graph(n, rng=rng)
        else:
            graph = random_cyclic_graph(n, rng.randint(n, n * (n - 1) // 2), rng=rng)
        yield attach_random_statistics(graph, seed=rng.randrange(1 << 30))


class TaggedJoin(JoinImplementation):
    """A custom join implementation: the C kernel cannot price it."""

    def cost(self, left_card, right_card, output_card):
        return left_card + right_card


class TestNativeTopDown:
    """The C top-down kernel against both oracles, bit for bit.

    Every case runs once per entry of :data:`TOPDOWN_BACKENDS` and, in
    the test body, once per entry of :data:`COST_MODELS` (a loop rather
    than a parametrization: one test id per shape and backend), so the
    python kernel and (where one loads) the C kernel face the same
    reference recursion, and the C run is also compared with the python
    kernel memo row by row (implementation names included), in iteration
    order.
    """

    @staticmethod
    def check(catalog, backend, partitioner=MinCutBranch):
        for cost_model in COST_MODELS:
            reference, ref_plan, fast, fast_plan = run_pair(
                catalog, partitioner, cost_model, backend
            )
            assert_identical(reference, ref_plan, fast, fast_plan)
            assert fast.last_backend == ("c" if backend == "c" else "python")
            python = TopDownPlanGenerator(
                catalog, partitioner, cost_model(), native_backend="off"
            )
            assert python.optimize() == fast_plan
            assert memo_rows(python) == memo_rows(fast)
            assert python.partitioner.stats == fast.partitioner.stats
            assert (
                python.builder.cost_evaluations == fast.builder.cost_evaluations
            )
            assert (
                python.builder.estimator.estimations
                == fast.builder.estimator.estimations
            )

    @pytest.mark.parametrize("backend", TOPDOWN_BACKENDS)
    @pytest.mark.parametrize("shape", [name for name, _ in SHAPES])
    def test_shapes(self, shape, backend):
        graph = dict(SHAPES)[shape]
        self.check(uniform_statistics(graph), backend)
        self.check(attach_random_statistics(graph, seed=11), backend)

    @pytest.mark.parametrize("backend", TOPDOWN_BACKENDS)
    def test_seeded_random_graphs(self, backend):
        for catalog in _random_corpus(0xC70D, 25, 11):
            self.check(catalog, backend)

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_largest_c_query(self, backend):
        # n = 64: every relation set still fits one uint64 mask.
        catalog = attach_random_statistics(chain_graph(64), seed=5)
        for cost_model in COST_MODELS:
            c_run = TopDownPlanGenerator(
                catalog, MinCutBranch, cost_model(), native_backend=backend
            )
            plan = c_run.optimize()
            assert c_run.last_backend == "c"
            python = TopDownPlanGenerator(
                catalog, MinCutBranch, cost_model(), native_backend="off"
            )
            assert python.optimize() == plan
            assert memo_rows(python) == memo_rows(c_run)
            assert python.partitioner.stats == c_run.partitioner.stats
            assert python.builder.cost_evaluations == c_run.builder.cost_evaluations

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_physical_parameters_and_orders(self, backend):
        # Any order and subset of the bundled implementations, with any
        # valid parameters, runs in C with the python kernel's names.
        catalog = attach_random_statistics(cycle_graph(9), seed=8)
        models = [
            PhysicalCostModel([SortMergeJoin(), HashJoin(), NestedLoopJoin()]),
            PhysicalCostModel([HashJoin(name="hj", build_factor=0.0)], 0.0),
            PhysicalCostModel(
                [NestedLoopJoin(buffer_pages=3), HashJoin(probe_factor=7)], 0.25
            ),
        ]
        for model in models:
            c_run = TopDownPlanGenerator(
                catalog, MinCutBranch, model, native_backend=backend
            )
            plan = c_run.optimize()
            assert c_run.last_backend == "c"
            python = TopDownPlanGenerator(
                catalog, MinCutBranch, model, native_backend="off"
            )
            assert python.optimize() == plan
            assert memo_rows(python) == memo_rows(c_run)
            assert python.builder.cost_evaluations == c_run.builder.cost_evaluations

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_past_the_mask_width_runs_python(self, backend):
        catalog = uniform_statistics(
            chain_graph(65), cardinality=4.0, selectivity=0.25
        )
        optimizer = TopDownPlanGenerator(
            catalog, MinCutBranch, native_backend=backend
        )
        optimizer.optimize().validate()
        assert optimizer.last_backend == "python"

    @pytest.mark.parametrize(
        "label, kwargs",
        [
            # A PhysicalCostModel subclass may override join_cost.
            (
                "physical model",
                {"cost_model": type("Sub", (PhysicalCostModel,), {})()},
            ),
            ("C_out subclass", {"cost_model": type("Sub", (CoutCostModel,), {})()}),
            ("mincutlazy", {"partitioning_factory": MinCutLazy}),
            (
                "no optimizations",
                {
                    "partitioning_factory": lambda graph: MinCutBranch(
                        graph, use_optimizations=False
                    )
                },
            ),
            ("pruning", {"enable_pruning": True}),
            (
                "custom join implementation",
                {"cost_model": PhysicalCostModel([HashJoin(), TaggedJoin("tag")])},
            ),
        ],
    )
    def test_out_of_scope_runs_python(self, label, kwargs):
        # Even an explicit "c" request leaves these on the python kernel.
        options = {"partitioning_factory": MinCutBranch, **kwargs}
        optimizer = TopDownPlanGenerator(
            uniform_statistics(cycle_graph(7)), native_backend="c", **options
        )
        optimizer.optimize().validate()
        assert optimizer.last_backend == "python", label

    @pytest.mark.parametrize("backend", TOPDOWN_BACKENDS)
    @pytest.mark.parametrize("cap", [1, 2, 7, 31, 32, 33, 100, 400])
    def test_node_cap_expires_at_the_capped_expansion(self, cap, backend):
        # Expiry is deterministic: both kernels stop before the same
        # expansion and flush the same finished sets, under either model.
        catalog = attach_random_statistics(clique_graph(9), seed=2)

        def capped(engine, cost_model):
            budget = Budget(node_cap=cap)
            optimizer = TopDownPlanGenerator(
                catalog, MinCutBranch, cost_model(), budget=budget,
                native_backend=engine,
            )
            plan = optimizer.optimize()
            return optimizer, plan, budget

        for cost_model in COST_MODELS:
            python, python_plan, python_budget = capped("off", cost_model)
            fast, fast_plan, budget = capped(backend, cost_model)
            assert fast.budget_expired and python.budget_expired
            assert budget.nodes == python_budget.nodes == cap
            assert fast_plan == python_plan
            assert memo_rows(fast) == memo_rows(python)
            assert fast.partitioner.stats == python.partitioner.stats
            assert fast.builder.cost_evaluations == python.builder.cost_evaluations
            assert (
                fast.builder.estimator.estimations
                == python.builder.estimator.estimations
            )
            assert fast.salvage_report == python.salvage_report
            fast_plan.validate()

    @pytest.mark.parametrize("backend", TOPDOWN_BACKENDS)
    def test_deadline_salvages_a_plan_no_worse_than_goo(self, backend):
        catalog = attach_random_statistics(clique_graph(16), seed=3)
        optimizer = TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            budget=Budget(deadline_seconds=0.02),
            native_backend=backend,
        )
        plan = optimizer.optimize()
        assert optimizer.budget_expired
        plan.validate()
        goo = reprice(greedy_operator_ordering(catalog), CoutCostModel())
        assert plan.cost <= goo.cost
        assert math.isfinite(plan.cost)

    @pytest.mark.parametrize("backend", TOPDOWN_BACKENDS)
    def test_salvage_report_counts_unfinished_sets(self, backend):
        # Only the root is a placeholder row; the sets still on the work
        # stack count as scheduled, so the solved fraction reads the share
        # of the search that finished, not ~1.0.
        catalog = attach_random_statistics(clique_graph(12), seed=2)
        optimizer = TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            budget=Budget(node_cap=200),
            native_backend=backend,
        )
        optimizer.optimize()
        report = optimizer.salvage_report
        assert optimizer.unfinished_sets > 100
        assert report["memo_entries"] == (
            len(optimizer.builder.memo) + optimizer.unfinished_sets
        )
        assert report["memo_solved_fraction"] == (
            report["solved_entries"] / report["memo_entries"]
        )
        assert report["memo_solved_fraction"] < 0.5

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_deadline_interrupts_one_dense_set(self, backend):
        # Exploring the root of clique-24 alone emits 2^23 ccps; the C
        # kernel checks the deadline inside that enumeration, so the run
        # stops near its 50 ms deadline instead of finishing the set.
        catalog = uniform_statistics(clique_graph(24))
        optimizer = TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            budget=Budget(deadline_seconds=0.05),
            native_backend=backend,
        )
        started = time.perf_counter()
        plan = optimizer.optimize()
        elapsed = time.perf_counter() - started
        assert optimizer.last_backend == "c"
        assert optimizer.budget_expired
        assert optimizer.partitioner.stats.emitted < 1 << 23
        assert elapsed < 0.25
        plan.validate()
        goo = reprice(greedy_operator_ordering(catalog), CoutCostModel())
        assert plan.cost <= goo.cost

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_state_limit(self, backend, monkeypatch):
        # Past its state cap a budgeted C run salvages what it finished;
        # an unbudgeted one raises a typed error.
        from repro.errors import OptimizationError
        from repro.optimizer import native

        monkeypatch.setattr(native, "_TOPDOWN_MAX_ITEMS", 60)
        catalog = attach_random_statistics(clique_graph(9), seed=6)
        budgeted = TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            budget=Budget(deadline_seconds=60.0),
            native_backend=backend,
        )
        plan = budgeted.optimize()
        assert budgeted.last_backend == "c"
        assert budgeted.budget_expired
        plan.validate()
        goo = reprice(greedy_operator_ordering(catalog), CoutCostModel())
        assert plan.cost <= goo.cost
        plain = TopDownPlanGenerator(catalog, MinCutBranch, native_backend=backend)
        with pytest.raises(OptimizationError, match="state limit"):
            plain.optimize()

    @pytest.mark.parametrize("backend", NATIVE_BACKENDS)
    def test_generous_budget_is_exact(self, backend):
        catalog = attach_random_statistics(clique_graph(10), seed=4)
        budgeted = TopDownPlanGenerator(
            catalog,
            MinCutBranch,
            budget=Budget(deadline_seconds=60.0, node_cap=10**9),
            native_backend=backend,
        )
        plain = TopDownPlanGenerator(catalog, MinCutBranch, native_backend="off")
        assert budgeted.optimize() == plain.optimize()
        assert not budgeted.budget_expired
        assert budgeted.last_backend == "c"
        assert memo_rows(budgeted) == memo_rows(plain)


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
