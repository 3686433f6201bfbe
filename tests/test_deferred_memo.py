"""The deferred memo of the compiled engines.

A C top-down or C dpconv run that finishes hands its plan out itself
and gives the memo its rows lazily (:meth:`MemoTable.defer`): they are
loaded through ``bulk_load`` on the first read.  These tests pin that
contract: ``len`` is exact before the load; the loaded memo equals the
python engine's row for row, in order, implementation names included;
any accessor loads it; an expired run still hands salvage a full memo;
and the python engines never defer.  The C top-down run's one-call
set-up (``td_new`` seeds the leaves from the catalog, the memo's leaves
stay deferred) is pinned on 1, 2 and 64 relations, int and float leaf
cardinalities and both cost models.
"""

import random

import pytest

from repro.catalog.statistics import Catalog, Relation
from repro.catalog.workload import attach_random_statistics, uniform_statistics
from repro.cost.physical import (
    HashJoin,
    NestedLoopJoin,
    PhysicalCostModel,
    SortMergeJoin,
)
from repro.enumeration.mincutbranch import MinCutBranch
from repro.errors import DisconnectedGraphError
from repro.graph.query_graph import QueryGraph
from repro.graph.shapes import chain_graph, clique_graph, cycle_graph, star_graph
from repro.optimizer import _native_build
from repro.optimizer._native_build import load_c_kernel
from repro.optimizer.budget import Budget
from repro.optimizer.dpccp import DPccp
from repro.optimizer.dpconv import DPconvPlanGenerator
from repro.optimizer.topdown import TopDownPlanGenerator, tdpgsub_reference
from repro.plan.memo import MemoTable

needs_c = pytest.mark.skipif(
    load_c_kernel(build=True) is None, reason="no C kernel on this host"
)

GRAPHS = {
    "chain-9": chain_graph(9),
    "cycle-8": cycle_graph(8),
    "star-7": star_graph(7),
    "clique-7": clique_graph(7),
}

PHYSICAL = PhysicalCostModel(
    [SortMergeJoin(), HashJoin(build_factor=1.5), NestedLoopJoin(buffer_pages=4)]
)

#: (engine, cost model) pairs whose C runs defer the memo.
ENGINES = ["topdown-cout", "topdown-physical", "dpconv"]


def make(engine, catalog, backend, budget=None):
    if engine == "dpconv":
        return DPconvPlanGenerator(catalog, native_backend=backend, budget=budget)
    cost_model = PHYSICAL if engine == "topdown-physical" else None
    return TopDownPlanGenerator(
        catalog, MinCutBranch, cost_model, budget=budget, native_backend=backend
    )


def rows(memo):
    return [
        (e.vertex_set, e.cardinality, e.cost, e.best_left, e.best_right,
         e.implementation, e.explored)
        for e in memo.entries()
    ]


@pytest.fixture
def loads(monkeypatch):
    """Count ``MemoTable.bulk_load`` calls."""
    calls = []
    original = MemoTable.bulk_load

    def counting(self, rows):
        calls.append(self)
        return original(self, rows)

    monkeypatch.setattr(MemoTable, "bulk_load", counting)
    return calls


@needs_c
@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("engine", ENGINES)
class TestCompiledRuns:
    def run(self, engine, graph, backend):
        catalog = attach_random_statistics(GRAPHS[graph], seed=4)
        optimizer = make(engine, catalog, backend)
        plan = optimizer.optimize()
        assert optimizer.last_backend == ("c" if backend == "c" else "python")
        return optimizer, plan

    def test_len_is_exact_before_the_load(self, engine, graph, loads):
        optimizer, _ = self.run(engine, graph, "c")
        memo = optimizer.builder.memo
        before = len(memo)
        assert loads == []  # neither the run nor len loaded it
        list(memo.entries())
        assert loads == [memo]
        assert len(memo) == before

    def test_loaded_memo_equals_the_python_engine(self, engine, graph):
        c_run, c_plan = self.run(engine, graph, "c")
        python, python_plan = self.run(engine, graph, "off")
        assert len(c_run.builder.memo) == len(python.builder.memo)
        assert rows(c_run.builder.memo) == rows(python.builder.memo)
        if engine != "dpconv":  # dpconv's pure loop may break ties apart
            assert c_plan == python_plan
        root = GRAPHS[graph].all_vertices
        assert c_plan == c_run.builder.memo.extract_plan(root)

    @pytest.mark.parametrize(
        "read",
        [
            lambda memo, s: memo.lookup(s),
            lambda memo, s: memo[s],
            lambda memo, s: s in memo,
            lambda memo, s: memo.get_or_create(s),
            lambda memo, s: memo.bulk_load(()),
        ],
        ids=["lookup", "getitem", "contains", "get_or_create", "bulk_load"],
    )
    def test_any_read_loads_the_memo(self, engine, graph, read, loads):
        c_run, plan = self.run(engine, graph, "c")
        python, _ = self.run(engine, graph, "off")
        interior = plan.left if not plan.left.is_leaf else plan.right
        assert not interior.is_leaf
        memo = c_run.builder.memo
        assert memo not in loads
        read(memo, interior.vertex_set)
        assert memo in loads and memo._pending is None
        entry = memo.lookup(interior.vertex_set)
        expected = python.builder.memo.lookup(interior.vertex_set)
        assert (entry.cardinality, entry.cost, entry.implementation) == (
            expected.cardinality, expected.cost, expected.implementation
        )
        assert (entry.best_left, entry.best_right) == (
            expected.best_left, expected.best_right
        )
        assert rows(memo) == rows(python.builder.memo)


@needs_c
@pytest.mark.parametrize("engine", ENGINES)
def test_expired_run_hands_salvage_a_full_memo(engine, monkeypatch):
    import repro.plan.salvage as salvage

    seen = []
    original = salvage.salvage_plan

    def spy(memo, *args, **kwargs):
        seen.append((memo._pending, len(memo), len(list(memo.entries()))))
        return original(memo, *args, **kwargs)

    monkeypatch.setattr(salvage, "salvage_plan", spy)
    catalog = attach_random_statistics(clique_graph(12), seed=2)
    optimizer = make(engine, catalog, "c", budget=Budget(node_cap=200))
    plan = optimizer.optimize()
    assert optimizer.last_backend == "c"
    assert optimizer.budget_expired
    plan.validate()
    [(pending, length, loaded)] = seen
    assert pending is None
    assert length == loaded > catalog.graph.n_vertices
    if engine != "dpconv":
        # The node cap lands on the same expansion in both kernels.
        python = make(engine, catalog, "off", budget=Budget(node_cap=200))
        python.optimize()
        assert rows(optimizer.builder.memo) == rows(python.builder.memo)


def test_python_engines_never_defer(monkeypatch):
    def refuse(memo, rows, count):
        raise AssertionError("a python engine deferred its memo")

    monkeypatch.setattr(MemoTable, "defer", refuse)
    catalog = attach_random_statistics(cycle_graph(8), seed=1)
    root = catalog.graph.all_vertices
    dpccp = DPccp(catalog)
    dpccp.optimize()
    reference = TopDownPlanGenerator(catalog, MinCutBranch, native_backend="off")
    tdpgsub_reference(reference, root)
    kernel = make("topdown-physical", catalog, "off")
    kernel.optimize()
    conv = make("dpconv", catalog, "off")
    conv.optimize()
    for optimizer in (dpccp, reference, kernel, conv):
        assert optimizer.builder.memo._pending is None


def typed_rows(memo):
    return [tuple((type(value), value) for value in row) for row in rows(memo)]


def catalog_with(graph, cards, seed):
    """``graph`` with int (1..1000) or float leaf cardinalities."""
    rng = random.Random(seed)
    draw = (lambda: rng.randint(1, 1000)) if cards == "int" else (
        lambda: rng.uniform(1.0, 1000.0)
    )
    relations = [Relation(f"R{v}", draw()) for v in range(graph.n_vertices)]
    sels = {edge: rng.choice([1.0, 0.5, 0.1, 0.013]) for edge in graph.edges}
    return Catalog(graph, relations, sels)


SET_UP_GRAPHS = {
    "single": QueryGraph(1, []),
    "pair": chain_graph(2),
    "chain-64": chain_graph(64),
    "cycle-64": cycle_graph(64),
}


@needs_c
@pytest.mark.parametrize("cards", ["int", "float"])
@pytest.mark.parametrize("graph", sorted(SET_UP_GRAPHS))
@pytest.mark.parametrize("engine", ["topdown-cout", "topdown-physical"])
class TestOneCallSetUp:
    def test_plan_and_memo_equal_the_python_kernel(self, engine, graph, cards, loads):
        catalog = catalog_with(SET_UP_GRAPHS[graph], cards, seed=7)
        c_run = make(engine, catalog, "c")
        c_plan = c_run.optimize()
        python = make(engine, catalog, "off")
        python_plan = python.optimize()
        assert (c_run.last_backend, python.last_backend) == ("c", "python")
        n = catalog.graph.n_vertices
        if n > 1:
            # The run read neither the leaves nor its own rows.
            assert c_run.builder.memo not in loads
        assert len(c_run.builder.memo) == len(python.builder.memo)
        assert c_plan == python_plan
        c_plan.validate()
        # The leaves keep the catalog's values and types after the load.
        assert typed_rows(c_run.builder.memo) == typed_rows(python.builder.memo)
        for vertex in range(n):
            leaf = c_run.builder.memo[1 << vertex]
            assert type(leaf.cardinality) is type(catalog.cardinality(vertex))
            assert leaf.cardinality == catalog.cardinality(vertex)
        assert c_run.partitioner.stats == python.partitioner.stats
        assert c_run.builder.cost_evaluations == python.builder.cost_evaluations
        assert (
            c_run.builder.estimator.estimations
            == python.builder.estimator.estimations
        )


@needs_c
@pytest.mark.parametrize("engine", ["topdown-cout", "topdown-physical"])
def test_disconnected_graph_raises_before_any_c_call(engine, monkeypatch):
    catalog = catalog_with(QueryGraph(4, [(0, 1), (2, 3)]), "int", seed=3)
    with pytest.raises(DisconnectedGraphError) as python_error:
        make(engine, catalog, "off").optimize()

    def refuse(build=False):
        raise AssertionError("the C kernel was reached")

    monkeypatch.setattr(_native_build, "load_c_kernel", refuse)
    with pytest.raises(DisconnectedGraphError) as c_error:
        make(engine, catalog, "c").optimize()
    assert str(c_error.value) == str(python_error.value)


@needs_c
@pytest.mark.parametrize("cards", ["int", "float"])
@pytest.mark.parametrize("engine", ["topdown-cout", "topdown-physical"])
def test_expired_one_call_run_hands_salvage_a_full_memo(engine, cards, monkeypatch):
    import repro.plan.salvage as salvage

    seen = []
    original = salvage.salvage_plan

    def spy(memo, *args, **kwargs):
        seen.append((memo._pending, len(memo), typed_rows(memo)))
        return original(memo, *args, **kwargs)

    monkeypatch.setattr(salvage, "salvage_plan", spy)
    catalog = catalog_with(cycle_graph(64), cards, seed=5)
    c_run = make(engine, catalog, "c", budget=Budget(node_cap=50))
    c_run.optimize().validate()
    python = make(engine, catalog, "off", budget=Budget(node_cap=50))
    python.optimize().validate()
    assert c_run.last_backend == "c" and c_run.budget_expired
    [(pending, length, c_rows), (_, python_length, python_rows)] = seen
    assert pending is None
    assert length == len(c_rows) == python_length > catalog.graph.n_vertices
    assert c_rows == python_rows


class TestDefer:
    def memo(self):
        return MemoTable(uniform_statistics(chain_graph(3)))

    def test_deferred_rows_come_first_and_len_counts_them(self):
        memo = self.memo()
        memo.defer(iter([(0b011, 16.0, 16.0, 1, 2, "join", True)]), 1)
        assert len(memo) == 4
        memo.bulk_load([(0b111, 64.0, 80.0, 3, 4, "join", True)])
        assert [e.vertex_set for e in memo.entries()] == [1, 2, 4, 0b011, 0b111]
        assert memo[0b011].cost == 16.0

    def test_a_second_defer_loads_the_first(self):
        memo = self.memo()
        memo.defer(iter([(0b011, 16.0, 16.0, 1, 2, "join", True)]), 1)
        memo.defer(iter([(0b111, 64.0, 80.0, 3, 4, "join", True)]), 1)
        assert len(memo) == 5
        assert [e.vertex_set for e in memo.entries()] == [1, 2, 4, 0b011, 0b111]

    def test_unknown_attributes_still_raise(self):
        with pytest.raises(AttributeError):
            self.memo().missing
