"""Unit tests for JoinTree, MemoTable and PlanBuilder."""

import dataclasses
import math
import pickle

import pytest

from repro import (
    CoutCostModel,
    JoinTree,
    PhysicalCostModel,
    PlanBuilder,
    chain_graph,
    uniform_statistics,
)
from repro.errors import OptimizationError
from repro.plan.jointree import _node
from repro.plan.memo import MemoTable


def _leaf(index, name, card):
    return JoinTree(vertex_set=1 << index, cardinality=card, cost=0.0, relation=name)


def _join(left, right, card, cost, impl="join"):
    return JoinTree(
        vertex_set=left.vertex_set | right.vertex_set,
        cardinality=card,
        cost=cost,
        left=left,
        right=right,
        implementation=impl,
    )


class TestJoinTree:
    def test_leaf_properties(self):
        leaf = _leaf(0, "R0", 100.0)
        assert leaf.is_leaf
        assert leaf.n_relations() == 1
        assert leaf.n_joins() == 0
        assert leaf.depth() == 0
        assert leaf.is_left_deep()
        leaf.validate()

    def test_inner_properties(self):
        t = _join(_leaf(0, "R0", 10), _leaf(1, "R1", 20), 200.0, 200.0)
        assert not t.is_leaf
        assert t.n_relations() == 2
        assert t.n_joins() == 1
        assert t.depth() == 1
        t.validate()

    def test_left_deep_detection(self):
        a, b, c, d = (_leaf(i, f"R{i}", 10) for i in range(4))
        left_deep = _join(_join(_join(a, b, 1, 1), c, 1, 1), d, 1, 1)
        assert left_deep.is_left_deep()
        bushy = _join(_join(a, b, 1, 1), _join(c, d, 1, 1), 1, 1)
        assert not bushy.is_left_deep()

    def test_leaves_order(self):
        t = _join(_join(_leaf(2, "R2", 1), _leaf(0, "R0", 1), 1, 1),
                  _leaf(1, "R1", 1), 1, 1)
        assert [l.relation for l in t.leaves()] == ["R2", "R0", "R1"]

    def test_inner_nodes_postorder(self):
        inner = _join(_leaf(0, "R0", 1), _leaf(1, "R1", 1), 1, 1)
        outer = _join(inner, _leaf(2, "R2", 1), 1, 1)
        nodes = list(outer.inner_nodes())
        assert nodes[-1] is outer
        assert len(nodes) == 2

    def test_validate_catches_overlap(self):
        bad = JoinTree(
            vertex_set=0b11,
            cardinality=1.0,
            cost=1.0,
            left=_leaf(0, "R0", 1),
            right=_leaf(0, "R0", 1),
        )
        with pytest.raises(AssertionError):
            bad.validate()

    def test_expression_rendering(self):
        t = _join(_leaf(0, "R0", 1), _leaf(1, "R1", 1), 1, 1)
        assert t.to_expression() == "(R0 ⋈ R1)"
        assert str(t) == "(R0 ⋈ R1)"

    def test_pretty_contains_cards(self):
        t = _join(_leaf(0, "R0", 5), _leaf(1, "R1", 7), 35.0, 35.0, "hash")
        out = t.pretty()
        assert "hash" in out
        assert "card=35" in out


def _fast_copy(tree):
    """``tree`` rebuilt node by node through the fast constructor."""
    if tree.is_leaf:
        return _node(
            tree.vertex_set, tree.cardinality, tree.cost, tree.relation,
            None, None, None,
        )
    return _node(
        tree.vertex_set, tree.cardinality, tree.cost, None,
        _fast_copy(tree.left), _fast_copy(tree.right), tree.implementation,
    )


class TestFastNode:
    """Nodes of the private fast constructor are the ones ``JoinTree(...)``
    builds: equal, same hash, repr and pickle, frozen, valid."""

    def tree(self):
        a, b, c = (_leaf(i, f"R{i}", 10 * (i + 1)) for i in range(3))
        return _join(_join(a, b, 200.0, 200.0, "hash"), c, 6000.5, 6200.5)

    def test_equal_hash_and_repr(self):
        tree = self.tree()
        fast = _fast_copy(tree)
        assert fast == tree and tree == fast
        assert hash(fast) == hash(tree)
        assert repr(fast) == repr(tree)
        assert fast.left.left == tree.left.left
        assert hash(fast.left.left) == hash(tree.left.left)
        assert {fast: 1}[tree] == 1
        assert fast != _fast_copy(_join(tree.left, tree.right, 1.0, 1.0))

    def test_pickle_round_trip(self):
        tree = self.tree()
        fast = _fast_copy(tree)
        restored = pickle.loads(pickle.dumps(fast))
        assert restored == tree and hash(restored) == hash(tree)
        assert pickle.loads(pickle.dumps(tree)) == fast
        assert repr(restored) == repr(tree)

    def test_frozen(self):
        fast = _fast_copy(self.tree())
        for field in dataclasses.fields(fast):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(fast, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fast.left.relation = "R9"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del fast.cost

    def test_validates(self):
        fast = _fast_copy(self.tree())
        fast.validate()
        assert fast.n_joins() == 2 and fast.depth() == 2
        assert fast.to_expression() == "((R0 ⋈ R1) ⋈ R2)"
        assert dataclasses.asdict(fast) == dataclasses.asdict(self.tree())


class TestMemoTable:
    def test_leaf_initialization(self, uniform_chain5):
        memo = MemoTable(uniform_chain5)
        assert len(memo) == 5
        for v in range(5):
            entry = memo.lookup(1 << v)
            assert entry is not None
            assert entry.cost == 0.0
            assert entry.explored
            assert entry.cardinality == 1000.0

    def test_lookup_missing_is_none(self, uniform_chain5):
        memo = MemoTable(uniform_chain5)
        assert memo.lookup(0b11) is None

    def test_get_or_create(self, uniform_chain5):
        memo = MemoTable(uniform_chain5)
        entry = memo.get_or_create(0b11)
        assert memo.lookup(0b11) is entry
        assert memo.get_or_create(0b11) is entry
        assert not entry.explored
        assert entry.cost == math.inf

    def test_getitem_raises_for_missing(self, uniform_chain5):
        memo = MemoTable(uniform_chain5)
        with pytest.raises(OptimizationError):
            memo[0b111]

    def test_contains(self, uniform_chain5):
        memo = MemoTable(uniform_chain5)
        assert 0b1 in memo
        assert 0b11 not in memo

    def test_extract_plan_requires_finished_entry(self, uniform_chain5):
        memo = MemoTable(uniform_chain5)
        memo.get_or_create(0b11)
        with pytest.raises(OptimizationError):
            memo.extract_plan(0b11)

    def test_extract_plan_deep_left_deep_chain(self):
        # Regression: extraction used to recurse once per plan level, so
        # a left-deep chain beyond the interpreter recursion limit (or
        # far less, called from an already-deep stack) crashed with
        # RecursionError after the search itself had succeeded.  The
        # iterative extractor must materialize a 600-level tree.
        n = 600
        catalog = uniform_statistics(chain_graph(n))
        memo = MemoTable(catalog)
        prefix = 0b1
        for k in range(1, n):
            union = prefix | (1 << k)
            entry = memo.get_or_create(union)
            entry.cardinality = 1000.0
            entry.cost = float(k)
            entry.best_left = prefix
            entry.best_right = 1 << k
            entry.implementation = "join"
            entry.explored = True
            prefix = union
        plan = memo.extract_plan(prefix)
        assert plan.n_joins() == n - 1
        assert plan.is_left_deep

    def test_extract_leaf(self, uniform_chain5):
        memo = MemoTable(uniform_chain5)
        plan = memo.extract_plan(0b1)
        assert plan.is_leaf
        assert plan.relation == "R0"


class TestPlanBuilder:
    def test_build_trees_prices_both_orders(self):
        g = chain_graph(2)
        catalog = uniform_statistics(g)
        builder = PlanBuilder(catalog, PhysicalCostModel())
        builder.build_trees(0b11, 0b01, 0b10)
        assert builder.cost_evaluations == 2
        entry = builder.memo[0b11]
        assert entry.cost < math.inf
        assert entry.best_left | entry.best_right == 0b11

    def test_symmetric_model_prices_once_per_ccp(self):
        # C_out declares itself symmetric: the mirrored orientation can
        # never win the strict < comparison, so it is skipped and the
        # evaluation counter moves by one per ccp, not two.
        g = chain_graph(2)
        catalog = uniform_statistics(g)
        builder = PlanBuilder(catalog, CoutCostModel())
        builder.build_trees(0b11, 0b01, 0b10)
        assert builder.cost_evaluations == 1
        entry = builder.memo[0b11]
        assert entry.cost < math.inf
        assert entry.best_left == 0b01  # first-priced orientation kept

    def test_symmetric_flag_declarations(self):
        assert CoutCostModel.symmetric is True
        assert CoutCostModel().is_symmetric() is True
        assert PhysicalCostModel.symmetric is False
        assert PhysicalCostModel().is_symmetric() is False

    def test_cardinality_estimated_once(self):
        g = chain_graph(3)
        catalog = uniform_statistics(g)
        builder = PlanBuilder(catalog, CoutCostModel())
        builder.build_trees(0b011, 0b001, 0b010)
        builder.build_trees(0b110, 0b010, 0b100)
        builder.build_trees(0b111, 0b011, 0b100)
        builder.build_trees(0b111, 0b001, 0b110)
        # One estimation per multi-relation csg: {01},{12},{012}.
        assert builder.estimator.estimations == 3

    def test_keeps_cheaper_orientation(self):
        g = chain_graph(2)
        catalog = uniform_statistics(g)

        class LeftBiased(CoutCostModel):
            # Cheaper when the smaller set id comes first.
            def join_cost(self, left_card, right_card, output_card):
                return (left_card * 2 + right_card, "biased")

            def is_symmetric(self):
                return False

        builder = PlanBuilder(catalog, LeftBiased())
        builder.build_trees(0b11, 0b01, 0b10)
        entry = builder.memo[0b11]
        # Both cards equal here, so cost identical; orientation falls back
        # to the first-priced (left_set, right_set).
        assert entry.best_left == 0b01

    def test_asymmetric_model_picks_smaller_build_side(self):
        from repro import Catalog, Relation

        g = chain_graph(2)
        catalog = Catalog(
            g,
            [Relation("small", 10.0), Relation("big", 10000.0)],
            {(0, 1): 0.5},
        )
        builder = PlanBuilder(catalog, PhysicalCostModel())
        builder.build_trees(0b11, 0b01, 0b10)
        entry = builder.memo[0b11]
        # All default implementations are cheaper with the small relation
        # as build/outer side, so the small side must be kept on the left
        # (nested loop: 10 + 10*10000/100 beats hash's 2*10 + 10000 here).
        assert entry.best_left == 0b01
        assert entry.implementation == "nestedloop"
