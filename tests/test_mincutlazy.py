"""Unit tests for MinCutLazy (DeHaan & Tompa; paper Appendix A/B)."""

import pytest

from repro import (
    MinCutBranch,
    MinCutLazy,
    NaivePartitioning,
    bitset,
    chain_graph,
    clique_graph,
    cycle_graph,
    star_graph,
)
from repro.enumeration.base import canonical_pair

from .conftest import canonical_ccps


class TestEmission:
    def test_start_vertex_stays_in_complement(self):
        # X starts as {t}: the start (lowest) vertex can never enter C,
        # so it is always in the emitted right side.
        for g in (chain_graph(6), cycle_graph(6), clique_graph(5)):
            for left, right in MinCutLazy(g).partitions(g.all_vertices):
                assert right & 1
                assert not left & 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_chain_count(self, n):
        g = chain_graph(n)
        assert len(list(MinCutLazy(g).partitions(g.all_vertices))) == n - 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycle_count(self, n):
        g = cycle_graph(n)
        pairs = list(MinCutLazy(g).partitions(g.all_vertices))
        assert len(pairs) == n * (n - 1) // 2

    @pytest.mark.parametrize("n", range(2, 9))
    def test_clique_count(self, n):
        g = clique_graph(n)
        pairs = list(MinCutLazy(g).partitions(g.all_vertices))
        assert len(pairs) == 2 ** (n - 1) - 1

    def test_no_duplicates(self, small_shape_graph):
        g = small_shape_graph
        pairs = [
            canonical_pair(l, r)
            for l, r in MinCutLazy(g).partitions(g.all_vertices)
        ]
        assert len(pairs) == len(set(pairs))

    def test_matches_naive(self, small_shape_graph):
        g = small_shape_graph
        assert canonical_ccps(MinCutLazy, g) == canonical_ccps(
            NaivePartitioning, g
        )

    def test_singleton_emits_nothing(self):
        g = chain_graph(3)
        assert list(MinCutLazy(g).partitions(0b100)) == []


class TestTreeReuse:
    """Appendix B accounting: tree builds per shape."""

    @pytest.mark.parametrize("n", range(3, 10))
    def test_chain_builds_one_tree(self, n):
        g = chain_graph(n)
        strategy = MinCutLazy(g)
        list(strategy.partitions(g.all_vertices))
        assert strategy.stats.tree_builds == 1

    @pytest.mark.parametrize("n", range(3, 10))
    def test_star_builds_one_tree(self, n):
        g = star_graph(n)
        strategy = MinCutLazy(g)
        list(strategy.partitions(g.all_vertices))
        assert strategy.stats.tree_builds == 1

    @pytest.mark.parametrize("n", range(3, 10))
    def test_cycle_builds_at_most_n_minus_one(self, n):
        g = cycle_graph(n)
        strategy = MinCutLazy(g)
        list(strategy.partitions(g.all_vertices))
        assert strategy.stats.tree_builds <= n - 1

    @pytest.mark.parametrize("n", range(3, 11))
    def test_clique_builds_exactly_2_to_n_minus_2(self, n):
        g = clique_graph(n)
        strategy = MinCutLazy(g)
        list(strategy.partitions(g.all_vertices))
        assert strategy.stats.tree_builds == 2 ** (n - 2)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_clique_tree_build_cost_formula(self, n):
        # Appendix B: sum of build costs = (1/32) 2^n (n^2 + 11n - 2).
        g = clique_graph(n)
        strategy = MinCutLazy(g)
        list(strategy.partitions(g.all_vertices))
        expected = 2 ** n * (n * n + 11 * n - 2) // 32
        assert strategy.stats.tree_build_cost == expected

    def test_reuse_disabled_rebuilds_every_call(self):
        g = chain_graph(6)
        lazy = MinCutLazy(g, use_reuse_test=False)
        list(lazy.partitions(g.all_vertices))
        reusing = MinCutLazy(g)
        list(reusing.partitions(g.all_vertices))
        assert lazy.stats.tree_builds > reusing.stats.tree_builds

    def test_reuse_disabled_same_output(self, small_shape_graph):
        g = small_shape_graph
        assert canonical_ccps(MinCutLazy, g) == canonical_ccps(
            lambda graph: MinCutLazy(graph, use_reuse_test=False), g
        )


def _drain(graph, use_reuse_test):
    strategy = MinCutLazy(graph, use_reuse_test=use_reuse_test)
    for _ in strategy.partitions(graph.all_vertices):
        pass
    return strategy


class TestReuseAblation:
    """The reuse test's effect per shape, as the reuse ablation reports it."""

    def test_star_single_build_even_without_reuse(self):
        # Starting from the hub, every child invocation early-exits (its only
        # frontier vertex is the excluded hub) before reaching the tree build,
        # so stars build once regardless of the reuse test.
        graph = star_graph(10)
        assert _drain(graph, True).stats.tree_builds == 1
        assert _drain(graph, False).stats.tree_builds == 1

    def test_clique_reuse_never_fires(self):
        graph = clique_graph(8)
        with_reuse = _drain(graph, True).stats
        assert with_reuse.usability_hits == 0
        assert with_reuse.tree_builds == 2 ** 6


class TestAgainstMinCutBranch:
    def test_same_ccps_on_random_graphs(self, rng):
        from .conftest import random_connected_graph

        for _ in range(40):
            g = random_connected_graph(rng)
            assert canonical_ccps(MinCutLazy, g) == canonical_ccps(
                MinCutBranch, g
            )
