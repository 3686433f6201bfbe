"""MinCutBranch: the paper's branch partitioning algorithm (Sec. III).

The strategy recursively enlarges a connected set ``C`` (starting from an
arbitrary vertex ``t``) by neighbors, and exploits the connected regions
``R_tmp`` returned by child invocations to emit a ccp ``(S \\ R_tmp,
R_tmp)`` exactly when the complement region is connected — never
generating a partition that is not already a valid ccp, and never
checking connectivity explicitly.  Duplicate suppression uses the filter
set ``X`` (line 24's disjointness test); symmetric pairs are emitted once
because ``t`` can never appear in the emitted right side.

The implementation is a line-by-line transcription of Figures 4, 5 and 6
onto bitsets, written as a closure inside :meth:`MinCutBranch.partitions_into`
so that every name the recursion touches is a closure cell rather than an
attribute: the paper's complexity result makes MinCutBranch's amortized
work per emitted ccp O(1), which means in CPython the interpreter-level
constant factor (attribute lookups, ``bit_length`` calls, bound-method
dispatch) *is* the runtime.  Three mechanical choices keep it down:

* adjacency is pre-keyed by vertex **bit** (``{1 << v: N(v)}``), so the
  recursion does one dict lookup per neighborhood instead of
  ``bit_length() - 1`` plus a method call,
* the work counters accumulate in plain locals and flush into
  :class:`~repro.enumeration.base.PartitionStats` once per top-level
  call,
* ``REACHABLE`` (Fig. 6) is inlined at its single call site (case 3);
  the stand-alone :meth:`_reachable` method is kept as the readable
  transcription of the figure and for direct unit testing.

The two optimization techniques of Sec. III-C (lines 20-23 and 25-26) can
be disabled via ``use_optimizations=False`` for the ablation benchmark;
the emitted ccp set is identical either way, only the amount of internal
work changes.

Where the pseudocode says "an element of" a set, this implementation
always takes the lowest-indexed vertex, making runs deterministic.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro import bitset
from repro.enumeration.base import PartitioningStrategy
from repro.errors import GraphError

__all__ = ["MinCutBranch"]


class MinCutBranch(PartitioningStrategy):
    """Branch partitioning (PARTITION_MinCutBranch, Figs. 4-6)."""

    name = "mincutbranch"

    def __init__(self, graph, use_optimizations: bool = True):
        super().__init__(graph)
        self.use_optimizations = use_optimizations

    def __getattr__(self, name):
        # Only reached while ``_adj`` is unset: the adjacency keyed by
        # single-vertex bitset is built on the first enumeration, so a run
        # the C kernel takes never pays for it.  The recursion always
        # holds the vertex it wants neighbors of as a one-bit set, so
        # keying by bit removes the bit->index conversion from the
        # hottest lines of the algorithm.
        if name != "_adj":
            raise AttributeError(name)
        adj = self._adj = {1 << v: a for v, a in enumerate(self.graph._adjacency)}
        return adj

    # ------------------------------------------------------------------

    def partitions(self, vertex_set: int) -> Iterator[Tuple[int, int]]:
        """Return an iterator over ``P_ccp_sym(S)``.

        Pairs come out as ``(S \\ R_tmp, R_tmp)``.  The recursion emits
        through a callback and the pairs are collected eagerly: recursive
        generators would pay O(recursion depth) per emitted pair in
        CPython's ``yield from`` delegation, defeating the O(1)-per-ccp
        design the paper proves.  Callers that consume pairs one at a
        time (the fast kernel) use :meth:`partitions_into` instead, which
        skips this intermediate list.
        """
        emitted = []
        append = emitted.append

        def collect(left, right):
            append((left, right))

        self.partitions_into(vertex_set, collect)
        return iter(emitted)

    def partitions_into(self, vertex_set: int, emit) -> None:
        """Emit ``P_ccp_sym(S)`` straight into ``emit(left, right)``."""
        if bitset.popcount(vertex_set) < 2:
            return
        adj = self._adj
        use_optimizations = self.use_optimizations
        calls = 0
        loops = 0
        emitted = 0
        reachable_calls = 0
        reachable_iterations = 0

        def mincut_branch(s_set, c_set, x_set, l_set, c_neighbors):
            # MINCUTBRANCH (Fig. 5).  Returns the region ``R | L``: the
            # maximal connected region of ``S \ C`` containing ``L``.
            # ``c_neighbors`` is the caller-maintained ``(N(C) ∩ S) \ C``:
            # since ``C`` grows one vertex per recursion level, the
            # neighborhood is extended incrementally by one adjacency
            # lookup instead of being recomputed from the whole of ``C``
            # — this is what keeps the per-ccp work constant in practice,
            # mirroring the paper's per-vertex neighbor arrays (Sec. IV-A).
            nonlocal calls, loops, emitted
            nonlocal reachable_calls, reachable_iterations
            calls += 1

            neighbors_of_l = adj[l_set] & s_set & ~c_set
            n_l = neighbors_of_l & ~x_set                   # line 3
            n_x = neighbors_of_l & x_set                    # line 4
            n_b = c_neighbors & ~n_l & ~x_set               # line 5

            r_set = 0
            r_tmp = 0
            x_prime = x_set

            while n_l or n_x or (n_b & r_tmp):              # line 6
                loops += 1
                in_region = (n_b | n_l) & r_tmp
                if in_region:                               # case (1), line 7
                    v_bit = in_region & -in_region          # line 8
                    child_c = c_set | v_bit
                    child_neighbors = (
                        c_neighbors | (adj[v_bit] & s_set)
                    ) & ~child_c
                    # The region was already computed and its partition
                    # already emitted; the child call only explores
                    # nested splits.
                    mincut_branch(
                        s_set, child_c, x_prime, v_bit, child_neighbors
                    )                                       # line 9
                    n_l &= ~v_bit                           # line 10
                    n_b &= ~v_bit                           # line 11
                else:
                    x_prime = x_set                         # line 12
                    if n_l:                                 # case (2), line 13
                        v_bit = n_l & -n_l                  # line 14
                        child_c = c_set | v_bit
                        child_neighbors = (
                            c_neighbors | (adj[v_bit] & s_set)
                        ) & ~child_c
                        r_tmp = mincut_branch(
                            s_set, child_c, x_prime, v_bit, child_neighbors
                        )                                   # line 15
                        n_l &= ~v_bit                       # line 16
                    else:                                   # case (3), line 17
                        v_bit = n_x & -n_x
                        # REACHABLE (Fig. 6) inlined: flood fill of the
                        # region of ``S \ (C | v)`` containing ``v``.
                        reachable_calls += 1
                        blocked = c_set | v_bit
                        region = v_bit                      # F6 line 1
                        frontier = adj[v_bit] & s_set & ~blocked  # F6 line 2
                        while frontier:                     # F6 line 3
                            reachable_iterations += 1
                            region |= frontier              # F6 line 4
                            grow = 0
                            rest = frontier
                            while rest:
                                low = rest & -rest
                                grow |= adj[low]
                                rest ^= low
                            frontier = (
                                grow & s_set & ~blocked & ~region
                            )                               # F6 line 5
                        r_tmp = region                      # line 18
                    n_x &= ~r_tmp                           # line 19
                    if use_optimizations and (r_tmp & x_set):  # lines 20-23
                        n_x |= n_l & ~r_tmp
                        n_l &= r_tmp
                        n_b &= r_tmp
                    if (s_set & ~r_tmp) & x_set:            # line 24
                        if use_optimizations:               # lines 25-26
                            n_l &= ~r_tmp
                            n_b &= ~r_tmp
                    else:
                        emitted += 1
                        emit(s_set & ~r_tmp, r_tmp)         # line 27
                    r_set |= r_tmp                          # line 28
                x_prime |= v_bit                            # line 29
            return r_set | l_set                            # line 30

        # Fig. 4: t <- arbitrary vertex of S; we take the lowest index.
        start = vertex_set & -vertex_set
        mincut_branch(
            vertex_set, start, 0, start, adj[start] & vertex_set & ~start
        )

        stats = self.stats
        stats.calls += calls
        stats.loop_iterations += loops
        stats.emitted += emitted
        stats.reachable_calls += reachable_calls
        stats.reachable_iterations += reachable_iterations

    # ------------------------------------------------------------------

    def _reachable(self, s_set: int, c_set: int, l_set: int) -> int:
        """REACHABLE (Fig. 6): region of ``S \\ C`` reachable from ``L``.

        Returns the maximal connected vertex set ``R`` with
        ``L ⊆ R ⊆ (S \\ C) | L`` — a plain bitmask flood fill, cheaper
        than a full MinCutBranch descent, used for case (3) neighbors
        whose partitions were already emitted.  This is the readable
        stand-alone transcription of the figure; ``partitions_into``
        inlines the identical fill (and counts into the same stats
        fields) at its single call site.
        """
        graph = self.graph
        stats = self.stats
        stats.reachable_calls += 1
        region = l_set                                      # line 1
        frontier = (
            graph.neighbors_of_vertex(l_set.bit_length() - 1)
            & s_set
            & ~c_set
        )                                                   # line 2
        while frontier:                                     # line 3
            stats.reachable_iterations += 1
            region |= frontier                              # line 4
            frontier = (
                graph.neighborhood(frontier) & s_set & ~c_set & ~region
            )                                               # line 5
        return region                                       # line 6


def partition_mincut_branch(graph, vertex_set: int):
    """Convenience wrapper: one-shot iterator over ``P_ccp_sym(S)``.

    Raises :class:`GraphError` when the set does not induce a connected
    subgraph (a disconnected set has no ccps by definition; surfacing it
    loudly catches caller bugs).
    """
    if not graph.is_connected(vertex_set):
        raise GraphError(
            f"{bitset.format_set(vertex_set)} does not induce a connected "
            "subgraph; ccps are only defined for connected sets"
        )
    return MinCutBranch(graph).partitions(vertex_set)
