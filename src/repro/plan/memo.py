"""The memo table ("memotable") shared by all plan generators.

Per Sec. IV-A of the paper, all enumerators — top-down and bottom-up —
share one optimizer infrastructure: "the common functions to instantiate,
fill, and lookup the memotable, initialize and use plan classes, estimate
cardinalities, calculate costs, and compare plans.  Thus, the different
plan generators differ only in those parts of the code responsible for
enumerating csg-cmp-pairs."  This module is that shared infrastructure.

A :class:`MemoEntry` is a *plan class*: the best plan found so far for one
connected relation set, stored compactly (best split + implementation
name) so the search never allocates tree nodes; the winning
:class:`~repro.plan.jointree.JoinTree` is reconstructed afterwards.

The table may be filled lazily.  A compiled engine that hands its plan
out itself (:mod:`repro.optimizer.native`) gives the table its rows with
:meth:`MemoTable.defer`; they are loaded through :meth:`MemoTable.bulk_load`
on the first read, so a caller that never reads the memo never pays for
it, and one that does sees exactly the eagerly filled table.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, Iterator, Optional

from repro import bitset
from repro.catalog.statistics import Catalog
from repro.errors import OptimizationError
from repro.plan.jointree import JoinTree, _node

__all__ = ["MemoEntry", "MemoTable"]


class MemoEntry:
    """Best-known plan for one relation set (a "plan class").

    Attributes
    ----------
    vertex_set:
        The relation set this entry describes.
    cardinality:
        Estimated result cardinality; estimated exactly once, on first use.
    cost:
        Accumulated cost of the best plan (``inf`` until one is found;
        ``0`` for base relations under accumulating cost models).
    best_left / best_right:
        Bitsets of the winning split (0 for leaves).
    implementation:
        Name of the winning join implementation (None for leaves).
    explored:
        Top-down bookkeeping: True once all ccps for the set have been
        enumerated (prevents re-partitioning, Fig. 1 line 1).
    """

    __slots__ = (
        "vertex_set",
        "cardinality",
        "cost",
        "best_left",
        "best_right",
        "implementation",
        "explored",
    )

    def __init__(self, vertex_set: int):
        self.vertex_set = vertex_set
        self.cardinality: Optional[float] = None
        self.cost = math.inf
        self.best_left = 0
        self.best_right = 0
        self.implementation: Optional[str] = None
        self.explored = False

    def __repr__(self) -> str:
        return (
            f"MemoEntry({bitset.format_set(self.vertex_set)}, "
            f"card={self.cardinality}, cost={self.cost})"
        )


class MemoTable:
    """Associative store of :class:`MemoEntry` keyed by relation bitset.

    Also owns leaf initialization (Fig. 1 lines 1-2: ``BestTree({R_i}) <- R_i``)
    and final plan extraction.

    While rows are deferred (:meth:`defer`, and the leaves from
    construction until the first read) the ``_entries`` slot is unset and
    :meth:`__getattr__` loads them on the first access, so the accessors
    the enumerators call in their hot loops carry no check.
    """

    __slots__ = ("catalog", "_entries", "_leaf_cost", "_pending")

    def __init__(self, catalog: Catalog, leaf_cost: float = 0.0):
        self.catalog = catalog
        self._leaf_cost = leaf_cost
        #: ``(entries, rows, count)`` while rows are deferred, else None.
        #: The leaves are deferred from the start: a compiled engine that
        #: hands its plan out itself never reads them.
        n = catalog.graph.n_vertices
        self._pending = ({}, _leaf_rows(catalog, leaf_cost, n), n)

    # ------------------------------------------------------------------

    def lookup(self, vertex_set: int) -> Optional[MemoEntry]:
        """Return the entry for the set, or None if absent (Fig. 1 line 1)."""
        return self._entries.get(vertex_set)

    def get_or_create(self, vertex_set: int) -> MemoEntry:
        """Return the entry for the set, creating an unexplored one if needed."""
        entry = self._entries.get(vertex_set)
        if entry is None:
            entry = MemoEntry(vertex_set)
            self._entries[vertex_set] = entry
        return entry

    def __getitem__(self, vertex_set: int) -> MemoEntry:
        try:
            return self._entries[vertex_set]
        except KeyError:
            raise OptimizationError(
                f"no memo entry for {bitset.format_set(vertex_set)}"
            ) from None

    def __contains__(self, vertex_set: int) -> bool:
        return vertex_set in self._entries

    def __len__(self) -> int:
        pending = self._pending
        if pending is None:
            return len(self._entries)
        return len(pending[0]) + pending[2]

    def entries(self) -> Iterator[MemoEntry]:
        """Yield all entries (order unspecified)."""
        return iter(self._entries.values())

    def bulk_load(self, rows) -> None:
        """Adopt plan classes computed outside the table (the fast kernel).

        ``rows`` yields ``(vertex_set, cardinality, cost, best_left,
        best_right, implementation, explored)`` tuples — the fast
        kernel's struct-of-arrays memo, zipped.  Existing entries are
        updated in place; everything else is created.  After
        this call the table is indistinguishable from one filled by the
        reference driver, so extraction, validation, and explain need no
        kernel-specific code paths.  Deferred rows (:meth:`defer`) are
        loaded first, so ``rows`` follows them in the iteration order.
        """
        entries = self._entries
        new = MemoEntry.__new__
        for vertex_set, cardinality, cost, left, right, implementation, explored in rows:
            entry = entries.get(vertex_set)
            if entry is None:
                # Bypass __init__: every slot it would default is
                # assigned below anyway, and this loop is the single
                # hottest python-side stretch of the native backends'
                # flush (tens of thousands of rows on clique-16).
                entry = new(MemoEntry)
                entry.vertex_set = vertex_set
                entries[vertex_set] = entry
            entry.cardinality = cardinality
            entry.cost = cost
            entry.best_left = left
            entry.best_right = right
            entry.implementation = implementation
            entry.explored = explored

    def defer(self, rows, count: int) -> None:
        """Adopt ``count`` plan classes on the first read instead of now.

        ``rows`` is a lazy iterable of :meth:`bulk_load` rows, each for a
        set the table does not hold yet, so ``len`` stays exact without
        loading.  The first :meth:`lookup`, ``[]``, ``in``,
        :meth:`entries`, :meth:`get_or_create` or :meth:`bulk_load` feeds
        them to :meth:`bulk_load`; the table then equals one loaded
        eagerly, row for row and in the same order.  Rows deferred
        earlier (the leaves, at least, until the first read) come first.
        """
        pending = self._pending
        if pending is None:
            self._pending = (self._entries, rows, count)
            del self._entries
        else:
            entries, earlier, known = pending
            self._pending = (entries, chain(earlier, rows), known + count)

    def __getattr__(self, name):
        # Only reached for an unset slot: ``_entries`` while rows are
        # deferred.
        if name != "_entries":
            raise AttributeError(name)
        entries, rows, _ = self._pending
        self._pending = None
        self._entries = entries
        self.bulk_load(rows)
        return entries

    # ------------------------------------------------------------------

    def extract_plan(self, vertex_set: int) -> JoinTree:
        """Materialize the winning :class:`JoinTree` for a relation set.

        Extraction is iterative (an explicit stack in place of the
        former recursion): a deep left-deep chain produces a plan tree
        as tall as the query, and recursing per level meant queries
        beyond the interpreter recursion limit (n >= ~1000, and far less
        when called from an already-deep stack) died with
        ``RecursionError`` after the search itself had succeeded.
        """
        built: Dict[int, JoinTree] = {}
        relations = self.catalog.relations
        stack = [vertex_set]
        while stack:
            current = stack.pop()
            if current in built:
                continue
            entry = self[current]
            if entry.cost == math.inf:
                raise OptimizationError(
                    f"no plan was found for {bitset.format_set(current)}"
                )
            if not current & (current - 1):
                built[current] = _node(
                    current,
                    entry.cardinality,
                    entry.cost,
                    relations[current.bit_length() - 1].name,
                    None,
                    None,
                    None,
                )
                continue
            left = built.get(entry.best_left)
            right = built.get(entry.best_right)
            if left is None or right is None:
                stack.append(current)  # revisit once the children exist
                if right is None:
                    stack.append(entry.best_right)
                if left is None:
                    stack.append(entry.best_left)
                continue
            built[current] = _node(
                current,
                entry.cardinality,
                entry.cost,
                None,
                left,
                right,
                entry.implementation,
            )
        return built[vertex_set]


def _leaf_rows(catalog: Catalog, leaf_cost: float, n: int):
    """The :meth:`MemoTable.bulk_load` rows of the ``n`` leaves, in vertex
    order: final and explored (Fig. 1 lines 1-2), each with
    ``catalog.cardinality(v)`` as it is (an int stays an int)."""
    for vertex in range(n):
        yield (1 << vertex, catalog.cardinality(vertex), leaf_cost, 0, 0, None, True)
