"""Join trees: the output representation of the optimizers.

A join tree (Sec. II-A) is a binary tree whose leaves are base relations
and whose inner nodes are two-way joins.  During search, the optimizers
work on the compact memo representation (:mod:`repro.plan.memo`); a
:class:`JoinTree` is materialized on demand from the winning memo entries,
through :func:`_node` on the paths that build whole trees at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro import bitset

__all__ = ["JoinTree"]


@dataclass(frozen=True)
class JoinTree:
    """One node of a join tree.

    Leaves have ``relation`` set and no children; inner nodes have both
    children and a join ``implementation`` name.  ``vertex_set`` is the
    bitset of relations below the node, ``cardinality`` the estimated
    output size, and ``cost`` the accumulated cost of the subtree.
    """

    vertex_set: int
    cardinality: float
    cost: float
    relation: Optional[str] = None
    left: Optional["JoinTree"] = None
    right: Optional["JoinTree"] = None
    implementation: Optional[str] = None

    # ------------------------------------------------------------------

    @property
    def is_leaf(self) -> bool:
        """True iff the node is a base relation scan."""
        return self.relation is not None

    def n_relations(self) -> int:
        """Number of base relations in the subtree."""
        return bitset.popcount(self.vertex_set)

    def n_joins(self) -> int:
        """Number of join operators in the subtree."""
        return 0 if self.is_leaf else 1 + self.left.n_joins() + self.right.n_joins()

    def leaves(self) -> Iterator["JoinTree"]:
        """Yield the leaf nodes left-to-right."""
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def inner_nodes(self) -> Iterator["JoinTree"]:
        """Yield the join nodes in post-order."""
        if not self.is_leaf:
            yield from self.left.inner_nodes()
            yield from self.right.inner_nodes()
            yield self

    def is_left_deep(self) -> bool:
        """True iff every join's right child is a base relation."""
        if self.is_leaf:
            return True
        return self.right.is_leaf and self.left.is_left_deep()

    def depth(self) -> int:
        """Height of the tree (a single leaf has depth 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise AssertionError on violation.

        Used by tests and the examples: children partition the parent's
        vertex set, and leaf sets are singletons.
        """
        if self.is_leaf:
            assert bitset.popcount(self.vertex_set) == 1, "leaf must be a singleton"
            assert self.left is None and self.right is None
            return
        assert self.left is not None and self.right is not None
        assert self.left.vertex_set & self.right.vertex_set == 0, (
            "children must be disjoint"
        )
        assert self.left.vertex_set | self.right.vertex_set == self.vertex_set, (
            "children must partition the parent"
        )
        self.left.validate()
        self.right.validate()

    def to_expression(self) -> str:
        """Render as a parenthesized join expression, e.g. ``((R0 ⋈ R1) ⋈ R2)``."""
        if self.is_leaf:
            return self.relation
        return f"({self.left.to_expression()} ⋈ {self.right.to_expression()})"

    def pretty(self, indent: int = 0) -> str:
        """Render a multi-line operator-tree view with cards and costs."""
        pad = "  " * indent
        if self.is_leaf:
            return f"{pad}{self.relation}  [card={self.cardinality:.6g}]"
        lines: List[str] = [
            f"{pad}⋈ {self.implementation or ''}  "
            f"[card={self.cardinality:.6g} cost={self.cost:.6g}]".rstrip()
        ]
        lines.append(self.left.pretty(indent + 1))
        lines.append(self.right.pretty(indent + 1))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_expression()


_new = object.__new__


def _node(vertex_set, cardinality, cost, relation, left, right, implementation):
    """A :class:`JoinTree` built without the dataclass ``__init__``.

    The frozen ``__init__`` pays one ``object.__setattr__`` per field;
    this fills the instance ``__dict__`` directly, in field order, at
    about half the cost.  The node is the one ``JoinTree(...)`` makes:
    equal, same hash and repr, picklable, and still frozen.  Plan
    extraction, the C engines, cache-hit rebinding and wire decoding
    build every node of a tree through it.
    """
    node = _new(JoinTree)
    fields = node.__dict__
    fields["vertex_set"] = vertex_set
    fields["cardinality"] = cardinality
    fields["cost"] = cost
    fields["relation"] = relation
    fields["left"] = left
    fields["right"] = right
    fields["implementation"] = implementation
    return node
