"""Cost model interface.

A cost model prices one two-way join given the input and output
cardinalities; plan costs accumulate bottom-up (cost of a tree = cost of
its root join + costs of both subtrees).  The interface returns the name of
the chosen join implementation together with the cost so ``CreateTree``
can record the cheapest physical alternative, as the paper's Fig. 2
commentary requires ("If different join implementations have to be
considered, among all alternatives the cheapest join tree has to be built").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Tuple

__all__ = ["CostModel", "JoinImplementation"]


@dataclass(frozen=True)
class JoinImplementation:
    """A physical join operator with a simple two-parameter linear cost.

    ``cost = left_coefficient * |L| + right_coefficient * |R| + output_weight * |out|``
    plus optional ``log``-factors handled by subclass overrides.  This is the
    "few arithmetic operations" family of Haas et al. the paper cites for
    join cost functions.
    """

    name: str

    def cost(
        self, left_card: float, right_card: float, output_card: float
    ) -> float:
        """Return the local cost of joining (left as build/outer side)."""
        raise NotImplementedError


class CostModel(abc.ABC):
    """Prices a single join; implementations must be deterministic."""

    #: Human-readable model name for reports.
    name: str = "abstract"

    #: Declares ``join_cost(a, b, o) == join_cost(b, a, o)`` for all
    #: inputs.  Symmetric models (like C_out) make the two orientations
    #: of a ccp equally expensive, so :class:`~repro.plan.builder.PlanBuilder`
    #: and the fast kernel price only the first orientation — provably
    #: equivalent under BuildTree's strict ``<`` comparison (an equal
    #: second orientation can never replace the first) — halving
    #: ``cost_evaluations`` per ccp.  Asymmetric models keep the default
    #: ``False`` and are priced both ways, per Fig. 2.
    symmetric: bool = False

    @abc.abstractmethod
    def join_cost(
        self, left_card: float, right_card: float, output_card: float
    ) -> Tuple[float, str]:
        """Return ``(cost, implementation_name)`` for the cheapest join.

        ``left_card``/``right_card`` are the input cardinalities in the
        orientation being priced (callers price both orientations for
        asymmetric models, per BuildTree in Fig. 2); ``output_card`` is
        the join result size.  The returned cost is the *local* cost of
        this join only.
        """

    def is_symmetric(self) -> bool:
        """True iff ``join_cost(a, b, o) == join_cost(b, a, o)`` always.

        Reads the :attr:`symmetric` class flag; subclasses normally set
        the flag rather than override this method.  Consumers resolve it
        once per optimization run, never per ccp.
        """
        return self.symmetric

    def output_floor(self) -> float:
        """A factor ``f >= 0`` with ``join_cost(l, r, o)[0] >= f * o`` always.

        Branch-and-bound (:mod:`repro.optimizer.kernel`) bounds a set's
        plan cost from below by ``f`` times its estimated cardinality, so
        the bound is sound for every model whose local costs are
        non-negative.  The default ``0.0`` assumes only that; models
        whose local cost carries the output cardinality (C_out, the
        physical model's output term) return a larger factor, which
        lets more subtrees be cut.  Like :attr:`symmetric`, it describes
        the class's ``join_cost``: a subclass that overrides
        ``join_cost`` must declare its own.  Consumers resolve it once
        per run.
        """
        return 0.0

    def signature_fields(self) -> Dict[str, Any]:
        """Return the parameters that influence this model's costs.

        The plan cache keys on the cost-model class (``__module__`` and
        ``__qualname__``) plus this dict, so two differently-parameterized
        instances of the same class (say,
        :class:`~repro.cost.physical.PhysicalCostModel` with different
        output weights) must not collide to one cache entry.
        Parameterless models keep the default ``{}``; parameterized
        models must override and return every knob, JSON-serializable.
        The same dict is what :func:`repro.serialize.cost_model_to_dict`
        ships to process-pool workers, which rebuild the model as
        ``cls(**fields)``: for process mode the keys must be accepted by
        the class constructor as keyword arguments.
        """
        return {}
