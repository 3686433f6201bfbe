"""Cooperative execution budgets for the exact enumeration engines.

A :class:`Budget` is a small handle carried by an optimizer run that
bounds how long the exact search may keep enumerating: a wall-clock
deadline, an optional node-expansion cap (deterministic — used by tests
that must not depend on machine speed), or both.  The engines check it
*cooperatively* on their hot loops — there is no signal, no watcher
thread, and no ``terminate()`` involved — and when it expires they stop
cleanly, flush every finished subproblem into the
:class:`~repro.plan.memo.MemoTable`, and let
:func:`repro.plan.salvage.salvage_plan` complete the partial memo into a
valid plan.

Check discipline (the ≤1% kernel-overhead ``anytime`` gate in
``benchmarks/gates.py`` holds the engines to this):

* :meth:`charge` is called once per *node expansion* (one memo
  subproblem explored / one connected set settled).  Node expansions are
  microsecond-scale units of work, so the single ``monotonic()`` read it
  performs is noise.
* :meth:`check` is the stride-check primitive for loops *inside* one
  node expansion (a huge set's ccp emission or submask scan): callers
  keep their own countdown and invoke it every few hundred iterations,
  bounding deadline overshoot without paying a clock read per iteration.

Expiry is signalled by raising :class:`BudgetExpired` — control flow,
not an error: the exception unwinds the enumeration machinery exactly
once, the engine catches it at its top level, and the partially-filled
memo is the (valuable) result.  It deliberately does **not** subclass
:class:`~repro.errors.OptimizationError`, so generic error handling
cannot swallow it before the engine's salvage path runs.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import OptimizationError

__all__ = ["Budget", "BudgetExpired"]


class BudgetExpired(Exception):
    """The active :class:`Budget` ran out mid-enumeration.

    Raised by :meth:`Budget.charge` / :meth:`Budget.check`; engines
    catch it at their top level and fall through to memo salvage.
    """


class Budget:
    """Wall-clock deadline and/or node-expansion cap for one run.

    Parameters
    ----------
    deadline_seconds:
        Wall-clock allowance, measured from construction on the
        monotonic clock.  ``None`` means no time limit.
    node_cap:
        Maximum number of node expansions (:meth:`charge` calls weighted
        by their ``nodes`` argument).  Deterministic across machines, so
        tests use it instead of timing.  ``None`` means no cap.
    clock:
        Injection point for tests; defaults to :func:`time.monotonic`.

    At least one limit must be given — an unlimited budget is a bug in
    the caller (pass no budget at all instead).
    """

    __slots__ = ("deadline_at", "node_cap", "nodes", "expired", "reason", "_clock")

    def __init__(
        self,
        deadline_seconds: Optional[float] = None,
        node_cap: Optional[int] = None,
        clock=time.monotonic,
    ):
        if deadline_seconds is None and node_cap is None:
            raise OptimizationError(
                "a Budget needs a deadline_seconds or a node_cap "
                "(omit the budget entirely for an unbounded run)"
            )
        if deadline_seconds is not None and not deadline_seconds > 0:
            raise OptimizationError(
                f"deadline_seconds must be > 0, got {deadline_seconds!r}"
            )
        if node_cap is not None and node_cap < 1:
            raise OptimizationError(f"node_cap must be >= 1, got {node_cap!r}")
        self._clock = clock
        self.deadline_at = (
            None if deadline_seconds is None else clock() + deadline_seconds
        )
        self.node_cap = node_cap
        self.nodes = 0
        self.expired = False
        self.reason: Optional[str] = None

    # ------------------------------------------------------------------

    def _expire(self, reason: str) -> None:
        self.expired = True
        self.reason = reason
        raise BudgetExpired(reason)

    def charge(self, nodes: int = 1) -> None:
        """Account ``nodes`` expansions; raise :class:`BudgetExpired` if over.

        Called once per node expansion, so both the cap and the clock are
        checked unconditionally — the clock read is negligible against
        the work one expansion performs.
        """
        self.nodes += nodes
        if self.node_cap is not None and self.nodes >= self.node_cap:
            self._expire(f"node cap reached ({self.nodes} >= {self.node_cap})")
        if self.deadline_at is not None and self._clock() >= self.deadline_at:
            self._expire("deadline reached")

    def check(self) -> None:
        """Clock-only check for intra-expansion loops (caller strides it)."""
        if self.deadline_at is not None and self._clock() >= self.deadline_at:
            self._expire("deadline reached")
        if self.node_cap is not None and self.nodes >= self.node_cap:
            self._expire(f"node cap reached ({self.nodes} >= {self.node_cap})")

    def remaining_seconds(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when no deadline is set)."""
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - self._clock())

    def __repr__(self) -> str:
        limits = []
        if self.deadline_at is not None:
            limits.append(f"remaining={self.remaining_seconds():.3f}s")
        if self.node_cap is not None:
            limits.append(f"nodes={self.nodes}/{self.node_cap}")
        state = "expired" if self.expired else "live"
        return f"Budget({', '.join(limits)}, {state})"
