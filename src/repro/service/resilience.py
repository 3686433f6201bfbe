"""Resilience primitives: admission control, degradation, breaker, retry.

The serving layer's exact enumerators are super-polynomial in the worst
case — a single hostile request (say a 20-relation clique) can burn a
core for its whole deadline, and a broken worker path can fail the same
way over and over.  This module gives :class:`~repro.service.OptimizerService`
the pieces to *predict* and *contain* that cost instead of merely timing
it out:

* :func:`estimate_ccps` — admission control's price of a request: the
  search-space size (#ccp) the enumerator would traverse, as the
  Table-I closed form for the fixed shapes or an exact count that stops
  once it passes the budget.  It lives in :mod:`repro.optimizer.native`
  beside the C count, because ``"auto"`` prices a request by the same
  count; this module re-exports it.
* the **degradation ladder** — ``exact → anytime → ikkbz → goo``.
  ``exact`` is whichever engine the request resolved to (``"auto"``
  already picks dpconv where its #ccp passes the break-even count, and
  a dpconv run is admitted by ``n`` alone, never by #ccp).
  ``anytime`` runs that engine under a cooperative deadline.  Below it,
  IKKBZ is the polynomial-time *optimal left-deep* rung for acyclic
  graphs and GOO the universal greedy bushy rung.  :func:`heuristic_rung_for` picks
  the highest applicable heuristic rung, :func:`run_rung` executes one.
* :class:`CircuitBreaker` — per-algorithm-label closed → open →
  half-open breaker over consecutive failures with a cooldown and a
  single half-open probe.
* :class:`RetryPolicy` / :class:`RetryBudget` — bounded exponential
  backoff with *deterministic* jitter (derived from the retry token, so
  test runs and replays schedule identically) and a per-batch cap on
  total retry attempts.

Everything here is dependency-free and thread-safe where it needs to be;
the service wires these pieces together in :mod:`repro.service.core` and
the process executor honors the retry schedule in
:mod:`repro.service.executor`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.catalog.statistics import Catalog
from repro.errors import AdmissionError, OptimizationError
from repro.graph.query_graph import QueryGraph
from repro.optimizer.native import AdmissionEstimate, estimate_ccps
from repro.plan.jointree import JoinTree

__all__ = [
    "AdmissionEstimate",
    "CircuitBreaker",
    "LADDER_RUNGS",
    "ResilienceConfig",
    "RetryBudget",
    "RetryPolicy",
    "estimate_ccps",
    "heuristic_rung_for",
    "run_rung",
]

#: Degradation ladder, best rung first.  ``exact`` is whatever registry
#: engine the request resolved to; ``anytime`` runs that engine under a
#: cooperative deadline and salvages the partial memo into a valid plan
#: at expiry (at worst the GOO plan, often far better — and exact
#: whenever the search finishes early); the rest are polynomial-time
#: heuristics with shrinking plan-quality guarantees.
LADDER_RUNGS = ("exact", "anytime", "ikkbz", "goo")

@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs for the service's resilience layer.

    ``max_ccp_budget=None`` disables admission control entirely;
    ``max_retries=0`` disables retry.  The breaker is always armed — with
    the default threshold it only matters once a label fails five times
    in a row, which a healthy deployment never sees.

    A dpconv run has no knob of its own: admission rejects it past the
    one dpconv size limit, the last key of
    :data:`repro.optimizer.api.DPCONV_BREAK_EVEN_CCPS`, which is also
    the largest ``n`` ``"auto"`` names dpconv for.
    """

    #: Reject exact enumeration when the estimated #ccp exceeds this
    #: (``None`` = admission control off).  A dpconv run answers to the
    #: dpconv size limit instead: it allocates its ``O(2^n)`` arrays
    #: before its first budget check, so ``n`` is what bounds it.
    max_ccp_budget: Optional[int] = None
    #: Consecutive failures/timeouts per algorithm label that open the
    #: circuit breaker.
    breaker_threshold: int = 5
    #: Seconds an open breaker waits before allowing a half-open probe.
    breaker_cooldown_seconds: float = 30.0
    #: Retry attempts per batch item for transient worker failures
    #: (crash, pipe EOF, corrupted payload); 0 disables retry.
    max_retries: int = 0
    #: First backoff delay; doubles per attempt up to ``retry_max_delay``.
    retry_base_delay: float = 0.05
    retry_max_delay: float = 2.0
    #: Deterministic jitter as a fraction of the computed delay.
    retry_jitter: float = 0.25
    #: Cap on *total* retry attempts across one batch, so a batch of
    #: uniformly crashing items cannot multiply its own cost unbounded.
    retry_budget_per_batch: int = 16
    #: Deadline for the anytime rung, on which an over-budget request
    #: runs its exact engine under a cooperative deadline, when the
    #: request itself carries none.  ``None`` means requests without a
    #: deadline skip the rung (an unbounded "anytime" run is just the
    #: exact rung) and go straight to a heuristic.
    anytime_default_deadline_seconds: Optional[float] = 0.25

    def __post_init__(self) -> None:
        if self.max_ccp_budget is not None and self.max_ccp_budget < 1:
            raise OptimizationError(
                f"max_ccp_budget must be >= 1 or None, got {self.max_ccp_budget}"
            )
        if self.breaker_threshold < 1:
            raise OptimizationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_seconds < 0:
            raise OptimizationError(
                "breaker_cooldown_seconds must be >= 0, "
                f"got {self.breaker_cooldown_seconds}"
            )
        if self.max_retries < 0:
            raise OptimizationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_budget_per_batch < 0:
            raise OptimizationError(
                "retry_budget_per_batch must be >= 0, "
                f"got {self.retry_budget_per_batch}"
            )
        if (
            self.anytime_default_deadline_seconds is not None
            and not self.anytime_default_deadline_seconds > 0
        ):
            raise OptimizationError(
                "anytime_default_deadline_seconds must be > 0 or None, "
                f"got {self.anytime_default_deadline_seconds}"
            )

    def retry_policy(self) -> Optional["RetryPolicy"]:
        """Build the batch retry policy, or ``None`` when retry is off."""
        if self.max_retries == 0:
            return None
        return RetryPolicy(
            max_retries=self.max_retries,
            base_delay=self.retry_base_delay,
            max_delay=self.retry_max_delay,
            jitter=self.retry_jitter,
        )


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------

def heuristic_rung_for(graph: QueryGraph) -> str:
    """Pick the best heuristic rung for a *connected* graph.

    Acyclic graphs get IKKBZ — polynomial time yet provably the optimal
    left-deep, cross-product-free order under ASI cost functions — and
    everything else gets GOO, the greedy bushy heuristic that works on
    any connected shape.
    """
    if graph.is_acyclic():
        return "ikkbz"
    return "goo"


def run_rung(rung: str, catalog: Catalog) -> Tuple[JoinTree, str]:
    """Execute one degradation ladder rung; return ``(plan, rung_used)``.

    Each rung falls through to the next if it cannot handle the query
    (the rung chooser should prevent that, but degradation must not
    introduce a *new* failure mode on the path meant to avoid failures)
    — the returned rung name reflects what actually ran.  The heuristics
    optimize their own objectives, whatever the request's cost model.
    """
    if rung == "ikkbz":
        from repro.heuristics.ikkbz import ikkbz_optimal_left_deep

        try:
            return ikkbz_optimal_left_deep(catalog), "ikkbz"
        except OptimizationError:
            rung = "goo"
    if rung == "goo":
        from repro.heuristics.goo import greedy_operator_ordering

        return greedy_operator_ordering(catalog), "goo"
    if rung == "anytime":
        raise AdmissionError(
            "the anytime rung is a deadline-scoped exact run; the service "
            "core executes it through optimize_request, not run_rung"
        )
    raise AdmissionError(
        f"unknown degradation rung {rung!r}; expected one of "
        f"{LADDER_RUNGS[1:]}"
    )


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

#: Breaker states (string-valued so snapshots are JSON-ready).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class _BreakerSlot:
    __slots__ = ("state", "consecutive_failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    """Per-label circuit breaker: closed → open → half-open → closed.

    ``allow(label)`` is the admission gate: it returns ``False`` while
    the label's circuit is open (within the cooldown), and in half-open
    state admits exactly **one** probe request at a time.  Callers must
    pair every admitted exact run with ``record_success`` or
    ``record_failure`` so the probe resolves; a success closes the
    circuit, a failure re-opens it and restarts the cooldown.

    The clock is injectable for tests (defaults to
    :func:`time.monotonic`).  All methods are thread-safe.
    """

    def __init__(
        self,
        threshold: int = 5,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise OptimizationError(
                f"breaker threshold must be >= 1, got {threshold}"
            )
        if cooldown_seconds < 0:
            raise OptimizationError(
                f"breaker cooldown must be >= 0, got {cooldown_seconds}"
            )
        self.threshold = threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._slots: Dict[str, _BreakerSlot] = {}

    def _slot(self, label: str) -> _BreakerSlot:
        slot = self._slots.get(label)
        if slot is None:
            slot = _BreakerSlot()
            self._slots[label] = slot
        return slot

    def allow(self, label: str) -> bool:
        """Gate one exact run under ``label``; may admit a half-open probe."""
        with self._lock:
            slot = self._slot(label)
            if slot.state == BREAKER_OPEN:
                if self._clock() - slot.opened_at >= self.cooldown_seconds:
                    slot.state = BREAKER_HALF_OPEN
                    slot.probing = False
                else:
                    return False
            if slot.state == BREAKER_HALF_OPEN:
                if slot.probing:
                    return False
                slot.probing = True
            return True

    def record_success(self, label: str) -> None:
        """Resolve one admitted run as a success (closes a half-open probe)."""
        with self._lock:
            slot = self._slot(label)
            slot.consecutive_failures = 0
            if slot.state == BREAKER_HALF_OPEN:
                slot.state = BREAKER_CLOSED
                slot.probing = False

    def record_failure(self, label: str) -> None:
        """Resolve one admitted run as a failure/timeout."""
        with self._lock:
            slot = self._slot(label)
            if slot.state == BREAKER_HALF_OPEN:
                slot.state = BREAKER_OPEN
                slot.opened_at = self._clock()
                slot.probing = False
                return
            slot.consecutive_failures += 1
            if (
                slot.state == BREAKER_CLOSED
                and slot.consecutive_failures >= self.threshold
            ):
                slot.state = BREAKER_OPEN
                slot.opened_at = self._clock()

    def state(self, label: str) -> str:
        """Return the label's current state (never mutates)."""
        with self._lock:
            slot = self._slots.get(label)
            return slot.state if slot is not None else BREAKER_CLOSED

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready per-label breaker state for ``stats_snapshot()``."""
        with self._lock:
            now = self._clock()
            return {
                label: {
                    "state": slot.state,
                    "consecutive_failures": slot.consecutive_failures,
                    "seconds_since_opened": (
                        round(now - slot.opened_at, 3)
                        if slot.state != BREAKER_CLOSED
                        else None
                    ),
                }
                for label, slot in sorted(self._slots.items())
            }

    def reset(self) -> None:
        """Forget all labels (fresh breaker epoch)."""
        with self._lock:
            self._slots.clear()


# ----------------------------------------------------------------------
# Retry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    ``delay(attempt, token)`` returns the sleep before retry *attempt*
    (0-based: the delay between the first failure and the first retry is
    ``delay(0)``).  Jitter is derived from a SHA-256 hash of
    ``(token, attempt)`` rather than a PRNG, so a given request retries
    on an identical schedule every run — which is what makes the chaos
    tests reproducible.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise OptimizationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise OptimizationError("retry delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise OptimizationError(
                f"retry jitter must be in [0, 1], got {self.jitter}"
            )

    def delay(self, attempt: int, token: str = "") -> float:
        """Backoff before retry ``attempt`` (deterministic in ``token``)."""
        if attempt < 0:
            raise OptimizationError(f"attempt must be >= 0, got {attempt}")
        delay = min(self.max_delay, self.base_delay * (2 ** attempt))
        if self.jitter == 0 or delay == 0:
            return delay
        digest = hashlib.sha256(
            f"{token}:{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2 ** 32
        return delay * (1.0 + self.jitter * (fraction - 0.5))


class RetryBudget:
    """Thread-safe cap on total retry attempts within one batch."""

    def __init__(self, limit: int):
        if limit < 0:
            raise OptimizationError(
                f"retry budget must be >= 0, got {limit}"
            )
        self.limit = limit
        self._lock = threading.Lock()
        self._spent = 0

    def try_acquire(self) -> bool:
        """Consume one retry attempt; False once the budget is exhausted."""
        with self._lock:
            if self._spent >= self.limit:
                return False
            self._spent += 1
            return True

    @property
    def spent(self) -> int:
        with self._lock:
            return self._spent

    @property
    def remaining(self) -> int:
        with self._lock:
            return max(0, self.limit - self._spent)
