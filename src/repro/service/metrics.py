"""Run-stats observability: counters and latency histograms.

Everything here is in-process and dependency-free: monotonic counters
plus a bounded-window latency recorder per algorithm, all guarded by one
lock so concurrent :meth:`~repro.service.OptimizerService.optimize`
calls can record at once.  ``snapshot()`` returns plain dicts that are
``json.dumps``-able as-is (the CLI's ``serve-stats`` subcommand does
exactly that).
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, List, Optional

__all__ = ["LatencyHistogram", "ServiceMetrics", "render_prometheus"]

#: Samples kept per histogram; percentiles describe the most recent
#: window once a histogram overflows (count/total keep growing).
DEFAULT_MAX_SAMPLES = 8192


class LatencyHistogram:
    """Latency recorder with nearest-rank percentile queries.

    Stores up to ``max_samples`` most-recent observations in a ring
    buffer; ``count`` and ``total`` are cumulative over the histogram's
    lifetime, so throughput math stays exact even after the window rolls.
    Not thread-safe on its own — :class:`ServiceMetrics` serializes
    access.
    """

    __slots__ = ("_samples", "_count", "_total", "_max")

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES):
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self._count = 0
        self._total = 0.0
        self._max = 0.0

    def record(self, seconds: float) -> None:
        """Record one latency observation (in seconds)."""
        self._samples.append(seconds)
        self._count += 1
        self._total += seconds
        if seconds > self._max:
            self._max = seconds

    @property
    def count(self) -> int:
        """Total observations ever recorded."""
        return self._count

    @property
    def mean(self) -> Optional[float]:
        """Lifetime mean observation, or None when empty."""
        if self._count == 0:
            return None
        return self._total / self._count

    def percentile(self, p: float) -> Optional[float]:
        """Nearest-rank percentile over the retained window, in seconds."""
        if not self._samples:
            return None
        ordered: List[float] = sorted(self._samples)
        rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    def snapshot(self) -> Dict[str, float]:
        """Return count/mean/p50/p95/p99/max in milliseconds."""
        if self._count == 0:
            return {"count": 0}
        ordered = sorted(self._samples)

        def rank(p: float) -> float:
            idx = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
            return ordered[min(idx, len(ordered) - 1)] * 1e3

        return {
            "count": self._count,
            "mean_ms": self._total / self._count * 1e3,
            "p50_ms": rank(50),
            "p95_ms": rank(95),
            "p99_ms": rank(99),
            "max_ms": self._max * 1e3,
        }


class ServiceMetrics:
    """Thread-safe counters and per-algorithm latency histograms.

    One instance lives inside each :class:`~repro.service.OptimizerService`;
    ``observe`` is the single write path, ``snapshot`` the single read
    path.  Counters are monotonic — ``reset()`` starts a new observation
    epoch rather than mutating in place, which keeps concurrent readers
    coherent.
    """

    def __init__(self, max_samples: int = DEFAULT_MAX_SAMPLES):
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._totals: Dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "timeouts": 0,
            "fallbacks": 0,
            "degraded": 0,
            "fast_exact": 0,
            "anytime": 0,
            "hard_kills_avoided": 0,
            "retries": 0,
            "kernel_fast": 0,
            "kernel_dpconv": 0,
            "kernel_native_c": 0,
        }
        self._algorithms: Dict[str, Dict] = {}
        # Fraction of the memo each salvaged anytime answer had solved
        # exactly when its budget expired (0 = pure GOO, 1 = finished).
        self._salvage = LatencyHistogram(max_samples)

    def _algorithm_slot(self, algorithm: str) -> Dict:
        slot = self._algorithms.get(algorithm)
        if slot is None:
            slot = {
                "count": 0,
                "errors": 0,
                "cache_hits": 0,
                "timeouts": 0,
                "fallbacks": 0,
                "degraded": 0,
                "fast_exact": 0,
                "anytime": 0,
                "retries": 0,
                "kernel_fast": 0,
                "kernel_dpconv": 0,
                "kernel_native_c": 0,
                "histogram": LatencyHistogram(self._max_samples),
            }
            self._algorithms[algorithm] = slot
        return slot

    def observe(
        self,
        algorithm: str,
        seconds: float,
        cache_hit: bool = False,
        error: bool = False,
        timeout: bool = False,
        fallback: bool = False,
        degraded: bool = False,
        fast_exact: bool = False,
        anytime: bool = False,
        hard_kill_avoided: bool = False,
        salvage_fraction: Optional[float] = None,
        retries: int = 0,
        kernel: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> None:
        """Record one request outcome under the given algorithm label.

        ``timeout`` marks a request that exceeded its deadline; it is
        orthogonal to ``error``/``fallback`` because a timed-out request
        either failed (``error=True``) or was served a heuristic plan
        (``fallback=True``) — both still count one timeout.  ``degraded``
        marks a request served a *heuristic* plan from a ladder rung
        (admission budget or open breaker); ``fast_exact`` marks an
        over-budget one whose anytime run finished inside its deadline
        and so served the exact optimum — mutually exclusive with
        ``degraded`` by construction.  ``anytime`` marks a request served
        a *salvaged* plan by a cooperative-budget run that hit its
        deadline (valid, at most the pure-GOO cost, not exact);
        ``hard_kill_avoided`` marks a process-batch item whose worker
        cooperated with its deadline instead of being terminated and
        replaced; ``salvage_fraction`` records the fraction of the memo
        the salvaged answer had solved exactly (feeds the
        salvage-fraction histogram).  ``retries`` adds the extra worker
        attempts this request consumed.  ``kernel`` (``"fast"`` or
        ``"dpconv"``) records which enumeration engine a fresh
        optimization ran on; pass None for cache hits,
        errors, and algorithms that do not report one.  ``backend``
        (``"python"`` or ``"c"``) records which execution backend served
        a fresh dpconv-tier optimization — the compiled rung counts as
        ``kernel_native_c`` so a fleet dashboard can tell accelerated
        hosts from pure-python ones; ``"python"`` adds nothing (it is
        the implied default everywhere else).
        """
        with self._lock:
            self._totals["requests"] += 1
            slot = self._algorithm_slot(algorithm)
            slot["count"] += 1
            slot["histogram"].record(seconds)
            if timeout:
                self._totals["timeouts"] += 1
                slot["timeouts"] += 1
            if fallback:
                self._totals["fallbacks"] += 1
                slot["fallbacks"] += 1
            if degraded:
                self._totals["degraded"] += 1
                slot["degraded"] += 1
            if fast_exact:
                self._totals["fast_exact"] += 1
                slot["fast_exact"] += 1
            if anytime:
                self._totals["anytime"] += 1
                slot["anytime"] += 1
            if hard_kill_avoided:
                self._totals["hard_kills_avoided"] += 1
            if salvage_fraction is not None:
                self._salvage.record(float(salvage_fraction))
            if retries:
                self._totals["retries"] += retries
                slot["retries"] += retries
            if kernel == "fast":
                self._totals["kernel_fast"] += 1
                slot["kernel_fast"] += 1
            elif kernel == "dpconv":
                self._totals["kernel_dpconv"] += 1
                slot["kernel_dpconv"] += 1
            if backend == "c":
                self._totals["kernel_native_c"] += 1
                slot["kernel_native_c"] += 1
            if error:
                self._totals["errors"] += 1
                slot["errors"] += 1
            elif cache_hit:
                self._totals["cache_hits"] += 1
                slot["cache_hits"] += 1
            else:
                self._totals["cache_misses"] += 1

    def snapshot(self) -> Dict:
        """Return a JSON-ready copy of all counters and histograms."""
        with self._lock:
            return {
                "totals": dict(self._totals),
                "salvage_fraction": {
                    "count": self._salvage.count,
                    "mean": self._salvage.mean,
                    "p50": self._salvage.percentile(50),
                    "p95": self._salvage.percentile(95),
                },
                "algorithms": {
                    name: {
                        "count": slot["count"],
                        "errors": slot["errors"],
                        "cache_hits": slot["cache_hits"],
                        "timeouts": slot["timeouts"],
                        "fallbacks": slot["fallbacks"],
                        "degraded": slot["degraded"],
                        "fast_exact": slot["fast_exact"],
                        "anytime": slot["anytime"],
                        "retries": slot["retries"],
                        "kernel_fast": slot["kernel_fast"],
                        "kernel_dpconv": slot["kernel_dpconv"],
                        "kernel_native_c": slot["kernel_native_c"],
                        "latency": slot["histogram"].snapshot(),
                    }
                    for name, slot in sorted(self._algorithms.items())
                },
            }

    def reset(self) -> None:
        """Drop all counters and histograms (new observation epoch)."""
        with self._lock:
            for key in self._totals:
                self._totals[key] = 0
            self._algorithms.clear()
            self._salvage = LatencyHistogram(self._max_samples)


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

#: Breaker states get a stable numeric encoding so a single gauge series
#: per algorithm can be graphed/alerted on (0 is healthy).
_BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text format rules."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value without trailing float noise."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    return repr(float(value))


def render_prometheus(snapshot: Dict, prefix: str = "repro") -> str:
    """Render a service ``stats_snapshot()`` as Prometheus exposition text.

    Accepts the dict produced by
    :meth:`repro.service.OptimizerService.stats_snapshot` (or a bare
    :meth:`ServiceMetrics.snapshot`, in which case the cache, digest memo
    and breaker sections are simply absent).  Output follows the text-based
    exposition format version 0.0.4: ``# HELP``/``# TYPE`` comment pairs
    followed by samples, one metric family per block, and a trailing
    newline.  No client library is required — the service's counters are
    already monotonic and the latency histograms already expose the
    quantiles a ``summary`` needs.
    """
    lines: List[str] = []

    def family(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    def sample(name: str, value: float, labels: Optional[Dict[str, str]] = None) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape_label(str(val))}"' for key, val in labels.items()
            )
            lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            lines.append(f"{name} {_format_value(value)}")

    totals = snapshot.get("totals", {})
    total_help = {
        "requests": "Requests observed by the service.",
        "errors": "Requests that raised an optimizer error.",
        "cache_hits": "Requests served from the plan cache.",
        "cache_misses": "Requests that missed the plan cache.",
        "timeouts": "Requests that exceeded their deadline.",
        "fallbacks": "Requests served a heuristic fallback plan.",
        "degraded": "Requests served a heuristic plan from a degradation-ladder rung.",
        "fast_exact": "Over-budget requests whose anytime run finished exactly.",
        "anytime": "Requests served a salvaged plan by an expired cooperative budget.",
        "hard_kills_avoided": "Deadline workers that cooperated instead of being killed.",
        "retries": "Extra worker attempts consumed by retries.",
        "kernel_fast": "Fresh optimizations run on the fast enumeration kernel.",
        "kernel_dpconv": "Fresh optimizations run on the dpconv convolution engine.",
        "kernel_native_c": "Fresh optimizations served by the compiled C backend.",
    }
    for key, value in totals.items():
        name = f"{prefix}_{key}_total"
        family(name, "counter", total_help.get(key, f"Total {key}."))
        sample(name, value)

    for section, family_name, title in (
        ("cache", "plan_cache", "Plan cache"),
        # Front-door replays whose key resolution the digest memo skipped.
        ("digest_memo", "digest_memo", "Request-digest memo"),
    ):
        counters = snapshot.get(section)
        if not counters:
            continue
        for key, kind in (
            ("size", "gauge"),
            ("capacity", "gauge"),
            ("hits", "counter"),
            ("misses", "counter"),
            ("evictions", "counter"),
        ):
            if key not in counters:
                continue
            suffix = "_total" if kind == "counter" else ""
            name = f"{prefix}_{family_name}_{key}{suffix}"
            family(name, kind, f"{title} {key.replace('_', ' ')}.")
            sample(name, counters[key])

    salvage = snapshot.get("salvage_fraction")
    if salvage and salvage.get("count"):
        name = f"{prefix}_salvage_fraction"
        family(
            name,
            "summary",
            "Fraction of the memo solved exactly when an anytime budget expired.",
        )
        for quantile, key in (("0.5", "p50"), ("0.95", "p95")):
            if salvage.get(key) is not None:
                sample(name, salvage[key], {"quantile": quantile})
        mean = salvage.get("mean")
        if mean is not None:
            sample(f"{name}_sum", mean * salvage["count"])
        sample(f"{name}_count", salvage["count"])

    breaker = snapshot.get("breaker")
    if breaker:
        state_name = f"{prefix}_breaker_state"
        family(
            state_name,
            "gauge",
            "Circuit breaker state per algorithm (0=closed, 1=half_open, 2=open).",
        )
        for label, slot in breaker.items():
            code = _BREAKER_STATE_CODES.get(str(slot.get("state")), -1)
            sample(state_name, code, {"algorithm": label})
        failures_name = f"{prefix}_breaker_consecutive_failures"
        family(failures_name, "gauge", "Consecutive failures seen by each breaker.")
        for label, slot in breaker.items():
            sample(failures_name, slot.get("consecutive_failures", 0), {"algorithm": label})

    algorithms = snapshot.get("algorithms", {})
    if algorithms:
        algo_counters = (
            ("count", "requests", "Requests per algorithm."),
            ("errors", "errors", "Errors per algorithm."),
            ("cache_hits", "cache_hits", "Cache hits per algorithm."),
            ("timeouts", "timeouts", "Timeouts per algorithm."),
            ("fallbacks", "fallbacks", "Fallback servings per algorithm."),
            ("degraded", "degraded", "Degraded servings per algorithm."),
            ("fast_exact", "fast_exact", "Exact anytime servings per algorithm."),
            ("anytime", "anytime", "Salvaged anytime servings per algorithm."),
            ("retries", "retries", "Retries per algorithm."),
            ("kernel_fast", "kernel_fast", "Fast-kernel optimizations per algorithm."),
            (
                "kernel_dpconv",
                "kernel_dpconv",
                "Dpconv-engine optimizations per algorithm.",
            ),
            (
                "kernel_native_c",
                "kernel_native_c",
                "Compiled-C-backend optimizations per algorithm.",
            ),
        )
        for key, metric, help_text in algo_counters:
            name = f"{prefix}_algorithm_{metric}_total"
            family(name, "counter", help_text)
            for label, slot in algorithms.items():
                sample(name, slot.get(key, 0), {"algorithm": label})

        latency_name = f"{prefix}_request_latency_seconds"
        family(latency_name, "summary", "Request latency per algorithm.")
        for label, slot in algorithms.items():
            latency = slot.get("latency", {})
            count = latency.get("count", 0)
            for quantile, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"), ("0.99", "p99_ms")):
                if key in latency:
                    sample(
                        latency_name,
                        latency[key] / 1e3,
                        {"algorithm": label, "quantile": quantile},
                    )
            mean_ms = latency.get("mean_ms", 0.0)
            sample(f"{latency_name}_sum", mean_ms / 1e3 * count, {"algorithm": label})
            sample(f"{latency_name}_count", count, {"algorithm": label})

    return "\n".join(lines) + "\n"
