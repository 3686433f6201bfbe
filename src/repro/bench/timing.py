"""Timing helpers shared by the experiment harness and the benchmark gates.

The paper averages repeated runs per input ("we computed the average for
every algorithm run for a given input", Sec. IV-C); ``time_callable``
mirrors that with an adaptive repeat count so fast calls are measured
over enough iterations to rise above timer resolution, while slow calls
are not repeated needlessly.

The gates compare two *legs* (a baseline and a candidate callable) and
need a different discipline: the legs are run in alternating order so
machine-wide drift cannot land on just one of them, and either each
leg's best run (:func:`alternate`) or the median ratio of time-adjacent
pairs (:func:`median_pair_ratio`) is compared.  Scheduler preemption
only ever adds time, so per-leg minima converge on the true cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Sequence, Tuple

__all__ = [
    "Sample",
    "TimingResult",
    "alternate",
    "geomean",
    "median_pair_ratio",
    "time_callable",
    "timed",
]


@dataclass(frozen=True)
class TimingResult:
    """Aggregate of repeated timings, in seconds."""

    best: float
    average: float
    repeats: int

    @property
    def milliseconds(self) -> float:
        """Average in milliseconds (the charts' unit)."""
        return self.average * 1e3


def time_callable(
    fn: Callable[[], object],
    min_repeats: int = 3,
    max_repeats: int = 50,
    time_budget: float = 1.0,
) -> TimingResult:
    """Time ``fn`` adaptively: at least ``min_repeats`` runs, more for fast
    functions, stopping once ``time_budget`` seconds have been spent."""
    samples: List[float] = []
    total = 0.0
    while len(samples) < max_repeats:
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        samples.append(elapsed)
        total += elapsed
        if len(samples) >= min_repeats and total >= time_budget:
            break
    return TimingResult(
        best=min(samples),
        average=sum(samples) / len(samples),
        repeats=len(samples),
    )


@dataclass(frozen=True)
class Sample:
    """What a leg returns when it times itself.

    A leg whose call includes work that must not count (building and
    tearing down an optimizer, a server boot, a cold pass) measures the
    part that matters and returns it here; ``seconds`` then replaces the
    wall time of the whole call.
    """

    seconds: float
    result: Any = None


def timed(fn: Callable[[], Any], keep: bool = True) -> Tuple[float, Any]:
    """Run ``fn`` once; return ``(seconds, result)``, honouring a :class:`Sample`.

    With ``keep=False`` a plain result is dropped inside the timed
    region, as a caller that ignores it would: its teardown is part of
    what the leg costs.  A :class:`Sample`'s result lies outside its
    measured interval and is always returned.
    """
    started = time.perf_counter()
    result = fn()
    if isinstance(result, Sample):
        return result.seconds, result.result
    if not keep:
        result = None
    return time.perf_counter() - started, result


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive ratios."""
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def alternate(
    legs: Sequence[Tuple[Callable[[], Any], int]],
) -> Tuple[List[float], List[Any]]:
    """Best seconds and first result per leg over alternating runs.

    ``legs`` holds ``(callable, runs)`` pairs.  Round ``i`` runs every leg
    that has runs left, in the given order on even rounds and reversed on
    odd ones, so the first round always starts with the first leg.  Only
    the first round's results are returned (see :func:`timed` for how
    later ones are dropped).
    """
    best = [math.inf] * len(legs)
    first: List[Any] = [None] * len(legs)
    for index in range(max(runs for _, runs in legs)):
        order = range(len(legs)) if index % 2 == 0 else reversed(range(len(legs)))
        for leg in order:
            fn, runs = legs[leg]
            if index < runs:
                seconds, result = timed(fn, keep=index == 0)
                best[leg] = min(best[leg], seconds)
                if index == 0:
                    first[leg] = result
    return best, first


def median_pair_ratio(
    baseline: Callable[[], Any],
    candidate: Callable[[], Any],
    pairs: int,
    inner: int = 1,
) -> Tuple[float, float, float]:
    """Median of ``t(candidate) / t(baseline)`` over time-adjacent pairs.

    Each timed leg aggregates ``inner`` runs (so a leg of a fast call is
    long enough to average out scheduler noise), and the order within a
    pair alternates.  Pairing in time cancels load drift that independent
    per-leg minima cannot.  Returns ``(median ratio, best candidate
    seconds, best baseline seconds)``, both per run.
    """

    def leg(fn):
        return sum(timed(fn, keep=False)[0] for _ in range(inner)) / inner

    ratios, candidates, baselines = [], [], []
    for index in range(pairs):
        if index % 2 == 0:
            base = leg(baseline)
            cand = leg(candidate)
        else:
            cand = leg(candidate)
            base = leg(baseline)
        ratios.append(cand / base)
        candidates.append(cand)
        baselines.append(base)
    ratios.sort()
    return ratios[len(ratios) // 2], min(candidates), min(baselines)
