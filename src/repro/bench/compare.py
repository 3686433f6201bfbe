"""A/B comparison of two algorithms over a workload, with statistics.

The experiment harness answers "regenerate the paper's table"; this
module answers the practitioner's question — *is algorithm A faster than
B on my workload, and by how much, reliably?* — with per-instance
pairing, win rates, and a sign-test p-value (no scipy needed; the
binomial tail is exact).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Iterable, List

from repro.bench.runner import time_optimizer
from repro.bench.timing import geomean
from repro.catalog.workload import QueryInstance

__all__ = ["ComparisonResult", "compare_algorithms"]


@dataclass
class ComparisonResult:
    """Paired timing comparison of two algorithms."""

    algorithm_a: str
    algorithm_b: str
    #: per-instance speedup of A over B (>1 means A faster).
    speedups: List[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.speedups)

    @property
    def wins_a(self) -> int:
        return sum(1 for s in self.speedups if s > 1.0)

    @property
    def median_speedup(self) -> float:
        return statistics.median(self.speedups)

    @property
    def geometric_mean_speedup(self) -> float:
        return geomean(self.speedups)

    @property
    def sign_test_p_value(self) -> float:
        """Two-sided exact sign test on "A faster than B" per instance.

        Small p: the direction is consistent, not timing noise.  Ties
        (exactly 1.0) are dropped, per the standard test.
        """
        wins = sum(1 for s in self.speedups if s > 1.0)
        losses = sum(1 for s in self.speedups if s < 1.0)
        n = wins + losses
        if n == 0:
            return 1.0
        k = min(wins, losses)
        tail = sum(math.comb(n, i) for i in range(0, k + 1)) / 2.0 ** n
        return min(1.0, 2.0 * tail)

    def summary(self) -> str:
        return (
            f"{self.algorithm_a} vs {self.algorithm_b} over {self.n} "
            f"queries: median speedup {self.median_speedup:.2f}x, "
            f"geo-mean {self.geometric_mean_speedup:.2f}x, "
            f"{self.algorithm_a} wins {self.wins_a}/{self.n} "
            f"(sign test p={self.sign_test_p_value:.3g})"
        )


def compare_algorithms(
    algorithm_a: str,
    algorithm_b: str,
    instances: Iterable[QueryInstance],
    time_budget: float = 0.2,
) -> ComparisonResult:
    """Time both algorithms on every instance; return paired statistics.

    Measurements are interleaved per instance (A then B on the same
    input) so drift affects both sides equally, and each side is ranked
    by its best run: preemption only adds time, so minima converge
    while a mean over the budget absorbs every stall.
    """
    result = ComparisonResult(algorithm_a=algorithm_a, algorithm_b=algorithm_b)
    for instance in instances:
        timing_a = time_optimizer(algorithm_a, instance, time_budget)
        timing_b = time_optimizer(algorithm_b, instance, time_budget)
        result.speedups.append(timing_b.best / timing_a.best)
    if not result.speedups:
        raise ValueError("no instances supplied")
    return result
