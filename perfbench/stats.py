"""Small statistics the benchmark reports with: percentiles with enough
samples behind them, failure tallies, and the two-sided comparison of two
sets of runs."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
TAIL_PERCENTILES = (99, 95, 90, 75)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values):
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it, as ``(p, value)``; ``None`` when
    the sample is too small for any of them."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if beyond(n, p) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


class Tally:
    """Operations attempted and failed.  An operation fails when it raises,
    returns a non-finite output, exits non-zero, or fails an output check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failed: int = 0, reason: str | None = None):
        if not (0 <= failed <= attempted):
            raise ValueError("failed must lie in [0, attempted]")
        self.attempted += attempted
        self.failed += failed
        if failed and reason:
            self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else math.inf


def win_fraction(base, new, better: str) -> float:
    """Share of (base, new) pairs, matched by position, where ``new`` is
    better; ties count for neither side."""
    pairs = list(zip(base, new))
    if not pairs:
        return 0.0
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    return wins / len(pairs)


def verdict(base, new, better: str, bound: float) -> str:
    """better, same, worse or unresolved for one workload and metric.

    better: ``new`` wins at least nine tenths of the pairs and the medians
    differ by more than the base runs' inter-quartile distance.
    unresolved: not better, and either side spreads wider than ``bound``,
    unless every run of ``new`` is better than every run of ``base``.
    worse: the median of ``new`` is worse by more than ``bound`` of the base
    median.  Otherwise same.
    """
    sign = 1.0 if better == "higher" else -1.0
    q1, med_b, q3 = quartiles(base)
    med_n = quartiles(new)[1]
    gain = sign * (med_n - med_b)
    if win_fraction(base, new, better) >= 0.9 and gain > q3 - q1:
        return "better"
    all_better = all(sign * (c - b) > 0 for c in new for b in base)
    if (spread(base) > bound or spread(new) > bound) and not all_better:
        return "unresolved"
    if -gain > bound * abs(med_b):
        return "worse"
    return "same"
