"""Summary statistics with the benchmark's reporting rules."""

import math

# A tail is only reported where at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(n):
    """The highest whole percentile with at least ``TAIL_MIN_BEYOND``
    of ``n`` samples beyond it, or None when ``n`` is too small for any
    tail at or above the median.  Workloads fix ``n`` (the corpus or
    schedule size), so the percentile reported never depends on how a
    run went."""
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    return math.floor(100 * (n - TAIL_MIN_BEYOND) / n)


def pass_count(seconds, pass_s, minimum):
    """Passes in a run of ``seconds``: ``seconds`` over the workload's
    nominal pass length ``pass_s``, and at least ``minimum``.  The count
    depends on ``seconds`` alone, never on how fast a run goes, so a
    figure over the passes has as many samples on every run and every
    commit."""
    return max(minimum, int(round(seconds / pass_s)))


def percentile(values, pct):
    """Nearest-rank percentile of ``values`` (``pct`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values):
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
