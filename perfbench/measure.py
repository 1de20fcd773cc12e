"""Percentiles and the counters read through the servers' ``stats`` op."""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10
#: Runs of consecutive completions ``throughput_rps`` takes its median
#: over.
RATE_SLICES = 10

#: Stats fields that are settings or gauges, not counters.
NOT_COUNTERS = frozenset((
    "queue_depth", "max_queue", "max_batch", "max_wait_ms", "inflight",
    "min_batch", "max_batch_limit", "direct_below", "routing_epoch",
    "partitions", "backends_alive", "backends_total", "hedge_delay_s",
    "latency_ms", "subrequest_latency_ms", "batch_size_histogram"))


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile: the smallest value with ``level`` % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[min(_rank(len(ordered), level), len(ordered)) - 1]


def _rank(n: int, level: float) -> int:
    # The epsilon keeps 99.9 % of 10,000 at rank 9,990, not 9,991.
    return max(1, math.ceil(level / 100.0 * n - 1e-9))


def samples_beyond(n: int, level: float) -> int:
    """Samples strictly above the nearest-rank ``level`` percentile."""
    return n - _rank(n, level)


def highest_tail_level(n: int, levels: Iterable[float] = (99.9, 99, 90)
                       ) -> Optional[float]:
    """The highest level that leaves ``TAIL_BEYOND`` samples beyond it."""
    fitting = [lvl for lvl in levels
               if samples_beyond(n, lvl) >= TAIL_BEYOND]
    return max(fitting) if fitting else None


def samples_for_tail(level: float) -> int:
    """The fewest samples that leave ``TAIL_BEYOND`` beyond ``level``."""
    n = TAIL_BEYOND
    while samples_beyond(n, level) < TAIL_BEYOND:
        n += 1
    return n


def median(values: Sequence[float]) -> float:
    return percentile(values, 50) if values else 0.0


def median_rate(ends: Sequence[float], start: float,
                slices: int = RATE_SLICES) -> float:
    """Completions per second: the median over ``slices`` runs of
    consecutive completions (one completion per run when there are
    fewer than twice ``slices``), each timed from the completion before
    it.

    Ends left over after the last full run are not counted.  Against
    a total over the whole window, a stall that holds up a few of the
    runs moves this as little as it moves a median latency.
    """
    ordered = sorted(ends)
    size = max(1, len(ordered) // slices)
    rates = []
    previous = start
    for last in range(size - 1, len(ordered), size):
        rates.append(size / (ordered[last] - previous))
        previous = ordered[last]
    return median(rates)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 where nothing was measured."""
    return numerator / denominator if denominator else 0.0


def flatten(stats: Dict[str, Any], prefix: str = "") -> Dict[str, float]:
    """Counters of a ``stats`` response as ``dotted.name -> value``."""
    out: Dict[str, float] = {}
    for key, value in stats.items():
        if key in NOT_COUNTERS:
            continue
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(flatten(value, name + "."))
        elif isinstance(value, (int, float)) and \
                not isinstance(value, bool):
            out[name] = value
    return out


def delta(before: Dict[str, float], after: Dict[str, float]
          ) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def zero_counters(readings: Iterable[Dict[str, float]]) -> List[str]:
    """Counters that read 0 in every reading that has them."""
    seen: Dict[str, bool] = {}
    for reading in readings:
        for name, value in reading.items():
            seen[name] = seen.get(name, True) and value == 0
    return sorted(name for name, zero in seen.items() if zero)
