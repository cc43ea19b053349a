"""The benchmark's arithmetic: medians, the tail rule, rates and ratios.

Every function here is pure so ``perfbench/tests`` can pin it down.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: A tail percentile is reported only where at least this many samples
#: lie beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail latency with the percentile and sample count it rests on.

    ``qualified`` is false when there are too few samples for any
    percentile to have ``TAIL_BEYOND`` samples beyond it; ``value`` is
    then the maximum and ``percentile`` 100.
    """

    value: float
    percentile: float
    samples: int
    qualified: bool


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, beyond: int = TAIL_BEYOND) -> Tail:
    """The highest percentile that has at least ``beyond`` samples above it.

    With ``n`` samples sorted ascending, the sample at 0-based index
    ``i`` has ``n - 1 - i`` samples after it, so the highest qualifying
    index is ``n - 1 - beyond`` and its percentile is ``100 * (i + 1) / n``.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    index = len(ordered) - 1 - beyond
    if index < 0:
        return Tail(ordered[-1], 100.0, len(ordered), False)
    return Tail(ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered), True)


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted ones (the base is ``attempted``)."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError("failed=%d outside [0, attempted=%d]" % (failed, attempted))
    return failed / attempted


def ratio(part: float, base: float) -> float:
    """``part / base``, and 0.0 when the base is empty (nothing to divide)."""
    if base < 0 or part < 0:
        raise ValueError("ratio of negative quantities %r / %r" % (part, base))
    return part / base if base else 0.0


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median.

    Quartiles as ``statistics.quantiles(values, n=4)`` gives them.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
