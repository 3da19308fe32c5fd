"""Latency accounting in constant memory.

Both the in-process KMS (simulated rekey waits) and the networked front end
(wall-clock reserve latency) record one duration per completed operation
for the life of the service, so neither may keep a list of them.
"""

from __future__ import annotations

import math
from array import array


class LatencyHistogram:
    """Durations in log-spaced buckets, in constant memory: the count, sum,
    min and max are exact, and ``percentile(q)`` is the geometric middle of
    the bucket holding the nearest-rank order statistic (exactly the min or
    the max at the first or last rank, and the min when the statistic falls
    in the first bucket and durations below ``FLOOR``, zero among them, were
    added).  Bucket ``i`` spans ``FLOOR * 2**(i/8)`` up to
    ``FLOOR * 2**((i+1)/8)``, so between ``FLOOR`` (1 ns) and the last
    bucket's top (~18 min) a percentile is within ``RELATIVE_ERROR`` =
    2**(1/16) - 1 (~4.4 %) of the exact one.  ``total`` is a plain running
    sum in the order durations were added.
    """

    FLOOR = 1e-9
    BUCKETS_PER_DOUBLING = 8
    BUCKETS = 320
    RELATIVE_ERROR = 2 ** (1 / (2 * BUCKETS_PER_DOUBLING)) - 1

    def __init__(self) -> None:
        self.counts = array("Q", bytes(8 * self.BUCKETS))
        self.count = 0
        self.total = 0.0
        self.low = math.inf
        self.high = -math.inf

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.low:
            self.low = seconds
        if seconds > self.high:
            self.high = seconds
        index = 0
        if seconds > self.FLOOR:
            index = int(math.log2(seconds / self.FLOOR) * self.BUCKETS_PER_DOUBLING)
            if index >= self.BUCKETS:
                index = self.BUCKETS - 1
        self.counts[index] += 1

    def __len__(self) -> int:
        return self.count

    def __eq__(self, other: object) -> bool:
        """Equal buckets, count, running sum, min and max: the same durations
        added in the same order always compare equal."""
        if not isinstance(other, LatencyHistogram):
            return NotImplemented
        return (self.counts, self.count, self.total, self.low, self.high) == (
            other.counts,
            other.count,
            other.total,
            other.low,
            other.high,
        )

    def percentile(self, q: float) -> float:
        """The nearest-rank ``q``-th percentile (0 when empty)."""
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        rank = max(math.ceil(q / 100.0 * self.count), 1)
        if rank >= self.count:
            return self.high if self.count else 0.0
        if rank == 1:
            return self.low
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                break
        if index == 0 and self.low < self.FLOOR:
            return self.low  # zero waits: the first bucket's middle means nothing
        middle = self.FLOOR * 2 ** ((index + 0.5) / self.BUCKETS_PER_DOUBLING)
        return min(max(middle, self.low), self.high)
