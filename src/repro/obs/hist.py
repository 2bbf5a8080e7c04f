"""Fixed-bucket log2 histograms.

The scheduler's metrics need distributions, not just totals: query latency,
queue wait, engine steps per query, buffer-pool fetch run lengths. A
:class:`LogHistogram` covers many orders of magnitude with a fixed, small
bucket array — bucket ``i`` counts values in ``(2^(e-1), 2^e]`` for
exponents from 2^-20 (≈ a microsecond) to 2^30 — so recording is O(1),
merging is element-wise, and the bucket layout is identical everywhere
(per-session and server-wide histograms merge exactly).

Two invariants matter for reconciliation with the flat counters:

* ``sum`` accumulates the *exact* recorded values (integer-valued inputs
  stay exact up to 2^53), so a histogram's total reconciles equality-level
  with the counter it shadows (e.g. steps-per-query sum == quanta total).
* ``count`` is the number of ``record`` calls, so rates derived from
  counters and histograms agree.

Percentiles come from the bucket upper bounds, clamped to the observed
maximum — a p99 can never exceed any actually-recorded value.
"""

from __future__ import annotations

import math
from typing import Any

#: bucket exponent range: 2^MIN_EXP is the smallest upper bound, values
#: above 2^MAX_EXP land in the overflow bucket
MIN_EXP = -20
MAX_EXP = 30
#: bucket count: one per exponent, plus the underflow (<= 2^MIN_EXP) and
#: overflow (> 2^MAX_EXP) buckets
BUCKETS = MAX_EXP - MIN_EXP + 2

_INF = math.inf
_frexp = math.frexp


def bucket_index(value: float) -> int:
    """The bucket a value falls into.

    Bucket 0 holds everything at or below ``2^MIN_EXP`` (including zero and
    negatives); bucket ``i`` (1-based over exponents) holds
    ``(2^(MIN_EXP+i-1), 2^(MIN_EXP+i)]``; the last bucket is overflow.
    Exact powers of two land in the bucket they bound (upper-inclusive),
    computed via ``frexp`` so no float-log rounding can misplace them.
    """
    if value <= 0.0 or value != value:  # value != value: NaN
        return 0
    if value == _INF:  # frexp(inf) reports exponent 0, not "huge"
        return BUCKETS - 1
    mantissa, exponent = _frexp(value)  # value == mantissa * 2**exponent
    index = (exponent - 1 if mantissa == 0.5 else exponent) - MIN_EXP
    return 0 if index < 0 else BUCKETS - 1 if index >= BUCKETS else index


def bucket_upper_bound(index: int) -> float:
    """Upper bound of a bucket (``inf`` for the overflow bucket)."""
    if index >= BUCKETS - 1:
        return math.inf
    return 2.0 ** (MIN_EXP + index)


class LogHistogram:
    """A fixed-bucket log2 histogram with exact sum and p50/p95/p99."""

    __slots__ = ("name", "counts", "count", "sum", "max", "min")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.counts = [0] * BUCKETS
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self.min = math.inf

    def record(self, value: float) -> None:
        """Record one observation."""
        self.counts[bucket_index(value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if value < self.min:
            self.min = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of recorded values (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> float:
        """The smallest bucket upper bound covering ``fraction`` of the
        recorded values, clamped to the observed maximum (0 when empty)."""
        if self.count == 0:
            return 0.0
        threshold = fraction * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= threshold and bucket_count:
                return min(bucket_upper_bound(index), self.max)
        return self.max  # pragma: no cover - unreachable (cumulative == count)

    @property
    def p50(self) -> float:
        """Median bucket bound."""
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        """95th-percentile bucket bound."""
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        """99th-percentile bucket bound."""
        return self.percentile(0.99)

    def merge(self, other: "LogHistogram") -> None:
        """Fold another histogram's observations into this one (bucket
        layouts are identical by construction)."""
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max
        if other.min < self.min:
            self.min = other.min

    def snapshot(self) -> "LogHistogram":
        """An independent deep copy."""
        copy = LogHistogram(self.name)
        copy.merge(self)
        return copy

    def buckets(self) -> list[tuple[float, int]]:
        """Non-empty ``(upper_bound, count)`` pairs, ascending."""
        return [
            (bucket_upper_bound(index), count)
            for index, count in enumerate(self.counts)
            if count
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary."""
        return {
            "name": self.name,
            "count": self.count,
            "sum": self.sum,
            "max": self.max if self.count else 0.0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "buckets": [[bound, count] for bound, count in self.buckets()],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram({self.name!r}, count={self.count}, sum={self.sum}, "
            f"p50={self.p50}, p99={self.p99})"
        )
