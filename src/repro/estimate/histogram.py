"""Self-tuning equi-depth histograms refined from scan feedback.

A classic static histogram is built by a one-shot ANALYZE pass and decays
as data drifts. This one is built *only* from observed scan results (the
"Novel Selectivity Estimation Strategy" feedback idea): every completed
range scan reports (lo, hi, actual rows) and the histogram carves its
bucket boundaries to match, splitting the bucket that produced the worst
q-error and merging cold neighbors to stay within a bounded bucket budget.

Keys are the first component of an index key (any totally ordered Python
value — int, float, str). Mixed-type domains that raise ``TypeError`` on
comparison simply skip the observation: the histogram is an accelerator,
never a correctness dependency.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import add, attrgetter
from typing import Any

__all__ = ["Bucket", "SelfTuningHistogram"]

_LOWER = attrgetter("lo")


class Bucket:
    """One half-open key span ``[lo, hi)`` with an observed row count.

    ``lo=None`` / ``hi=None`` are the -inf / +inf sentinels. ``heat``
    counts how often scans touched the bucket — the merge policy folds the
    coldest adjacent pair when the budget is exceeded.
    """

    __slots__ = ("lo", "hi", "rows", "heat")

    def __init__(self, lo: Any, hi: Any, rows: float = 0.0, heat: int = 0) -> None:
        self.lo = lo
        self.hi = hi
        self.rows = rows
        self.heat = heat

    def contains(self, key: Any) -> bool:
        if self.lo is not None and key < self.lo:
            return False
        if self.hi is not None and key >= self.hi:
            return False
        return True

    def describe(self) -> str:
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"[{lo},{hi}):{self.rows:.0f}"


def _fraction(b_lo: Any, b_hi: Any, lo: Any, hi: Any) -> float:
    """Fraction of bucket [b_lo, b_hi) overlapped by query range [lo, hi].

    Linear interpolation when all four bounds are numeric; otherwise a
    coarse containment rule (full / half / none) that never divides by a
    key difference.
    """
    # clip the query range to the bucket
    c_lo = b_lo if lo is None else (lo if b_lo is None else max(lo, b_lo))
    c_hi = b_hi if hi is None else (hi if b_hi is None else min(hi, b_hi))
    if c_lo is not None and c_hi is not None and c_lo >= c_hi:
        # a range touching the bucket at a single boundary point overlaps
        # nothing of it (buckets are half-open); equality probes never
        # reach here — they take the containment path in ``estimate`` and
        # ``_observe_point``
        return 0.0
    if c_lo == b_lo and c_hi == b_hi:
        return 1.0
    numeric = all(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        for value in (b_lo, b_hi, c_lo, c_hi)
    )
    if numeric and b_hi > b_lo:
        return max(0.0, min(1.0, (c_hi - c_lo) / (b_hi - b_lo)))
    # unbounded or non-numeric: partial overlap counts half
    return 0.5


class SelfTuningHistogram:
    """A bounded list of ordered buckets refined by observation."""

    def __init__(self, budget: int = 32) -> None:
        self.budget = max(2, budget)
        # one unbounded bucket with no evidence: estimate() returns None
        # until the first observation teaches us anything
        self.buckets: list[Bucket] = [Bucket(None, None)]
        self.observations = 0
        self.splits = 0
        self.merges = 0

    # -- estimation ------------------------------------------------------------

    def estimate(self, lo: Any, hi: Any) -> float | None:
        """Estimated rows in [lo, hi], or None with no evidence yet."""
        if self.observations == 0:
            return None
        total = 0.0
        try:
            if lo is not None and hi is not None and lo == hi:
                # equality probe: the containing bucket's belief. A bucket
                # refined by point observations carries the per-key count
                # directly; an untouched one only supports a uniform guess.
                for bucket in self.buckets:
                    if bucket.contains(lo):
                        return bucket.rows if bucket.heat else bucket.rows * 0.5
                return 0.0
            for bucket in self.buckets:
                if lo is not None and bucket.hi is not None and bucket.hi <= lo:
                    continue
                if hi is not None and bucket.lo is not None and bucket.lo > hi:
                    break
                total += bucket.rows * _fraction(bucket.lo, bucket.hi, lo, hi)
        except TypeError:
            # mixed-type keys: no usable estimate
            return None
        return total

    # -- refinement ------------------------------------------------------------

    def observe(self, lo: Any, hi: Any, actual: float) -> None:
        """Refine from one completed scan of [lo, hi] that saw ``actual`` rows.

        The observed span is carved out as its own bucket (splitting the
        buckets containing its endpoints — the ones whose uniform
        assumption just produced the error) and assigned the true count;
        surrounding spans keep their proportional share. Then the coldest
        adjacent pair is merged until the budget holds.
        """
        try:
            if lo is not None and hi is not None and lo == hi:
                self._observe_point(lo, float(max(actual, 0)))
            else:
                self._carve(lo, hi, float(max(actual, 0)))
        except TypeError:
            return
        self.observations += 1
        if len(self.buckets) > self.budget:
            self._merge_to_budget()

    def _observe_point(self, key: Any, actual: float) -> None:
        """Equality probe: a zero-width range cannot be carved (a ``[k, k)``
        bucket is degenerate), so blend the containing bucket's belief
        toward the observation instead. All-duplicate-key domains live
        entirely on this path."""
        for bucket in self.buckets:
            if bucket.contains(key):
                bucket.rows = max(bucket.rows, actual) if bucket.heat == 0 else (
                    0.5 * bucket.rows + 0.5 * actual
                )
                bucket.heat += 1
                return

    def _carve(self, lo: Any, hi: Any, actual: float) -> None:
        """Give ``[lo, hi]`` a bucket of its own, in O(log B) comparisons
        and one splice.

        The buckets are contiguous and sorted, so only ``[first, end)`` —
        found by bisecting on the lower bounds — can overlap the observed
        span; every other bucket meets it at most in a boundary point and
        is left as it is. Each bisect compares a bound of the span with the
        buckets' bounds before anything changes, so a bound of another type
        raises ``TypeError`` with the histogram untouched.
        """
        buckets = self.buckets
        first = 0 if lo is None else bisect_right(buckets, lo, 1, key=_LOWER) - 1
        end = len(buckets) if hi is None else bisect_left(buckets, hi, 1, key=_LOWER)
        end = max(first, end)  # an inverted span overlaps nothing
        new: list[Bucket] = []
        carved = Bucket(lo, hi, rows=actual, heat=1)
        placed = False
        for bucket in buckets[first:end]:
            overlap = _fraction(bucket.lo, bucket.hi, lo, hi)
            if overlap <= 0.0:
                new.append(bucket)
                continue
            # split off the pieces of this bucket outside the observed span
            outside = bucket.rows * (1.0 - overlap)
            left_span = (
                lo is not None
                and (bucket.lo is None or bucket.lo < lo)
            )
            right_span = (
                hi is not None
                and (bucket.hi is None or bucket.hi > hi)
            )
            halves = (1 if left_span else 0) + (1 if right_span else 0)
            share = outside / halves if halves else 0.0
            if left_span:
                new.append(Bucket(bucket.lo, lo, rows=share, heat=bucket.heat))
            if not placed:
                new.append(carved)
                placed = True
            if right_span:
                new.append(Bucket(hi, bucket.hi, rows=share, heat=bucket.heat))
        # drop zero-width buckets produced by carving at an existing edge
        pruned = [
            bucket
            for bucket in new
            if bucket.lo is None or bucket.hi is None or bucket.lo < bucket.hi
        ]
        grown = len(pruned) - (end - first)
        buckets[first:end] = pruned
        if not placed and (lo is None or hi is None or lo < hi):
            # no bucket took the span (only an inverted one, with the
            # unbounded sentinels): it goes last, as it always has
            buckets.append(carved)
            grown += 1
        if grown > 0:
            self.splits += grown

    def _merge_to_budget(self) -> None:
        """Fold the adjacent pair with the least combined heat (the
        leftmost such pair) until the budget holds; the pair heats are
        summed once and patched around each fold."""
        buckets = self.buckets
        heats = [bucket.heat for bucket in buckets]
        pairs = list(map(add, heats, heats[1:]))
        while len(buckets) > self.budget:
            best = pairs.index(min(pairs))
            a, b = buckets[best], buckets[best + 1]
            merged = Bucket(a.lo, b.hi, rows=a.rows + b.rows, heat=max(a.heat, b.heat))
            buckets[best : best + 2] = [merged]
            heats[best : best + 2] = [merged.heat]
            del pairs[best]
            if best:
                pairs[best - 1] = heats[best - 1] + merged.heat
            if best < len(pairs):
                pairs[best] = merged.heat + heats[best + 1]
            self.merges += 1

    def copy(self) -> "SelfTuningHistogram":
        """Deep copy for a frozen snapshot (scatter fetches read the
        statement-start state while the live histogram keeps refining)."""
        clone = SelfTuningHistogram(budget=self.budget)
        clone.buckets = [
            Bucket(bucket.lo, bucket.hi, rows=bucket.rows, heat=bucket.heat)
            for bucket in self.buckets
        ]
        clone.observations = self.observations
        clone.splits = self.splits
        clone.merges = self.merges
        return clone

    # -- reporting -------------------------------------------------------------

    def describe(self) -> str:
        spans = " ".join(bucket.describe() for bucket in self.buckets[:8])
        more = f" (+{len(self.buckets) - 8} more)" if len(self.buckets) > 8 else ""
        return (
            f"{len(self.buckets)}/{self.budget} buckets, "
            f"{self.observations} observations, {self.splits} splits, "
            f"{self.merges} merges: {spans}{more}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "buckets": len(self.buckets),
            "budget": self.budget,
            "observations": self.observations,
            "splits": self.splits,
            "merges": self.merges,
        }
