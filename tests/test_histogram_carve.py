"""The bisecting carve of :class:`SelfTuningHistogram` against the linear
carve it replaced.

The reference below is the carve and merge as they were before the carve
bisected: every bucket tested with ``_fraction`` and the list rebuilt. Random
``observe`` sequences — int, float and string keys, open bounds, points,
inverted spans, and bounds of a foreign type that must raise — go through
both; after every observation the bucket lists (bounds, ``rows`` floats,
``heat``) and the counters must be identical.
"""

from __future__ import annotations

import random

import pytest

import repro.estimate.histogram as histogram
from repro.estimate.histogram import Bucket, SelfTuningHistogram, _fraction


class LinearCarveHistogram(SelfTuningHistogram):
    """The reference: the linear carve, and one linear merge at a time."""

    def _carve(self, lo, hi, actual):
        new = []
        carved = Bucket(lo, hi, rows=actual, heat=1)
        placed = False
        for bucket in self.buckets:
            overlap = _fraction(bucket.lo, bucket.hi, lo, hi)
            if overlap <= 0.0:
                new.append(bucket)
                continue
            outside = bucket.rows * (1.0 - overlap)
            left_span = lo is not None and (bucket.lo is None or bucket.lo < lo)
            right_span = hi is not None and (bucket.hi is None or bucket.hi > hi)
            halves = (1 if left_span else 0) + (1 if right_span else 0)
            share = outside / halves if halves else 0.0
            if left_span:
                new.append(Bucket(bucket.lo, lo, rows=share, heat=bucket.heat))
            if not placed:
                new.append(carved)
                placed = True
            if right_span:
                new.append(Bucket(hi, bucket.hi, rows=share, heat=bucket.heat))
        if not placed:
            new.append(carved)
        pruned = [
            bucket
            for bucket in new
            if bucket.lo is None or bucket.hi is None or bucket.lo < bucket.hi
        ]
        if len(pruned) > len(self.buckets):
            self.splits += len(pruned) - len(self.buckets)
        self.buckets = pruned if pruned else [carved]

    def _merge_to_budget(self):
        while len(self.buckets) > self.budget:
            self._merge_coldest()

    def _merge_coldest(self):
        if len(self.buckets) < 2:
            return
        best, best_heat = 0, None
        for i in range(len(self.buckets) - 1):
            heat = self.buckets[i].heat + self.buckets[i + 1].heat
            if best_heat is None or heat < best_heat:
                best, best_heat = i, heat
        a, b = self.buckets[best], self.buckets[best + 1]
        merged = Bucket(a.lo, b.hi, rows=a.rows + b.rows, heat=max(a.heat, b.heat))
        self.buckets[best : best + 2] = [merged]
        self.merges += 1


def state(hist: SelfTuningHistogram) -> tuple:
    return (
        [(b.lo, type(b.lo), b.hi, type(b.hi), b.rows, b.heat) for b in hist.buckets],
        hist.observations,
        hist.splits,
        hist.merges,
    )


def _int_key(rng):
    return rng.randrange(-40, 41)


def _float_key(rng):
    return round(rng.uniform(-40.0, 40.0), rng.choice((0, 1, 2)))


def _number_key(rng):
    return _int_key(rng) if rng.random() < 0.5 else _float_key(rng)


def _str_key(rng):
    return "k" + "".join(rng.choice("abcde") for _ in range(rng.randrange(1, 4)))


DOMAINS = {
    "int": (_int_key, _str_key),
    "float": (_float_key, _str_key),
    "int-and-float": (_number_key, _str_key),
    "str": (_str_key, _int_key),
}


def _observation(rng, key, foreign):
    """One (lo, hi, actual): mostly ranges, some points, open and inverted
    bounds, and now and then a bound of a foreign type."""
    shape = rng.random()
    lo, hi = key(rng), key(rng)
    if shape < 0.2:
        hi = lo  # a point
    elif shape < 0.75 and hi < lo:
        lo, hi = hi, lo  # leave the rest inverted
    if rng.random() < 0.1:
        lo = None
    if rng.random() < 0.1:
        hi = None
    if rng.random() < 0.06:
        if rng.random() < 0.5:
            lo = foreign(rng)
        else:
            hi = foreign(rng)
    return lo, hi, rng.choice((0, 1, 3, 7, 20, 150, 2.5))


@pytest.mark.parametrize("budget", [2, 4, 8, 32])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_bisecting_carve_equals_the_linear_carve(domain, budget):
    rng = random.Random(f"{domain}:{budget}")
    key, foreign = DOMAINS[domain]
    raised = 0
    for _ in range(20):
        new, old = SelfTuningHistogram(budget), LinearCarveHistogram(budget)
        for _ in range(150):
            lo, hi, actual = _observation(rng, key, foreign)
            before = new.observations
            new.observe(lo, hi, actual)
            old.observe(lo, hi, actual)
            assert state(new) == state(old), (lo, hi, actual)
            raised += new.observations == before
            assert new.estimate(lo, hi) == old.estimate(lo, hi)
    assert raised  # the foreign bounds did raise, and left both untouched


def test_foreign_bound_leaves_the_histogram_untouched():
    hist = SelfTuningHistogram(budget=8)
    for lo, hi, actual in ((0, 10, 5), (20, 30, 4), (12, 14, 1)):
        hist.observe(lo, hi, actual)
    before = state(hist)
    for lo, hi in (("a", "b"), (None, "b"), ("a", None), (3, "b"), ("a", 40)):
        hist.observe(lo, hi, 9)
        assert state(hist) == before


def test_carve_is_logarithmic_in_the_bucket_count(monkeypatch):
    """Only the buckets that overlap the span reach ``_fraction``."""
    hist = SelfTuningHistogram(budget=64)
    for start in range(0, 600, 10):
        hist.observe(start, start + 10, 10)
    assert len(hist.buckets) >= 60
    calls = []

    def counting(*args):
        calls.append(args)
        return _fraction(*args)

    monkeypatch.setattr(histogram, "_fraction", counting)
    hist.observe(305, 315, 10)
    assert len(calls) == 2
