"""Tests for the hashed bitmap filter [Babb79]."""

import pytest
from hypothesis import given, strategies as st

from repro.storage.bitmap import BitmapFilter
from repro.storage.rid import make_rid

rid_strategy = st.tuples(
    st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=63)
).map(lambda pair: make_rid(*pair))


def test_added_rid_is_found():
    bitmap = BitmapFilter(1024)
    rid = make_rid(5, 3)
    bitmap.add(rid)
    assert rid in bitmap
    assert bitmap.may_contain(rid)


def test_empty_bitmap_contains_nothing():
    bitmap = BitmapFilter(1024)
    assert make_rid(1, 1) not in bitmap


@given(st.lists(rid_strategy, max_size=200))
def test_no_false_negatives(rids):
    bitmap = BitmapFilter(4096)
    bitmap.add_many(rids)
    for rid in rids:
        assert rid in bitmap


def test_false_positive_rate_is_reasonable():
    bitmap = BitmapFilter(1 << 14)
    members = [make_rid(i, i % 32) for i in range(500)]
    bitmap.add_many(members)
    probes = [make_rid(100_000 + i, i % 32) for i in range(2000)]
    false_positives = sum(1 for rid in probes if rid in bitmap)
    # fill factor ~ 500/16384 ~ 3%; single-hash FP rate should be near that
    assert false_positives / len(probes) < 0.10


def test_fill_factor_and_population():
    bitmap = BitmapFilter(256)
    for i in range(20):
        bitmap.add(make_rid(i, 0))
    assert bitmap.population == 20
    assert 0 < bitmap.fill_factor() <= 20 / 256


def test_minimum_size_enforced():
    with pytest.raises(ValueError):
        BitmapFilter(4)


def test_size_for_scales_with_expected():
    small = BitmapFilter.size_for(10)
    large = BitmapFilter.size_for(10_000)
    assert large > small
    assert small >= 64


def test_size_for_zero():
    assert BitmapFilter.size_for(0) == 64


def test_set_bit_count_le_population():
    bitmap = BitmapFilter(64)  # force collisions
    for i in range(200):
        bitmap.add(make_rid(i, 1))
    assert bitmap.set_bit_count() <= 64
    assert bitmap.population == 200
