"""Tests for the Section 6 hybrid RID list."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import EngineConfig
from repro.storage.buffer_pool import BufferPool
from repro.storage.hybrid_list import HybridRidList, RidListRegion
from repro.storage.pager import Pager
from repro.storage.rid import RID, make_rid, rid_page

SMALL = EngineConfig(static_rid_buffer_size=4, allocated_rid_buffer_size=10)


def make_list(config=SMALL) -> HybridRidList:
    pager = Pager()
    return HybridRidList(BufferPool(pager, 32), "l", config)


def rids(n: int) -> list[RID]:
    return [make_rid(i, i % 7) for i in range(n)]


def test_empty_region():
    hybrid = make_list()
    assert hybrid.region is RidListRegion.EMPTY
    assert len(hybrid) == 0
    assert not hybrid.may_contain(make_rid(0, 0))


def test_static_region_below_threshold():
    hybrid = make_list()
    hybrid.extend(rids(4))
    assert hybrid.region is RidListRegion.STATIC
    assert hybrid.allocations == 0


def test_promotion_to_allocated():
    hybrid = make_list()
    hybrid.extend(rids(5))
    assert hybrid.region is RidListRegion.ALLOCATED
    assert hybrid.allocations == 1


def test_spill_to_temp_table():
    hybrid = make_list()
    hybrid.extend(rids(11))
    assert hybrid.region is RidListRegion.SPILLED
    assert hybrid.spills == 1
    assert len(hybrid) == 11


def test_membership_exact_in_memory():
    hybrid = make_list()
    hybrid.extend(rids(8))
    assert hybrid.is_exact_filter
    assert hybrid.may_contain(make_rid(3, 3))
    assert not hybrid.may_contain(make_rid(100, 0))


def test_membership_no_false_negatives_after_spill():
    hybrid = make_list()
    members = rids(30)
    hybrid.extend(members)
    assert not hybrid.is_exact_filter
    for rid in members:
        assert hybrid.may_contain(rid)


def test_sorted_rids_across_regions():
    for count in (0, 3, 7, 25):
        hybrid = make_list()
        data = [make_rid(i * 13 % 50, 0) for i in range(count)]
        hybrid.extend(data)
        assert hybrid.sorted_rids() == sorted(data)


def test_iter_unsorted_preserves_insertion_for_static():
    hybrid = make_list()
    data = [make_rid(3, 0), make_rid(1, 0), make_rid(2, 0)]
    hybrid.extend(data)
    assert list(hybrid.iter_unsorted()) == data


def test_refilter_in_memory():
    hybrid = make_list()
    hybrid.extend(rids(8))
    dropped = hybrid.refilter(lambda rid: rid_page(rid) % 2 == 0)
    assert dropped == 4
    assert len(hybrid) == 4
    assert all(rid_page(rid) % 2 == 0 for rid in hybrid.iter_unsorted())


def test_refilter_spilled_raises():
    hybrid = make_list()
    hybrid.extend(rids(20))
    with pytest.raises(RuntimeError):
        hybrid.refilter(lambda rid: True)


def test_refilter_empty_is_noop():
    hybrid = make_list()
    assert hybrid.refilter(lambda rid: False) == 0


def test_discard_resets_everything():
    hybrid = make_list()
    hybrid.extend(rids(25))
    hybrid.discard()
    assert hybrid.region is RidListRegion.EMPTY
    assert len(hybrid) == 0


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=60))
def test_contents_preserved_across_all_regions(count):
    hybrid = make_list()
    data = [make_rid(i, 0) for i in range(count)]
    hybrid.extend(data)
    assert sorted(hybrid.sorted_rids()) == sorted(data)
    assert len(hybrid) == count
    for rid in data:
        assert hybrid.may_contain(rid)
