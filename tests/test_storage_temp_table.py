"""Tests for temp-table spill storage."""

import pytest

from repro.storage.buffer_pool import CostMeter
from repro.storage.rid import make_rid
from repro.storage.temp_table import TempTable


def test_append_and_scan_roundtrip(buffer_pool):
    temp = TempTable(buffer_pool, "t", rids_per_page=4)
    rids = [make_rid(i, 0) for i in range(10)]
    temp.extend(rids)
    assert list(temp.scan()) == rids
    assert len(temp) == 10


def test_pages_flush_at_capacity(buffer_pool):
    temp = TempTable(buffer_pool, "t", rids_per_page=4)
    temp.extend(make_rid(i, 0) for i in range(9))
    assert temp.page_count == 2  # 8 flushed, 1 in the tail buffer


def test_writes_charge_meter(buffer_pool):
    meter = CostMeter()
    temp = TempTable(buffer_pool, "t", rids_per_page=2)
    temp.extend((make_rid(i, 0) for i in range(6)), meter)
    assert meter.io_writes == 3


def test_scan_charges_reads_when_cold(buffer_pool):
    temp = TempTable(buffer_pool, "t", rids_per_page=2)
    temp.extend(make_rid(i, 0) for i in range(6))
    buffer_pool.clear()
    meter = CostMeter()
    list(temp.scan(meter))
    assert meter.io_reads == 3


def test_sorted_rids(buffer_pool):
    temp = TempTable(buffer_pool, "t", rids_per_page=4)
    temp.extend([make_rid(3, 0), make_rid(1, 0), make_rid(2, 0)])
    assert temp.sorted_rids() == [make_rid(1, 0), make_rid(2, 0), make_rid(3, 0)]


def test_release_frees_pages(buffer_pool):
    temp = TempTable(buffer_pool, "t", rids_per_page=2)
    temp.extend(make_rid(i, 0) for i in range(6))
    pages_before = len(buffer_pool.pager)
    temp.release()
    assert len(buffer_pool.pager) == pages_before - 3
    assert len(temp) == 0
    with pytest.raises(RuntimeError):
        temp.append(make_rid(0, 0))


def test_scan_includes_unflushed_tail(buffer_pool):
    temp = TempTable(buffer_pool, "t", rids_per_page=100)
    temp.extend([make_rid(1, 0), make_rid(2, 0)])
    assert temp.page_count == 0
    assert list(temp.scan()) == [make_rid(1, 0), make_rid(2, 0)]
