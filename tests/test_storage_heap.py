"""Tests for heap files."""

import pytest

from repro.errors import RecordNotFoundError, StorageError
from repro.storage.buffer_pool import CostMeter
from repro.storage.heap import HeapFile
from repro.storage.rid import SLOT_BITS, make_rid


@pytest.fixture
def heap(buffer_pool):
    return HeapFile(buffer_pool, "t", rows_per_page=4)


def test_insert_returns_sequential_rids(heap):
    rids = [heap.insert((i,)) for i in range(6)]
    assert rids[0] == make_rid(0, 0)
    assert rids[3] == make_rid(0, 3)
    assert rids[4] == make_rid(1, 0)  # new page after 4 rows


def test_fetch_roundtrip(heap):
    rid = heap.insert((1, "x"))
    assert heap.fetch(rid) == (1, "x")


def test_fetch_bad_rid_raises(heap):
    heap.insert((1,))
    with pytest.raises(RecordNotFoundError):
        heap.fetch(make_rid(0, 5))
    with pytest.raises(RecordNotFoundError):
        heap.fetch(make_rid(9, 0))


def test_scan_returns_all_in_physical_order(heap):
    rows = [(i,) for i in range(10)]
    heap.insert_many(rows)
    scanned = [row for _, row in heap.scan()]
    assert scanned == rows


def test_scan_page_boundaries(heap):
    heap.insert_many([(i,) for i in range(10)])
    assert heap.page_count == 3
    page_rows = [row for _, row in heap.scan_page(1)]
    assert page_rows == [(4,), (5,), (6,), (7,)]


def test_scan_page_out_of_range(heap):
    with pytest.raises(StorageError):
        list(heap.scan_page(0))


def test_delete_hides_row(heap):
    rids = heap.insert_many([(i,) for i in range(5)])
    heap.delete(rids[2])
    assert heap.row_count == 4
    assert [row[0] for _, row in heap.scan()] == [0, 1, 3, 4]
    with pytest.raises(RecordNotFoundError):
        heap.fetch(rids[2])


def test_delete_twice_raises(heap):
    rid = heap.insert((1,))
    heap.delete(rid)
    with pytest.raises(RecordNotFoundError):
        heap.delete(rid)


def test_update_in_place(heap):
    rid = heap.insert((1, "a"))
    heap.update(rid, (1, "b"))
    assert heap.fetch(rid) == (1, "b")


def test_update_deleted_raises(heap):
    rid = heap.insert((1,))
    heap.delete(rid)
    with pytest.raises(RecordNotFoundError):
        heap.update(rid, (2,))


def test_rows_per_page_validation(buffer_pool):
    with pytest.raises(StorageError):
        HeapFile(buffer_pool, "bad", rows_per_page=0)


def test_rows_per_page_must_fit_the_slot_bits(buffer_pool):
    # slot 1 << SLOT_BITS would read as slot 0 of the next page's RIDs
    HeapFile(buffer_pool, "widest", rows_per_page=1 << SLOT_BITS)
    with pytest.raises(StorageError, match="rows_per_page"):
        HeapFile(buffer_pool, "too-wide", rows_per_page=(1 << SLOT_BITS) + 1)


def test_record_not_found_names_page_and_slot(heap):
    rids = heap.insert_many([(i,) for i in range(6)])
    heap.delete(rids[5])
    with pytest.raises(RecordNotFoundError, match="^no record at page 1 slot 1$"):
        heap.fetch(rids[5])
    with pytest.raises(RecordNotFoundError, match="^no record at page 3 slot 5$"):
        heap.delete(make_rid(3, 5))
    with pytest.raises(RecordNotFoundError, match="^no record at page 0 slot 7$"):
        heap.update(make_rid(0, 7), (0,))


def test_cold_scan_costs_page_count(heap, buffer_pool):
    heap.insert_many([(i,) for i in range(40)])
    buffer_pool.clear()
    meter = CostMeter()
    list(heap.scan(meter))
    assert meter.io_reads == heap.page_count == 10


def test_cached_scan_costs_nothing(heap, buffer_pool):
    heap.insert_many([(i,) for i in range(12)])
    list(heap.scan())  # warm the cache
    meter = CostMeter()
    list(heap.scan(meter))
    assert meter.io_reads == 0
    assert meter.buffer_hits == heap.page_count


def test_fetch_sorted_page_clustering(heap, buffer_pool):
    rids = heap.insert_many([(i,) for i in range(32)])  # 8 pages
    buffer_pool.clear()
    meter = CostMeter()
    # two RIDs per page, sorted: each page read once
    targets = sorted([rids[0], rids[1], rids[4], rids[5], rids[8], rids[9]])
    got = list(heap.fetch_sorted(targets, meter))
    assert len(got) == 6
    assert meter.io_reads == 3


def test_fetch_sorted_with_keep_filter(heap):
    rids = heap.insert_many([(i,) for i in range(8)])
    got = [row for _, row in heap.fetch_sorted(sorted(rids), keep=lambda r: r[0] % 2 == 0)]
    assert [row[0] for row in got] == [0, 2, 4, 6]
