"""Tests for the LRU buffer pool and cost attribution."""

import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.buffer_pool import ENTRY_CPU_COST, RECORD_CPU_COST, BufferPool, CostMeter
from repro.storage.pager import Pager, PageKind


def _fill(pager: Pager, count: int) -> list[int]:
    return [pager.allocate(PageKind.HEAP, payload=i).page_id for i in range(count)]


def test_miss_charges_meter(pager, buffer_pool, meter):
    (page_id,) = _fill(pager, 1)
    buffer_pool.clear()
    buffer_pool.get(page_id, meter)
    assert meter.io_reads == 1
    assert meter.buffer_hits == 0


def test_hit_charges_no_io(pager, buffer_pool, meter):
    (page_id,) = _fill(pager, 1)
    buffer_pool.clear()
    buffer_pool.get(page_id, meter)
    buffer_pool.get(page_id, meter)
    assert meter.io_reads == 1
    assert meter.buffer_hits == 1


def test_lru_evicts_oldest(pager):
    pool = BufferPool(pager, capacity=2)
    ids = _fill(pager, 3)
    pool.clear()
    pool.get(ids[0])
    pool.get(ids[1])
    pool.get(ids[2])  # evicts ids[0]
    assert ids[0] not in pool
    assert ids[1] in pool and ids[2] in pool


def test_lru_access_refreshes_recency(pager):
    pool = BufferPool(pager, capacity=2)
    ids = _fill(pager, 3)
    pool.clear()
    pool.get(ids[0])
    pool.get(ids[1])
    pool.get(ids[0])  # refresh 0: now 1 is oldest
    pool.get(ids[2])
    assert ids[1] not in pool
    assert ids[0] in pool


def test_capacity_one_works(pager):
    pool = BufferPool(pager, capacity=1)
    ids = _fill(pager, 2)
    pool.clear()
    pool.get(ids[0])
    pool.get(ids[1])
    assert len(pool) == 1


def test_capacity_zero_rejected(pager):
    with pytest.raises(ValueError):
        BufferPool(pager, capacity=0)


def test_allocation_charges_write(pager, buffer_pool, meter):
    buffer_pool.allocate(PageKind.TEMP, meter=meter)
    assert meter.io_writes == 1


def test_meter_reads_by_kind(pager, buffer_pool, meter):
    heap_page = pager.allocate(PageKind.HEAP)
    index_page = pager.allocate(PageKind.INDEX)
    buffer_pool.clear()
    buffer_pool.get(heap_page.page_id, meter)
    buffer_pool.get(index_page.page_id, meter)
    assert meter.reads_by_kind[PageKind.HEAP] == 1
    assert meter.reads_by_kind[PageKind.INDEX] == 1


def test_evict_random_fraction(pager, buffer_pool):
    ids = _fill(pager, 40)
    for page_id in ids:
        buffer_pool.get(page_id)
    evicted = buffer_pool.evict_random(0.5, random.Random(7))
    assert evicted == 20
    assert len(buffer_pool) == len(ids) - 20


def test_evict_random_on_empty_cache(pager, buffer_pool):
    buffer_pool.clear()
    assert buffer_pool.evict_random(0.5, random.Random(7)) == 0


def test_hit_ratio(pager, buffer_pool):
    (page_id,) = _fill(pager, 1)
    buffer_pool.clear()
    buffer_pool.hits = buffer_pool.misses = 0
    buffer_pool.get(page_id)
    buffer_pool.get(page_id)
    assert buffer_pool.hit_ratio == pytest.approx(0.5)


def test_meter_merge_and_snapshot():
    a = CostMeter(name="a")
    a.io_reads = 3
    a.charge_entries(40)
    a.charge_records(7)
    b = CostMeter(name="b")
    b.io_writes = 2
    b.charge_records(5)
    b.merge(a)
    assert (b.io_reads, b.io_writes, b.entries, b.records) == (3, 2, 40, 12)
    assert b.total == 5 + (40 * ENTRY_CPU_COST + 12 * RECORD_CPU_COST)
    snapshot = b.snapshot()
    b.io_reads += 1
    b.charge_entries(1)
    assert snapshot.io_reads == 3 and snapshot.entries == 40


def test_meter_total_mixes_io_and_cpu():
    meter = CostMeter()
    meter.io_reads = 2
    meter.charge_entries(250)
    meter.charge_records(3)
    assert meter.cpu == 250 * ENTRY_CPU_COST + 3 * RECORD_CPU_COST
    assert meter.total == 2 + meter.cpu
    assert meter.total == pytest.approx(2.053)
    assert meter.io_total == 2


_counts = st.integers(min_value=0, max_value=10**6)
_meters = st.lists(
    st.builds(
        CostMeter, io_reads=_counts, io_writes=_counts, buffer_hits=_counts,
        entries=_counts, records=_counts,
        reads_by_kind=st.fixed_dictionaries({kind: _counts for kind in PageKind}),
    ),
    max_size=8,
)


@given(_meters, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_merging_meters_in_any_order_gives_the_same_counts_and_total(meters, rng):
    """Counts add exactly: however the same charges are grouped and
    ordered, the merged meter — and so its total — is the same."""
    once = CostMeter.merged(meters)
    shuffled = meters[:]
    rng.shuffle(shuffled)
    cut = rng.randint(0, len(shuffled))
    halves = CostMeter.merged(
        [CostMeter.merged(shuffled[:cut]), CostMeter.merged(shuffled[cut:])]
    )
    assert asdict(halves) == asdict(once)
    assert halves.total == once.total
    assert once.entries == sum(meter.entries for meter in meters)
    assert once.records == sum(meter.records for meter in meters)


# -- NullMeter ---------------------------------------------------------------


def test_null_meter_counters_stay_zero(pager, buffer_pool):
    from repro.storage.buffer_pool import NULL_METER

    ids = _fill(pager, 8)
    buffer_pool.clear()
    for page_id in ids:
        buffer_pool.get(page_id)          # miss, default NULL_METER
        buffer_pool.get(page_id)          # hit
    buffer_pool.allocate(PageKind.TEMP)   # write
    NULL_METER.charge_entries(10)
    NULL_METER.charge_records(10)
    NULL_METER.merge(CostMeter(io_reads=5))
    assert NULL_METER.io_reads == 0
    assert NULL_METER.io_writes == 0
    assert NULL_METER.buffer_hits == 0
    assert NULL_METER.entries == NULL_METER.records == 0
    assert all(count == 0 for count in NULL_METER.reads_by_kind.values())
    assert NULL_METER.total == 0.0


def test_null_meter_is_a_cost_meter():
    from repro.storage.buffer_pool import NULL_METER, NullMeter

    assert isinstance(NULL_METER, CostMeter)
    assert isinstance(NULL_METER, NullMeter)


# -- get_many / prefetch ------------------------------------------------------


def test_get_many_matches_sequential_gets(pager):
    ids = _fill(pager, 12)
    pool_a = BufferPool(pager, capacity=8)
    pool_b = BufferPool(pager, capacity=8)
    meter_a, meter_b = CostMeter(), CostMeter()
    # same access pattern with a repeat: hits and misses must match exactly
    pattern = ids[:6] + ids[2:8]
    for page_id in pattern:
        pool_a.get(page_id, meter_a)
    pages = pool_b.get_many(pattern, meter_b)
    assert [page.page_id for page in pages] == pattern
    assert meter_b.io_reads == meter_a.io_reads
    assert meter_b.buffer_hits == meter_a.buffer_hits
    assert meter_b.reads_by_kind == meter_a.reads_by_kind
    assert (pool_b.hits, pool_b.misses) == (pool_a.hits, pool_a.misses)


def test_prefetch_loads_only_uncached_pages(pager, buffer_pool, meter):
    ids = _fill(pager, 6)
    buffer_pool.clear()
    buffer_pool.get(ids[1])
    buffer_pool.get(ids[3])
    loaded = buffer_pool.prefetch(ids, meter)
    assert loaded == 4
    assert meter.io_reads == 4
    assert meter.buffer_hits == 0  # cached pages charge nothing
    assert all(page_id in buffer_pool for page_id in ids)
    assert buffer_pool.prefetched == 4


def test_prefetch_respects_window(pager, buffer_pool, meter):
    ids = _fill(pager, 10)
    buffer_pool.clear()
    assert buffer_pool.prefetch(ids, meter, window=3) == 3
    assert meter.io_reads == 3
    assert sum(1 for page_id in ids if page_id in buffer_pool) == 3


def test_prefetch_default_window_is_configurable(pager):
    pool = BufferPool(pager, capacity=32, read_ahead_window=2)
    ids = _fill(pager, 5)
    pool.clear()
    assert pool.prefetch(ids) == 2


def test_prefetched_page_hits_on_subsequent_get(pager, buffer_pool, meter):
    (page_id,) = _fill(pager, 1)
    buffer_pool.clear()
    buffer_pool.prefetch([page_id], meter)
    buffer_pool.get(page_id, meter)
    assert meter.io_reads == 1
    assert meter.buffer_hits == 1


def test_evict_random_is_uniform_without_key_copy(pager, buffer_pool):
    ids = _fill(pager, 40)
    buffer_pool.clear()
    for page_id in ids:
        buffer_pool.get(page_id)
    rng = random.Random(11)
    evicted = buffer_pool.evict_random(0.25, rng)
    assert evicted == 10
    assert len(buffer_pool) == 30
    survivors = {page_id for page_id in ids if page_id in buffer_pool}
    assert len(survivors) == 30


# -- pinning ----------------------------------------------------------------


def test_pinned_page_survives_evict_random(pager, buffer_pool):
    ids = _fill(pager, 20)
    buffer_pool.clear()
    for page_id in ids:
        buffer_pool.get(page_id)
    buffer_pool.pin(ids[0])
    buffer_pool.evict_random(1.0, random.Random(5))
    assert ids[0] in buffer_pool
    assert len(buffer_pool) == 1
    buffer_pool.unpin(ids[0])


def test_evict_random_rate_not_diluted_by_pins(pager, buffer_pool):
    # Regression: victims used to be sampled over *all* cached pages and
    # pinned ones filtered out afterwards, so a long-lived pinned run (a
    # join hash build holding its current read run across quanta) silently
    # shrank the interference tick. Sampling must cover unpinned pages only.
    ids = _fill(pager, 20)
    buffer_pool.clear()
    for page_id in ids:
        buffer_pool.get(page_id)
    for page_id in ids[:10]:
        buffer_pool.pin(page_id)
    evicted = buffer_pool.evict_random(0.5, random.Random(7))
    assert evicted == 5  # half of the 10 *eligible* pages, exactly
    assert all(page_id in buffer_pool for page_id in ids[:10])
    for page_id in ids[:10]:
        buffer_pool.unpin(page_id)


def test_evict_random_single_unpinned_page_is_found(pager, buffer_pool):
    # With every page but one pinned, the old index-sampling scheme would
    # usually pick only pinned positions and evict nothing; the tick must
    # still land on the one eligible page.
    ids = _fill(pager, 12)
    buffer_pool.clear()
    for page_id in ids:
        buffer_pool.get(page_id)
    for page_id in ids[1:]:
        buffer_pool.pin(page_id)
    for seed in range(5):
        buffer_pool.get(ids[0])  # re-admit the victim for each round
        assert buffer_pool.evict_random(0.1, random.Random(seed)) == 1
        assert ids[0] not in buffer_pool
    for page_id in ids[1:]:
        buffer_pool.unpin(page_id)


def test_evict_random_all_pinned_evicts_nothing(pager, buffer_pool):
    ids = _fill(pager, 6)
    buffer_pool.clear()
    for page_id in ids:
        buffer_pool.get(page_id)
        buffer_pool.pin(page_id)
    assert buffer_pool.evict_random(1.0, random.Random(3)) == 0
    assert len(buffer_pool) == 6
    for page_id in ids:
        buffer_pool.unpin(page_id)


def test_pinned_page_survives_lru_pressure(pager):
    pool = BufferPool(pager, capacity=2)
    ids = _fill(pager, 4)
    pool.clear()
    pool.get(ids[0])
    pool.pin(ids[0])
    pool.get(ids[1])
    pool.get(ids[2])  # would evict ids[0] (LRU) — must take ids[1] instead
    pool.get(ids[3])
    assert ids[0] in pool
    assert len(pool) == 2
    pool.unpin(ids[0])


def test_get_many_run_longer_than_capacity(pager, meter):
    pool = BufferPool(pager, capacity=4)
    ids = _fill(pager, 10)
    pool.clear()
    pages = pool.get_many(ids, meter)
    # every page of the run is returned even though the run exceeds capacity
    assert [page.page_id for page in pages] == ids
    assert meter.io_reads == 10
    # pins released afterwards: the pool shrank back to capacity
    assert len(pool) == pool.capacity
    assert not any(pool.pinned(page_id) for page_id in ids)


def test_transient_over_capacity_shrinks_on_unpin(pager):
    pool = BufferPool(pager, capacity=2)
    ids = _fill(pager, 3)
    pool.clear()
    for page_id in ids:  # pin before admission, as the batch read paths do
        pool.pin(page_id)
        pool.get(page_id)
    assert len(pool) == 3  # all pinned: allowed over capacity
    pool.unpin(ids[0])
    assert len(pool) == 2  # last release shrinks the pool back
    assert ids[0] not in pool
    for page_id in ids[1:]:
        pool.unpin(page_id)


def test_pin_is_refcounted(pager, buffer_pool):
    (page_id,) = _fill(pager, 1)
    buffer_pool.clear()
    buffer_pool.get(page_id)
    buffer_pool.pin(page_id)
    buffer_pool.pin(page_id)
    buffer_pool.unpin(page_id)
    assert buffer_pool.pinned(page_id)  # one pin still holds
    buffer_pool.unpin(page_id)
    assert not buffer_pool.pinned(page_id)


def test_forcible_evict_clears_pin(pager, buffer_pool):
    (page_id,) = _fill(pager, 1)
    buffer_pool.clear()
    buffer_pool.get(page_id)
    buffer_pool.pin(page_id)
    buffer_pool.evict(page_id)  # the DDL path ignores pins
    assert page_id not in buffer_pool
    assert not buffer_pool.pinned(page_id)


def test_evict_random_mid_prefetch_spares_the_run(pager, monkeypatch):
    """An interference tick landing mid-run cannot drop the run's pages."""
    pool = BufferPool(pager, capacity=32)
    ids = _fill(pager, 6)
    pool.clear()
    original_admit = pool._admit
    rng = random.Random(3)

    def admit_and_interfere(page):
        original_admit(page)
        pool.evict_random(1.0, rng)

    monkeypatch.setattr(pool, "_admit", admit_and_interfere)
    pages = pool.get_many(ids)
    assert [page.page_id for page in pages] == ids
    # every page of the in-flight run survived the interference ticks
    # thrown at it while later pages of the same run were admitted
    assert all(page_id in pool for page_id in ids)
