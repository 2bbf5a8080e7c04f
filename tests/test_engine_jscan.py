"""Tests for Jscan (Section 6)."""

import pytest

from paper.mohan_jscan import StaticThresholdJscan
from repro.config import EngineConfig
from repro.engine.initial import run_initial_stage
from repro.engine.jscan import JscanProcess
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.expr.ast import col
from repro.storage.buffer_pool import CostMeter


def build_parts(db, rows=600):
    table = db.create_table(
        "P", [("PNO", "int"), ("COLOR", "int"), ("WEIGHT", "int"), ("SIZE", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(rows):
        table.insert((i, i % 10, (i * 7) % 100, (i * 13) % 50))
    table.create_index("IX_COLOR", ["COLOR"])
    table.create_index("IX_WEIGHT", ["WEIGHT"])
    table.create_index("IX_SIZE", ["SIZE"])
    return table


def arrange(table, expr, config=None, host_vars={}):
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), expr, host_vars,
        frozenset(table.schema.names), (), CostMeter(), trace,
        config or table.config,
    )
    return arrangement, trace


def run_jscan(table, expr, config=None, cls=JscanProcess, **kwargs):
    config = config or table.config
    arrangement, trace = arrange(table, expr, config)
    jscan = cls(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config,
        **kwargs,
    )
    while jscan.active:
        if jscan.step():
            break
    return jscan, trace


def oracle_rids(table, predicate):
    return sorted(rid for rid, row in table.heap.scan() if predicate(row))


def test_single_index_selective_produces_rid_list(db):
    table = build_parts(db)
    expr = col("COLOR").eq(3)
    jscan, trace = run_jscan(table, expr)
    assert not jscan.tscan_recommended
    assert jscan.result_list is not None
    expected = oracle_rids(table, lambda row: row[1] == 3)
    assert jscan.sorted_result() == expected
    assert trace.has(EventKind.RID_LIST_COMPLETE)


def test_unselective_range_recommends_tscan(db):
    table = build_parts(db)
    expr = col("WEIGHT") >= 0  # everything
    jscan, trace = run_jscan(table, expr)
    assert jscan.tscan_recommended
    assert trace.has(EventKind.TSCAN_RECOMMENDED)
    assert jscan.abandoned_scans >= 1


def test_intersection_of_two_indexes(db):
    table = build_parts(db)
    expr = (col("COLOR").eq(3)) & (col("SIZE") < 10)
    jscan, _ = run_jscan(table, expr, config=table.config.with_(
        simultaneous_adjacent_scans=False))
    if jscan.result_list is not None:
        result = set(jscan.sorted_result())
        expected = set(oracle_rids(table, lambda row: row[1] == 3 and row[3] < 10))
        # the final list is a superset-free exact intersection of the two
        # index restrictions (both scans completed) or the first index only
        assert expected <= result
        assert result <= set(oracle_rids(table, lambda row: row[1] == 3))


def test_completed_intersection_is_exact_when_all_scans_complete(db):
    table = build_parts(db)
    config = table.config.with_(
        switch_threshold=10.0, scan_cost_limit_fraction=100.0,
        simultaneous_adjacent_scans=False,
    )  # criteria disabled: every scan completes
    expr = (col("COLOR").eq(3)) & (col("SIZE") < 10)
    jscan, _ = run_jscan(table, expr, config=config)
    assert jscan.completed_scans == 2
    expected = oracle_rids(table, lambda row: row[1] == 3 and row[3] < 10)
    assert jscan.sorted_result() == expected


def test_empty_intersection_shortcut(db):
    table = build_parts(db)
    # COLOR = 3 implies PNO % 10 == 3; SIZE of such rows never equals 1
    expr = (col("COLOR").eq(3)) & (col("SIZE").eq(1))
    config = table.config.with_(
        switch_threshold=10.0, scan_cost_limit_fraction=100.0,
        simultaneous_adjacent_scans=False,
    )
    jscan, _ = run_jscan(table, expr, config=config)
    assert jscan.empty
    assert jscan.finished


def test_scan_abandonment_records_sunk_cost(db):
    table = build_parts(db)
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") >= 0)
    jscan, trace = run_jscan(table, expr)
    abandoned = trace.of_kind(EventKind.SCAN_ABANDONED)
    if abandoned:
        assert trace.counters.scans_abandoned == len(abandoned)
        assert jscan.meter.total > 0


def test_on_keep_tap_sees_first_index_rids(db):
    table = build_parts(db)
    tapped = []
    expr = col("COLOR").eq(5)
    config = table.config.with_(simultaneous_adjacent_scans=False)
    arrangement, trace = arrange(table, expr, config)
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config,
        on_keep=lambda rid, position: tapped.append((rid, position)),
    )
    while jscan.active:
        if jscan.step():
            break
    assert tapped
    assert all(position == 0 for _, position in tapped)
    assert [rid for rid, _ in tapped] == sorted(
        rid for rid, row in table.heap.scan() if row[1] == 5
    )


def test_static_threshold_mode(db):
    # the [MoHa90] comparator: the per-entry Jscan under a static threshold
    table = build_parts(db)
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") >= 0)
    jscan, trace = run_jscan(
        table, expr,
        config=table.config.with_(simultaneous_adjacent_scans=False),
        cls=StaticThresholdJscan, rid_threshold=30.0,
    )
    # COLOR=3 yields 60 rids > 30 threshold: abandoned under static control
    abandoned = trace.of_kind(EventKind.SCAN_ABANDONED)
    assert any(event.detail["reason"] == "static-threshold" for event in abandoned)


def test_simultaneous_pair_mode_emits_events(db):
    table = build_parts(db)
    expr = (col("COLOR").eq(3)) & (col("SIZE") < 25)
    config = table.config.with_(
        simultaneous_adjacent_scans=True,
        switch_threshold=10.0, scan_cost_limit_fraction=100.0,
    )
    jscan, trace = run_jscan(table, expr, config=config)
    assert trace.has(EventKind.SIMULTANEOUS_PAIR)
    # result correctness regardless of which scan won
    expected = oracle_rids(table, lambda row: row[1] == 3 and row[3] < 25)
    assert jscan.sorted_result() == expected


def test_pair_reorder_prefers_faster_scan(db):
    """SIZE < 2 finishes long before COLOR's larger range; even if the
    initial order puts COLOR first, the partner should win and reorder."""
    table = build_parts(db, rows=900)
    expr = (col("COLOR") <= 8) & (col("SIZE") < 2)
    config = table.config.with_(
        simultaneous_adjacent_scans=True,
        switch_threshold=10.0, scan_cost_limit_fraction=100.0,
    )
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), expr, {},
        frozenset(table.schema.names), (), CostMeter(), trace, config,
    )
    # force the bad order: big range first
    arrangement.jscan_candidates.sort(
        key=lambda c: -(c.estimate.rids if c.estimate else 0)
    )
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config
    )
    while jscan.active:
        if jscan.step():
            break
    assert jscan.reorders >= 1
    assert trace.has(EventKind.REORDERED)
    expected = oracle_rids(table, lambda row: row[1] <= 8 and row[3] < 2)
    assert jscan.sorted_result() == expected


def test_guaranteed_best_tightens_with_filter(db):
    table = build_parts(db)
    expr = col("COLOR").eq(3)
    arrangement, trace = arrange(table, expr)
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, table.config
    )
    before = jscan.guaranteed_best_cost()
    while jscan.active:
        if jscan.step():
            break
    # a complete 60-RID list retrieves cheaper than a full Tscan
    assert jscan.guaranteed_best_cost() < before


def test_abandon_jscan_releases_lists(db):
    table = build_parts(db)
    expr = col("COLOR").eq(3)
    arrangement, trace = arrange(table, expr)
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, table.config
    )
    jscan.step()
    jscan.abandon()
    assert jscan.abandoned


def test_requires_candidates(db):
    table = build_parts(db)
    with pytest.raises(ValueError):
        JscanProcess([], table.heap, table.buffer_pool, RetrievalTrace(), table.config)


def test_completed_jscan_frees_its_temp_pages():
    """Section 6: Jscan releases its memory and temp space "before any
    records are delivered" — once the final stage holds its sorted RIDs,
    not only when it is abandoned or cancelled."""
    from repro.db.session import Database
    from repro.storage.pager import PageKind

    config = EngineConfig(allocated_rid_buffer_size=64, temp_rids_per_page=16)
    db = Database(config=config)
    table = db.create_table("T", [("A", "int"), ("B", "int")], rows_per_page=16)
    for i in range(6000):
        table.insert((i + 1, i + 1))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    table.analyze()
    result = table.select(where=(col("A") < 120) & (col("B") < 120))
    assert result.description == "background-only: jscan -> final-stage(119 rids)"
    assert len(result.trace.of_kind(EventKind.SPILL)) == 2
    assert sorted(result.rows) == [(i, i) for i in range(1, 120)]
    temp = [page for page in db.pager._pages.values() if page.kind is PageKind.TEMP]
    assert temp == []


def test_a_spilled_list_is_priced_at_its_own_temp_page_size():
    """Reading a spilled list back reads the full pages of its temp table,
    ``temp_rids_per_page`` RIDs each (the tail is still in memory): the
    fetch price counts exactly those pages, whatever the page size."""
    from repro.db.session import Database
    from repro.storage.hybrid_list import HybridRidList, RidListRegion
    from repro.storage.rid import make_rid, yao_pages_touched

    config = EngineConfig(allocated_rid_buffer_size=64, temp_rids_per_page=16)
    db = Database(config=config)
    table = db.create_table("T", [("A", "int"), ("B", "int")], rows_per_page=16)
    for i in range(6000):
        table.insert((i + 1, i + 1))
    table.create_index("IX_A", ["A"])
    arrangement, trace = arrange(table, col("A") < 120)
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config
    )
    rids = HybridRidList(table.buffer_pool, "spilled", config)
    for i in range(103):
        rids.add(make_rid(i, 0), CostMeter())
    assert rids.region is RidListRegion.SPILLED
    db.cold_cache()
    meter = CostMeter()
    assert len(rids.sorted_rids(meter)) == 103
    assert meter.io_reads == 103 // 16 == 6
    fetch = yao_pages_touched(table.heap.page_count, table.heap.rows_per_page, 103)
    assert jscan.rid_fetch_cost(103, rids) == fetch + 6
    assert jscan.rid_fetch_cost(103.9, rids) == fetch + 6
    rids.discard()
