"""Edge-case tests for Jscan: spills, duplicates, composite indexes."""

import pytest

from repro.config import EngineConfig
from repro.db.session import Database
from repro.engine.metrics import EventKind
from repro.engine.retrieval import RetrievalRequest
from repro.expr.ast import col
from repro.expr.eval import evaluate
from repro.storage.hybrid_list import RidListRegion


def oracle(table, expr):
    return sorted(
        row for _, row in table.heap.scan()
        if evaluate(expr, row, table.schema.position)
    )


def test_jscan_spill_path_correct():
    """Tiny buffers force the RID list through the spill region mid-Jscan."""
    config = EngineConfig(
        static_rid_buffer_size=4,
        allocated_rid_buffer_size=16,
        switch_threshold=10.0,            # let scans complete
        scan_cost_limit_fraction=100.0,
        simultaneous_adjacent_scans=False,
    )
    db = Database(buffer_capacity=64, config=config)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int")], rows_per_page=8, index_order=8
    )
    table.config = config
    for i in range(1200):
        table.insert((i % 4, (i * 3) % 90))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    expr = (col("A").eq(1)) & (col("B") < 60)  # ~200 survivors: must spill
    result = table.select(where=expr)
    assert sorted(result.rows) == oracle(table, expr)
    assert "final-stage" in result.description


def test_jscan_filter_in_spilled_region_no_false_drops():
    """A spilled (bitmap) filter may pass extra RIDs but never drop one."""
    config = EngineConfig(
        static_rid_buffer_size=2,
        allocated_rid_buffer_size=8,
        bitmap_bits=256,                  # tiny bitmap: many false positives
        switch_threshold=10.0,
        scan_cost_limit_fraction=100.0,
        simultaneous_adjacent_scans=False,
    )
    db = Database(buffer_capacity=64, config=config)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int")], rows_per_page=8, index_order=8
    )
    table.config = config
    for i in range(600):
        table.insert((i % 3, i % 50))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    expr = (col("A").eq(0)) & (col("B") < 25)
    result = table.select(where=expr)
    assert sorted(result.rows) == oracle(table, expr)


def test_jscan_duplicate_heavy_index():
    db = Database(buffer_capacity=64)
    table = db.create_table("T", [("A", "int"), ("B", "int")], rows_per_page=8)
    for i in range(400):
        table.insert((7, i))  # every A identical
    table.create_index("IX_A", ["A"])
    expr = col("A").eq(7)
    result = table.select(where=expr)
    assert len(result.rows) == 400


def test_jscan_composite_index_candidate():
    db = Database(buffer_capacity=64)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("C", "int")], rows_per_page=8, index_order=8
    )
    for i in range(800):
        table.insert((i % 10, i % 40, i))
    table.create_index("IX_AB", ["A", "B"])
    expr = (col("A").eq(3)) & (col("B").between(10, 20))
    result = table.select(where=expr)
    assert sorted(result.rows) == oracle(table, expr)
    # the composite range must have been used, not a table scan: directly
    # (it is one quantum short) and by the Jscan that direct fetch skips
    assert result.description == "short-range(IX_AB)"
    raced = table.retrieval_engine().run(
        RetrievalRequest(restriction=expr, force_strategy="background-only"))
    assert sorted(raced.rows) == oracle(table, expr)
    assert "final-stage" in raced.description


def test_jscan_single_row_table():
    db = Database(buffer_capacity=16)
    table = db.create_table("T", [("A", "int")], rows_per_page=8)
    table.insert((5,))
    table.create_index("IX_A", ["A"])
    assert table.select(where=col("A").eq(5)).rows == [(5,)]
    assert table.select(where=col("A").eq(6)).rows == []


def test_jscan_all_rows_on_one_page():
    db = Database(buffer_capacity=16)
    table = db.create_table("T", [("A", "int")], rows_per_page=64)
    for i in range(50):
        table.insert((i,))
    table.create_index("IX_A", ["A"])
    result = table.select(where=col("A") < 10)
    assert len(result.rows) == 10


def test_spill_event_emitted_in_trace():
    config = EngineConfig(
        static_rid_buffer_size=2, allocated_rid_buffer_size=8,
        switch_threshold=10.0, scan_cost_limit_fraction=100.0,
        simultaneous_adjacent_scans=False,
    )
    db = Database(buffer_capacity=64, config=config)
    # the PAD column keeps the index fetch-needed (not self-sufficient)
    table = db.create_table("T", [("A", "int"), ("PAD", "int")], rows_per_page=8)
    table.config = config
    for i in range(300):
        table.insert((i % 2, i))
    table.create_index("IX_A", ["A"])
    result = table.select(where=col("A").eq(0))
    # region recorded in the filter-built event shows the spill happened
    built = result.trace.of_kind(EventKind.FILTER_BUILT)
    assert built and built[0].detail["region"] == RidListRegion.SPILLED.value
    assert len(result.rows) == 150


def test_pair_mode_with_spilling_active_and_filtered_partner():
    """Regression: a filtered partner never freezes on kept-count, so it can
    complete while the active list has spilled; the engine must neither
    crash on an out-of-memory refilter nor corrupt the intersection."""
    config = EngineConfig(
        static_rid_buffer_size=2,
        allocated_rid_buffer_size=8,
        switch_threshold=10.0,
        scan_cost_limit_fraction=100.0,
        simultaneous_adjacent_scans=True,
    )
    db = Database(buffer_capacity=96, config=config)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("C", "int"), ("PAD", "int")],
        rows_per_page=8, index_order=8,
    )
    table.config = config
    for i in range(3000):
        table.insert((i % 3, i % 400, i % 90, i))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    table.create_index("IX_C", ["C"])
    # A=0: big first filter; B range big with big intersection (active
    # spills); C range smaller, heavily filtered (partner stays unfrozen)
    expr = (col("A").eq(0)) & (col("B") < 300) & (col("C") < 30)
    result = table.select(where=expr)
    assert sorted(result.rows) == oracle(
        table, expr
    )
