"""Unit tests for UnionScanProcess internals."""

import pytest

from repro.competition.two_stage import MIN_PROJECTION_FRACTION
from repro.db.session import Database
from repro.engine.metrics import RetrievalTrace
from repro.engine.union_scan import UnionScanProcess
from repro.expr.ast import col
from repro.expr.disjunction import cover_disjuncts
from repro.expr.normalize import conjunction_terms


@pytest.fixture
def setup(db):
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("PAD", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(900):
        table.insert((i % 30, (i * 7) % 90, i))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    return db, table


def run_union(table, expr, config=None):
    covered = cover_disjuncts(expr, list(table.indexes.values()))
    assert covered is not None
    trace = RetrievalTrace()
    union = UnionScanProcess(
        covered, table.heap, table.buffer_pool, trace, config or table.config
    )
    while union.active:
        if union.step():
            break
    return union, trace


def test_requires_disjuncts(setup):
    db, table = setup
    with pytest.raises(ValueError):
        UnionScanProcess([], table.heap, table.buffer_pool, RetrievalTrace())


def test_union_result_is_exact_set(setup):
    db, table = setup
    expr = (col("A").eq(3)) | (col("B").eq(70))
    union, _ = run_union(table, expr)
    expected = sorted(
        rid for rid, row in table.heap.scan() if row[0] == 3 or row[1] == 70
    )
    assert union.sorted_result() == expected
    assert not union.tscan_recommended


def test_duplicates_counted_not_stored(setup):
    db, table = setup
    # A == k and B == (k*7)%90 share many rows
    expr = (col("A").eq(3)) | (col("B").eq(21))
    union, _ = run_union(table, expr)
    assert union.duplicates_skipped > 0
    result = union.sorted_result()
    assert len(result) == len(set(result))


def test_scans_ordered_ascending_by_estimate(setup):
    db, table = setup
    expr = (col("A") < 25) | (col("B").eq(70))  # big range vs small equality
    covered = cover_disjuncts(expr, list(table.indexes.values()))
    union = UnionScanProcess(
        covered, table.heap, table.buffer_pool, RetrievalTrace(), table.config
    )
    estimates = [scan.estimate for scan in union._scans]
    assert estimates == sorted(estimates)


def test_abandon_on_huge_union(setup):
    db, table = setup
    expr = (col("A") >= 0) | (col("B").eq(70))
    union, trace = run_union(table, expr)
    assert union.tscan_recommended
    assert union.sorted_result() == []


def test_empty_union(setup):
    db, table = setup
    expr = (col("A").eq(999)) | (col("B").eq(888))
    union, _ = run_union(table, expr)
    assert union.finished and union.empty
    assert union.sorted_result() == []


def test_projection_none_before_min_fraction(setup):
    db, table = setup
    expr = (col("A").eq(3)) | (col("B").eq(70))
    covered = cover_disjuncts(expr, list(table.indexes.values()))
    union = UnionScanProcess(
        covered, table.heap, table.buffer_pool, RetrievalTrace(), table.config
    )
    assert union.projected_final_cost() is None  # nothing scanned yet


def test_projection_reads_a_running_total_of_all_disjuncts(setup):
    from repro.storage.rid import yao_pages_touched

    db, table = setup
    expr = (col("A").eq(3)) | (col("B").eq(70)) | (col("A").eq(9))
    covered = cover_disjuncts(expr, list(table.indexes.values()))
    union = UnionScanProcess(
        covered, table.heap, table.buffer_pool, RetrievalTrace(), table.config
    )
    projected = 0
    while not union.step():
        scanned = sum(scan.scanned for scan in union._scans)
        fraction = scanned / max(union.total_estimate, float(scanned))
        if fraction < MIN_PROJECTION_FRACTION:
            assert union.projected_final_cost() is None
            continue
        projected += 1
        assert union.projected_final_cost() == yao_pages_touched(
            table.heap.page_count, table.heap.rows_per_page,
            int(len(union._rids) / fraction),
        )
    assert projected and len(union._scans) == 3
    assert all(scan.scanned for scan in union._scans)
