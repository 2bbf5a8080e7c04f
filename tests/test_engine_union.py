"""Tests for the union joint scan (the Section 8 OR extension)."""

import pytest

from repro.db.session import Database
from repro.engine.metrics import EventKind
from repro.expr.ast import col
from repro.expr.eval import evaluate


@pytest.fixture
def table(db):
    table = db.create_table(
        "P", [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(1500):
        table.insert((i % 100, (i * 7) % 300, i))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    return table


def oracle(table, expr):
    return sorted(
        row for _, row in table.heap.scan()
        if evaluate(expr, row, table.schema.position)
    )


def test_selective_or_uses_union(table):
    expr = (col("A").eq(3)) | (col("B").eq(250))
    result = table.select(where=expr)
    assert "union-or" in result.description
    assert sorted(result.rows) == oracle(table, expr)


def test_union_deduplicates_overlap(table):
    # rows satisfying both disjuncts must be delivered once
    expr = (col("A").eq(3)) | (col("B").eq((3 * 7) % 300))
    result = table.select(where=expr)
    assert len(result.rows) == len(set(result.rids))
    assert sorted(result.rows) == oracle(table, expr)


def test_unselective_or_switches_to_tscan(table, db):
    expr = (col("A") >= 5) | (col("B").eq(250))
    db.cold_cache()
    result = table.select(where=expr)
    assert "tscan" in result.description
    assert result.trace.has(EventKind.SCAN_ABANDONED)
    assert sorted(result.rows) == oracle(table, expr)


def test_uncoverable_or_falls_back_to_tscan(table):
    expr = (col("A").eq(3)) | (col("C").eq(5))  # C has no index
    result = table.select(where=expr)
    assert result.description == "tscan"
    assert sorted(result.rows) == oracle(table, expr)


def test_in_list_retrieval_via_union(table, db):
    expr = col("A").in_([3, 7, 11])
    db.cold_cache()
    result = table.select(where=expr)
    assert "union-or" in result.description
    assert "3 disjunct" in result.description
    assert sorted(result.rows) == oracle(table, expr)
    assert result.execution_io < table.heap.page_count


def test_or_with_empty_disjuncts(table):
    expr = (col("A").eq(9999)) | (col("B").eq(8888))
    result = table.select(where=expr)
    assert result.rows == []


def test_or_respects_limit(table):
    expr = (col("A").eq(3)) | (col("B").eq(250))
    result = table.select(where=expr, limit=2)
    assert len(result.rows) == 2
    assert result.stopped_early


def test_or_disjuncts_with_inner_ands(table):
    expr = ((col("A").eq(3)) & (col("C") < 700)) | (col("B").eq(250))
    result = table.select(where=expr)
    assert sorted(result.rows) == oracle(table, expr)


def test_conjunctive_queries_unaffected(table):
    # AND queries must still take the Jscan path, not the union path
    expr = (col("A").eq(3)) & (col("B") < 150)
    result = table.select(where=expr)
    assert "union" not in result.description
    assert sorted(result.rows) == oracle(table, expr)


def test_sql_or_query_end_to_end(table, conn):
    result = conn.execute("select * from P where A = 3 or B = 250")
    expr = (col("A").eq(3)) | (col("B").eq(250))
    assert sorted(result.rows) == oracle(table, expr)


def test_sql_in_list_end_to_end(table, conn):
    result = conn.execute("select C from P where A in (1, 2) order by C")
    expected = sorted(row[2] for _, row in table.heap.scan() if row[0] in (1, 2))
    assert [row[0] for row in result.rows] == expected
