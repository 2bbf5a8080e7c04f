"""Tests for the statically-thresholded Jscan baseline [MoHa90]."""

import pytest

from paper.mohan_jscan import run_static_jscan
from repro.expr.ast import ALWAYS_TRUE, col


@pytest.fixture
def parts(db):
    table = db.create_table(
        "P", [("PNO", "int"), ("COLOR", "int"), ("WEIGHT", "int"), ("SIZE", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(600):
        table.insert((i, i % 10, (i * 7) % 100, (i * 13) % 50))
    table.create_index("IX_COLOR", ["COLOR"])
    table.create_index("IX_WEIGHT", ["WEIGHT"])
    return table


def oracle(table, predicate):
    return sorted(row for _, row in table.heap.scan() if predicate(row))


def test_correct_results_on_selective_query(parts):
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") < 30)
    execution = run_static_jscan(parts, expr)
    assert sorted(execution.rows) == oracle(parts, lambda r: r[1] == 3 and r[2] < 30)


def test_falls_back_to_tscan_without_candidates(parts):
    execution = run_static_jscan(parts, ALWAYS_TRUE)
    assert "tscan" in execution.description
    assert len(execution.rows) == parts.row_count


def test_threshold_abandons_large_lists(parts):
    # COLOR=3 keeps 60 rids; a 5% threshold (30 rids) abandons it
    expr = col("COLOR").eq(3)
    execution = run_static_jscan(parts, expr, threshold_fraction=0.05)
    assert "tscan" in execution.description
    assert sorted(execution.rows) == oracle(parts, lambda r: r[1] == 3)


def test_generous_threshold_commits_list(parts):
    expr = col("COLOR").eq(3)
    execution = run_static_jscan(parts, expr, threshold_fraction=0.5)
    assert "final" in execution.description
    assert sorted(execution.rows) == oracle(parts, lambda r: r[1] == 3)


def test_limit_honored(parts):
    execution = run_static_jscan(parts, col("COLOR").eq(3), limit=4)
    assert len(execution.rows) == 4


def test_cost_accounted(parts, db):
    db.cold_cache()
    execution = run_static_jscan(parts, col("COLOR").eq(3))
    assert execution.io > 0
    assert execution.cost >= execution.io
