"""A larger end-to-end scenario exercising every subsystem together.

One 12k-row table, five indexes (composite, unique, covering), a battery
of query shapes spanning all tactics, all checked against a brute-force
oracle, under a deliberately small buffer pool with cache interference.
"""

import numpy as np
import pytest

from repro.api import connect
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal as Goal
from repro.expr.ast import col, var
from repro.expr.eval import evaluate

ROWS = 12_000


@pytest.fixture(scope="module")
def world():
    db = Database(buffer_capacity=96)
    table = db.create_table(
        "SALES",
        [("SALE", "int"), ("STORE", "int"), ("ITEM", "int"), ("QTY", "int"),
         ("PRICE", "int"), ("DAY", "int")],
        rows_per_page=16, index_order=24,
    )
    rng = np.random.default_rng(2024)
    for i in range(ROWS):
        table.insert((
            i,
            int(rng.integers(0, 60)),
            int(rng.integers(0, 500)),
            int(rng.integers(1, 20)),
            int(rng.integers(1, 1000)),
            20_000 + i // 40,  # clustered day column
        ))
    table.create_index("IX_SALE", ["SALE"], unique=True)
    table.create_index("IX_STORE_DAY", ["STORE", "DAY"])
    table.create_index("IX_ITEM", ["ITEM"])
    table.create_index("IX_DAY", ["DAY"])
    table.create_index("IX_PRICE", ["PRICE"])
    table.analyze()
    db.interference_rate = 0.3
    return db, table


def check(db, table, expr, host_vars={}, **kwargs):
    db.interference_tick()
    result = table.select(where=expr, host_vars=host_vars, **kwargs)
    expected = sorted(
        row for _, row in table.heap.scan()
        if evaluate(expr, row, table.schema.position, host_vars)
    )
    assert sorted(result.rows) == expected
    assert len(set(result.rids)) == len(result.rids)
    return result


def test_unique_point_lookup(world):
    db, table = world
    result = check(db, table, col("SALE").eq(4217))
    assert len(result.rows) == 1
    assert result.total_cost < 20


def test_three_way_and(world):
    db, table = world
    check(db, table, (col("STORE").eq(7)) & (col("ITEM") < 100) & (col("QTY") > 5))


def test_composite_prefix_plus_range(world):
    db, table = world
    check(db, table, (col("STORE").eq(12)) & (col("DAY").between(20_100, 20_200)))


def test_unselective_switches_to_tscan(world):
    db, table = world
    result = check(db, table, col("PRICE") >= 1)
    assert "tscan" in result.description


def test_or_union_with_interference(world):
    db, table = world
    check(db, table, (col("ITEM").eq(42)) | (col("PRICE").eq(999)))


def test_in_list(world):
    db, table = world
    check(db, table, col("ITEM").in_([5, 105, 205, 305]))


def test_fast_first_with_limit(world):
    db, table = world
    db.interference_tick()
    result = table.select(
        where=col("ITEM") < 50, limit=25, optimize_for=Goal.FAST_FIRST
    )
    assert len(result.rows) == 25
    assert all(row[2] < 50 for row in result.rows)


def test_ordered_retrieval_by_day(world):
    db, table = world
    result = check(
        db, table, (col("STORE") < 5) & (col("DAY") >= 20_250), order_by=("DAY",)
    )
    days = [row[5] for row in result.rows]
    assert days == sorted(days)


def test_covering_query_store_day(world):
    db, table = world
    db.interference_tick()
    result = table.select(
        where=(col("STORE").eq(3)) & (col("DAY") >= 20_000),
        columns=("STORE", "DAY"),
    )
    expected = sum(1 for _, row in table.heap.scan() if row[1] == 3)
    assert len(result.rows) == expected


def test_host_variable_sweep(world):
    db, table = world
    expr = (col("DAY") >= var("lo")) & (col("DAY") < var("hi"))
    for lo, hi in ((20_000, 20_010), (20_100, 20_290), (25_000, 26_000)):
        check(db, table, expr, host_vars={"lo": lo, "hi": hi})


def test_sql_end_to_end(world):
    db, table = world
    result = connect(db=db).execute(
        "select count(*) as n from SALES where STORE = :s and QTY >= 10",
        {"s": 9},
    )
    expected = sum(1 for _, row in table.heap.scan() if row[1] == 9 and row[3] >= 10)
    assert result.rows == [(expected,)]


def test_total_io_reasonable_for_selective_queries(world):
    db, table = world
    db.cold_cache()
    result = table.select(where=(col("STORE").eq(7)) & (col("ITEM") < 30))
    # a selective conjunction must stay well under the full-scan cost
    assert result.total_cost < 0.8 * table.heap.page_count
