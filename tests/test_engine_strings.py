"""End-to-end retrieval over string columns: LIKE-prefix ranges, string
indexes, and string equality through the whole dynamic engine."""

import pytest

from repro.db.session import Database
from repro.expr.ast import col
from repro.expr.eval import evaluate

NAMES = [
    "anderson", "andrews", "appleton", "baker", "barnes", "bennett",
    "carlson", "carter", "chapman", "davies", "dawson", "dixon",
    "edwards", "elliott", "evans", "fisher", "fleming", "foster",
]


@pytest.fixture
def directory(db):
    table = db.create_table(
        "DIRECTORY", [("ID", "int"), ("NAME", "str"), ("CITY", "str")],
        rows_per_page=8, index_order=8,
    )
    cities = ["oslo", "paris", "quito", "rome"]
    for i in range(360):
        table.insert((i, NAMES[i % len(NAMES)] + str(i // len(NAMES)), cities[i % 4]))
    table.create_index("IX_NAME", ["NAME"])
    table.create_index("IX_CITY", ["CITY"])
    return table


def oracle(table, expr):
    return sorted(
        row for _, row in table.heap.scan()
        if evaluate(expr, row, table.schema.position)
    )


def test_string_equality_via_index(directory):
    expr = col("NAME").eq("baker3")
    result = directory.select(where=expr)
    assert sorted(result.rows) == oracle(directory, expr)
    assert len(result.rows) == 1


def test_like_prefix_uses_index_range(directory, db):
    expr = col("NAME").like("and%")
    db.cold_cache()
    result = directory.select(where=expr)
    assert sorted(result.rows) == oracle(directory, expr)
    assert len(result.rows) == 40  # anderson* + andrews*
    # the range scan must beat a full scan
    assert result.execution_io < directory.heap.page_count


def test_like_with_inner_wildcard_still_correct(directory):
    expr = col("NAME").like("a%son_")
    result = directory.select(where=expr)
    assert sorted(result.rows) == oracle(directory, expr)


def test_string_range_comparison(directory):
    expr = (col("NAME") >= "c") & (col("NAME") < "e")
    result = directory.select(where=expr)
    assert sorted(result.rows) == oracle(directory, expr)


def test_string_conjunction_two_indexes(directory):
    expr = (col("CITY").eq("paris")) & (col("NAME") < "c")
    result = directory.select(where=expr)
    assert sorted(result.rows) == oracle(directory, expr)


def test_string_order_by(directory):
    result = directory.select(where=col("CITY").eq("rome"), order_by=("NAME",))
    names = [row[1] for row in result.rows]
    assert names == sorted(names)


def test_string_sql_roundtrip(directory, conn):
    result = conn.execute(
        "select NAME from DIRECTORY where NAME like 'fle%' order by NAME"
    )
    assert all(name.startswith("fle") for (name,) in result.rows)
    assert len(result.rows) == 20


def test_string_in_list_union(directory, db):
    expr = col("CITY").in_(["oslo", "quito"])
    db.cold_cache()
    result = directory.select(where=expr)
    assert sorted(result.rows) == oracle(directory, expr)
    assert len(result.rows) == 180
