"""Tests for DDL/DML statements through the SQL layer."""

import pytest

import repro
from repro.errors import CatalogError, SqlSyntaxError


def test_create_table_and_insert(conn):
    result = conn.execute("create table T (A int, B str)")
    assert isinstance(result, repro.Result) and result.kind == "ddl"
    assert "created" in result.text
    conn.execute("insert into T values (1, 'x'), (2, 'y')")
    query = conn.execute("select * from T")
    assert query.rows == [(1, "x"), (2, "y")]


def test_insert_null(conn):
    conn.execute("create table T (A int, B int)")
    conn.execute("insert into T values (1, null)")
    assert conn.execute("select * from T").rows == [(1, None)]


def test_insert_negative_and_float(conn):
    conn.execute("create table T (A int, B float)")
    conn.execute("insert into T values (-5, 2.5)")
    assert conn.execute("select * from T").rows == [(-5, 2.5)]


def test_create_index_and_use(conn):
    conn.execute("create table T (A int, B int)")
    for i in range(200):
        conn.execute(f"insert into T values ({i}, {i % 10})")
    conn.execute("create index IX_B on T (B)")
    assert "IX_B" in conn.table("T").indexes
    result = conn.execute("select * from T where B = 3")
    assert all(row[1] == 3 for row in result.rows)


def test_create_unique_index(conn):
    conn.execute("create table T (A int)")
    conn.execute("create unique index IX_A on T (A)")
    assert conn.table("T").indexes["IX_A"].unique


def test_unique_table_rejected_syntax(conn):
    with pytest.raises(SqlSyntaxError):
        conn.execute("create unique table T (A int)")


def test_drop_table(conn):
    conn.execute("create table T (A int)")
    conn.execute("drop table T")
    assert "T" not in conn.db.tables


def test_drop_index(conn):
    conn.execute("create table T (A int)")
    conn.execute("create index IX on T (A)")
    conn.execute("drop index IX on T")
    assert "IX" not in conn.table("T").indexes


def test_analyze_statement(conn):
    conn.execute("create table T (A int)")
    conn.execute("insert into T values (1), (2), (3)")
    result = conn.execute("analyze T")
    assert "3 rows" in result.text
    assert conn.table("T").stats is not None


def test_duplicate_table_rejected(conn):
    conn.execute("create table T (A int)")
    with pytest.raises(CatalogError):
        conn.execute("create table T (A int)")


def test_bad_column_type_rejected(conn):
    with pytest.raises(SqlSyntaxError):
        conn.execute("create table T (A blob)")


def test_bad_statement_start(conn):
    with pytest.raises(SqlSyntaxError):
        conn.execute("update T set A = 1")


def test_multi_row_insert_counts(conn):
    conn.execute("create table T (A int)")
    result = conn.execute("insert into T values (1), (2), (3), (4)")
    assert result.rows_affected == 4 == result.rowcount
