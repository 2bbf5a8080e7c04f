"""Tests for the interactive shell."""

import io

import pytest

from repro.db.session import Database
from repro.shell import Shell, load_demo


@pytest.fixture
def shell():
    return Shell(Database(buffer_capacity=64), out=io.StringIO())


def output_of(shell: Shell) -> str:
    return shell.out.getvalue()


def test_ddl_select_roundtrip(shell):
    shell.run([
        "create table T (A int, B int);",
        "insert into T values (1, 10), (2, 20);",
        "select * from T where A = 2;",
    ])
    text = output_of(shell)
    assert "table T created" in text
    assert "2 row(s) inserted" in text
    assert "20" in text


def test_multiline_statement(shell):
    shell.run([
        "create table T (A int);",
        "select *",
        "from T",
        "where A < 5;",
    ])
    assert "(no rows)" in output_of(shell)


def test_list_and_describe_tables(shell):
    shell.run(["create table T (A int, B str);", "create index IX on T (A);", "\\d", "\\d T"])
    text = output_of(shell)
    assert "T: 0 rows" in text
    assert "A int" in text and "B str" in text
    assert "index IX on (A)" in text


def test_describe_unknown_table(shell):
    shell.feed("\\d NOPE")
    assert "error" in output_of(shell)


def test_host_variable_binding(shell):
    shell.run([
        "create table T (A int);",
        "insert into T values (1), (5), (9);",
        "\\set X 4",
        "select * from T where A >= :X;",
    ])
    text = output_of(shell)
    assert ":X = 4" in text
    assert "5" in text and "9" in text


def test_set_string_variable(shell):
    shell.feed("\\set NAME 'bob'")
    assert shell.host_vars["NAME"] == "bob"


def test_trace_toggle(shell):
    shell.run([
        "create table T (A int);",
        "insert into T values (1);",
        "\\trace on",
        "select * from T;",
    ])
    text = output_of(shell)
    assert "trace on" in text
    assert "retrieval-complete" in text


def test_cold_cache_command(shell):
    shell.feed("\\cold")
    assert "cache dropped" in output_of(shell)


def test_explain_command(shell):
    shell.run(["create table T (A int);", "\\explain select * from T order by A"])
    assert "retrieve T" in output_of(shell)


def test_error_reported_not_raised(shell):
    shell.feed("select * from MISSING;")
    assert "error" in output_of(shell)


def test_unknown_meta_command(shell):
    shell.feed("\\bogus")
    assert "unknown meta command" in output_of(shell)


def test_quit_sets_done(shell):
    shell.run(["\\q", "select * from T;"])
    assert shell.done
    assert "error" not in output_of(shell)


def test_row_limit_ellipsis(shell):
    shell.feed("create table T (A int);")
    for i in range(60):
        shell.feed(f"insert into T values ({i});")
    shell.feed("select * from T;")
    assert "more rows" in output_of(shell)


def fill_t(shell: Shell) -> None:
    shell.run(["create table T (ID int, V int);"]
              + [f"insert into T values ({i}, {i * 3});" for i in range(20)])


def test_connection_rows_render_through_the_shell(shell):
    fill_t(shell)
    result = shell.conn.execute("select ID, V from T where ID < 3")
    shell._print_rows(result.columns, result.rows)
    text = output_of(shell)
    assert "ID" in text and "V" in text
    assert " 2" in text and " 6" in text


def test_shell_statement_matches_connection_rows(shell):
    fill_t(shell)
    sql = "select * from T where ID between 0 and 4"
    before = len(output_of(shell))
    shell.feed(sql + ";")
    rendered = output_of(shell)[before:]
    for row in shell.conn.execute(sql).rows:
        assert str(row[-1]) in rendered


def test_load_demo_builds_tables():
    db = Database(buffer_capacity=64)
    load_demo(db)
    assert set(db.tables) == {"FAMILIES", "PARTS", "ORDERS"}
