"""DDL / DML statements: CREATE TABLE, CREATE INDEX, INSERT, DROP, ANALYZE.

The paper concerns retrieval, but a usable front end needs the statements
that build the data the retrievals run over. These parse from the same
token stream as SELECT and execute directly against the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.db.session import Database
from repro.errors import SqlSyntaxError
from repro.partition.partitioner import PartitionSpec
from repro.result import Result


@dataclass
class CreateTable:
    """``create table T (col type, ...) [partition by ...]``.

    The optional partition clause is ``PARTITION BY HASH(col) PARTITIONS
    k`` or ``PARTITION BY RANGE(col) VALUES (b1, b2, ...)``.
    """

    table: str
    columns: tuple[tuple[str, str], ...]
    partition: PartitionSpec | None = None


@dataclass
class CreateIndex:
    """``create [unique] index IX on T (col, ...)``."""

    index: str
    table: str
    columns: tuple[str, ...]
    unique: bool = False


@dataclass
class InsertRows:
    """``insert into T values (v, ...), (v, ...), ...``."""

    table: str
    rows: tuple[tuple[Any, ...], ...]


@dataclass
class DropTable:
    """``drop table T``."""

    table: str


@dataclass
class DropIndex:
    """``drop index IX on T``."""

    index: str
    table: str


@dataclass
class Analyze:
    """``analyze T`` — collect compile-time statistics."""

    table: str


Statement = CreateTable | CreateIndex | InsertRows | DropTable | DropIndex | Analyze

_TYPES = ("int", "float", "str")


def parse_ddl(parser) -> Statement:
    """Parse a non-SELECT statement from a ``_Parser`` positioned at its
    first keyword. Raises :class:`SqlSyntaxError` on malformed input."""
    if parser.accept_keyword("create"):
        unique = parser.accept_keyword("unique")
        if parser.accept_keyword("table"):
            if unique:
                raise SqlSyntaxError("UNIQUE applies to indexes, not tables")
            return _create_table(parser)
        if parser.accept_keyword("index"):
            return _create_index(parser, unique)
        raise SqlSyntaxError("expected TABLE or INDEX after CREATE",
                             parser.current.position)
    if parser.accept_keyword("insert"):
        parser.expect_keyword("into")
        table = parser.expect_name()
        parser.expect_keyword("values")
        rows = [_value_row(parser)]
        while parser.accept_op(","):
            rows.append(_value_row(parser))
        return InsertRows(table=table, rows=tuple(rows))
    if parser.accept_keyword("drop"):
        if parser.accept_keyword("table"):
            return DropTable(table=parser.expect_name())
        if parser.accept_keyword("index"):
            index = parser.expect_name()
            parser.expect_keyword("on")
            return DropIndex(index=index, table=parser.expect_name())
        raise SqlSyntaxError("expected TABLE or INDEX after DROP",
                             parser.current.position)
    if parser.accept_keyword("analyze"):
        return Analyze(table=parser.expect_name())
    raise SqlSyntaxError(
        f"unsupported statement start {parser.current.value!r}",
        parser.current.position,
    )


def _create_table(parser) -> CreateTable:
    table = parser.expect_name()
    parser.expect_op("(")
    columns: list[tuple[str, str]] = []
    while True:
        name = parser.expect_name()
        type_token = parser.current
        if type_token.kind != "name" or type_token.value.lower() not in _TYPES:
            raise SqlSyntaxError(
                f"expected a column type in {_TYPES}, found {type_token.value!r}",
                type_token.position,
            )
        parser.advance()
        columns.append((name, type_token.value.lower()))
        if not parser.accept_op(","):
            break
    parser.expect_op(")")
    partition = _partition_clause(parser)
    return CreateTable(table=table, columns=tuple(columns), partition=partition)


def _accept_word(parser, word: str) -> bool:
    """Accept a contextual keyword that tokenizes as a plain name
    (``partition``, ``hash``, ... are not reserved words)."""
    token = parser.current
    if token.kind == "name" and token.value.lower() == word:
        parser.advance()
        return True
    return False


def _expect_word(parser, word: str) -> None:
    if not _accept_word(parser, word):
        raise SqlSyntaxError(
            f"expected {word.upper()}, found {parser.current.value!r}",
            parser.current.position,
        )


def _partition_clause(parser) -> PartitionSpec | None:
    if not _accept_word(parser, "partition"):
        return None
    parser.expect_keyword("by")
    if _accept_word(parser, "hash"):
        parser.expect_op("(")
        column = parser.expect_name()
        parser.expect_op(")")
        _expect_word(parser, "partitions")
        token = parser.current
        if token.kind != "number" or "." in token.value:
            raise SqlSyntaxError(
                f"expected a partition count, found {token.value!r}",
                token.position,
            )
        parser.advance()
        return PartitionSpec(column=column, method="hash",
                             partitions=int(token.value))
    if _accept_word(parser, "range"):
        parser.expect_op("(")
        column = parser.expect_name()
        parser.expect_op(")")
        parser.expect_keyword("values")
        bounds = _value_row(parser)
        return PartitionSpec(column=column, method="range", bounds=bounds)
    raise SqlSyntaxError(
        f"expected HASH or RANGE after PARTITION BY, "
        f"found {parser.current.value!r}",
        parser.current.position,
    )


def _create_index(parser, unique: bool) -> CreateIndex:
    index = parser.expect_name()
    parser.expect_keyword("on")
    table = parser.expect_name()
    parser.expect_op("(")
    columns = [parser.expect_name()]
    while parser.accept_op(","):
        columns.append(parser.expect_name())
    parser.expect_op(")")
    return CreateIndex(index=index, table=table, columns=tuple(columns), unique=unique)


def _value_row(parser) -> tuple[Any, ...]:
    parser.expect_op("(")
    values: list[Any] = []
    while True:
        token = parser.current
        if token.kind == "number":
            parser.advance()
            values.append(float(token.value) if "." in token.value else int(token.value))
        elif token.kind == "string":
            parser.advance()
            values.append(token.value)
        elif token.is_keyword("null"):
            parser.advance()
            values.append(None)
        else:
            raise SqlSyntaxError(
                f"expected a literal, found {token.value!r}", token.position
            )
        if not parser.accept_op(","):
            break
    parser.expect_op(")")
    return tuple(values)


def execute_ddl(db: Database, statement: Statement) -> Result:
    """Apply a parsed DDL/DML statement to the database."""
    if isinstance(statement, CreateTable):
        db.create_table(statement.table, list(statement.columns),
                        partition_by=statement.partition)
        if statement.partition is not None:
            return Result(
                "ddl",
                text=f"table {statement.table} created, "
                f"partitioned {statement.partition.describe()}",
            )
        return Result("ddl", text=f"table {statement.table} created")
    if isinstance(statement, CreateIndex):
        table = db.table(statement.table)
        table.create_index(statement.index, list(statement.columns),
                           unique=statement.unique)
        return Result("ddl", text=f"index {statement.index} created on {statement.table}")
    if isinstance(statement, InsertRows):
        table = db.table(statement.table)
        for row in statement.rows:
            table.insert(row)
        return Result(
            "ddl",
            text=f"{len(statement.rows)} row(s) inserted into {statement.table}",
            rows_affected=len(statement.rows),
        )
    if isinstance(statement, DropTable):
        db.drop_table(statement.table)
        return Result("ddl", text=f"table {statement.table} dropped")
    if isinstance(statement, DropIndex):
        db.table(statement.table).drop_index(statement.index)
        return Result("ddl", text=f"index {statement.index} dropped")
    if isinstance(statement, Analyze):
        stats = db.table(statement.table).analyze()
        return Result(
            "ddl",
            text=f"analyzed {statement.table}: {stats.row_count} rows, "
            f"{stats.page_count} pages",
        )
    raise SqlSyntaxError(f"unknown statement {statement!r}")
