"""Tests for the Table API and Database session."""

import bisect
import random

import pytest

from repro.db.catalog import Column
from repro.db.session import Database
from repro.errors import CatalogError
from repro.expr.ast import col
from repro.storage.rid import RID


@pytest.fixture
def table(db):
    return db.create_table("T", [("A", "int"), ("B", "str")], rows_per_page=4)


def test_insert_positional_and_mapping(table):
    rid1 = table.insert((1, "x"))
    rid2 = table.insert({"A": 2, "B": "y"})
    assert table.row_count == 2
    assert table.heap.fetch(rid1) == (1, "x")
    assert table.heap.fetch(rid2) == (2, "y")


def test_insert_mapping_missing_column_is_null(table):
    rid = table.insert({"A": 5})
    assert table.heap.fetch(rid) == (5, None)


def test_insert_many_counts(table):
    assert table.insert_many([(i, "r") for i in range(10)]) == 10
    assert table.row_count == 10


def test_create_index_backfills(table):
    table.insert_many([(i, "r") for i in range(20)])
    info = table.create_index("IX_A", ["A"])
    assert info.btree.entry_count == 20
    assert info.btree.search(7) != []


def test_create_index_maintained_by_insert(table):
    info = table.create_index("IX_A", ["A"])
    rid = table.insert((42, "z"))
    assert info.btree.search(42) == [rid]


def test_duplicate_index_rejected(table):
    table.create_index("IX_A", ["A"])
    with pytest.raises(CatalogError):
        table.create_index("IX_A", ["A"])


def test_drop_index(table):
    table.create_index("IX_A", ["A"])
    table.drop_index("IX_A")
    assert "IX_A" not in table.indexes
    with pytest.raises(CatalogError):
        table.drop_index("IX_A")


def test_delete_rid_maintains_indexes(table):
    info = table.create_index("IX_A", ["A"])
    rid = table.insert((9, "q"))
    table.delete_rid(rid)
    assert info.btree.search(9) == []
    assert table.row_count == 0


def test_deleted_rows_not_retrieved(table):
    table.create_index("IX_A", ["A"])
    rids = [table.insert((i, "r")) for i in range(10)]
    table.delete_rid(rids[3])
    result = table.select(where=col("A") >= 0)
    assert len(result.rows) == 9
    assert all(row[0] != 3 for row in result.rows)


def test_analyze_builds_stats(table):
    table.insert_many([(i % 5, "r") for i in range(50)])
    stats = table.analyze()
    assert stats.row_count == 50
    assert stats.columns["A"].distinct == 5
    assert table.stats is stats


def naive_stats(table, buckets):
    """``analyze`` row by row, value by value — the loop it replaced."""
    names = table.schema.names
    values = {name: [] for name in names}
    for _, row in table.heap.scan():
        for name, value in zip(names, row):
            if value is not None:
                values[name].append(value)
    out = {}
    for name, column in values.items():
        column.sort()
        if not column:
            out[name] = (0, 0, None, None, [0] * buckets, [])
            continue
        lo, hi = column[0], column[-1]
        counts = [0] * buckets
        if isinstance(lo, str):
            step = max(1, len(column) // buckets)
            edges = [column[min(i * step, len(column) - 1)] for i in range(buckets + 1)]
            for value in column:
                counts[max(min(bisect.bisect_right(edges, value) - 1, buckets - 1), 0)] += 1
        else:
            width = (hi - lo) / buckets if hi > lo else 1.0
            edges = [lo + i * width for i in range(buckets + 1)]
            for value in column:
                counts[min(int((value - lo) / width), buckets - 1)] += 1
        out[name] = (len(set(column)), len(column), lo, hi, counts, edges)
    return out


@pytest.mark.parametrize("rows", [0, 1, 333])
@pytest.mark.parametrize("buckets", [1, 10])
def test_analyze_equals_the_row_by_row_reference(db, rows, buckets):
    table = db.create_table(
        "S", [("I", "int"), ("F", "float"), ("S", "str"), ("ONE", "int"), ("NULLS", "int")],
        rows_per_page=8,
    )
    rng = random.Random(rows)
    rids = [
        table.insert((
            rng.randrange(-50, 50) if rng.random() < 0.9 else None,
            rng.choice([rng.random() * 1e6, rng.randrange(10), -0.5]),  # ints among floats
            rng.choice(["", "a", "ab", "b", "zz", None]) if i % 7 else "q" * (i % 5),
            7,
            None,
        ))
        for i in range(rows)
    ]
    for rid in sorted({*rids[::3], *rids[8:16]}):  # scattered holes, one page of nothing else
        table.delete_rid(rid)
    db.cold_cache()
    reads = db.pager.stats.reads
    stats = table.analyze(buckets)
    assert db.pager.stats.reads - reads == table.heap.page_count
    assert (stats.row_count, stats.page_count) == (table.row_count, table.heap.page_count)
    got = {
        name: (c.distinct, c.histogram.total, c.histogram.lo, c.histogram.hi,
               c.histogram.counts, c.histogram.edges)
        for name, c in stats.columns.items()
    }
    assert got == naive_stats(table, buckets)
    assert list(got) == list(table.schema.names)
    for name, column in stats.columns.items():
        assert sum(column.histogram.counts) == column.histogram.total


def test_insert_many_into_empty_indexed_and_non_empty_tables(db):
    rows = [(i * 37 % 101, f"r{i % 9}") for i in range(300)]

    def indexed(name, first):
        table = db.create_table(name, [("A", "int"), ("B", "str")], rows_per_page=4,
                                index_order=4)
        assert table.insert_many(rows[:first]) == first
        table.create_index("IX_A", ["A"])
        table.create_index("IX_BA", ["B", "A"])
        assert table.insert_many(iter(rows[first:])) == len(rows) - first
        return table

    empty, holding, loaded = indexed("EMPTY", 0), indexed("HOLDING", 1), indexed("LOADED", 300)
    for table in (holding, loaded):
        assert list(table.heap.scan()) == list(empty.heap.scan())
        for name in ("IX_A", "IX_BA"):
            table.indexes[name].btree.check_invariants()
            assert list(table.indexes[name].btree.entries()) == list(
                empty.indexes[name].btree.entries())
    # rows first, index after: one bottom-up build, the fewest leaves
    assert loaded.indexes["IX_A"].btree.leaf_count < empty.indexes["IX_A"].btree.leaf_count
    # a packed index is maintained like any other
    rid = loaded.insert((1000, "new"))
    assert loaded.indexes["IX_A"].btree.search(1000) == [rid]
    loaded.delete_rid(rid)
    loaded.indexes["IX_BA"].btree.check_invariants()
    assert list(loaded.indexes["IX_BA"].btree.entries()) == list(
        empty.indexes["IX_BA"].btree.entries())


def test_create_index_on_empty_table_then_inserts(table):
    info = table.create_index("IX_A", ["A"])
    assert (info.btree.entry_count, info.btree.height) == (0, 1)
    rids = [table.insert((i % 10, "r")) for i in range(50)]
    info.btree.check_invariants()
    assert info.btree.search(3) == rids[3::10]
    late = table.create_index("IX_B", ["B", "A"])
    late.btree.check_invariants()
    assert [rid for _, rid in late.btree.entries()] == sorted(
        rids, key=lambda rid: (table.heap.fetch(rid)[0], rid))


def test_context_for_is_sticky(table):
    context = table.context_for("k")
    assert table.context_for("k") is context
    assert table.context_for("other") is not context


def test_bad_rows_rejected(table):
    with pytest.raises(CatalogError):
        table.insert((1,))
    with pytest.raises(CatalogError):
        table.insert(("not-int", "x"))


# -- Database -----------------------------------------------------------------


def test_create_table_column_forms(db):
    table = db.create_table("MIX", [Column("A", "int"), ("B", "str"), "C"])
    assert table.schema.names == ("A", "B", "C")
    assert table.schema.columns[2].type == "int"


def test_duplicate_table_rejected(db):
    db.create_table("T", ["A"])
    with pytest.raises(CatalogError):
        db.create_table("T", ["A"])


def test_table_lookup(db):
    created = db.create_table("T", ["A"])
    assert db.table("T") is created
    with pytest.raises(CatalogError):
        db.table("NOPE")


def test_drop_table(db):
    db.create_table("T", ["A"])
    db.drop_table("T")
    with pytest.raises(CatalogError):
        db.drop_table("T")


def test_interference_tick_disabled_by_default(db):
    db.create_table("T", ["A"]).insert((1,))
    assert db.interference_tick() == 0


def test_interference_tick_evicts(db):
    table = db.create_table("T", ["A"], rows_per_page=4)
    table.insert_many([(i,) for i in range(100)])
    list(table.heap.scan())  # warm the cache
    db.interference_rate = 0.5
    assert db.interference_tick() > 0


def test_cold_cache_forces_reads(db):
    table = db.create_table("T", ["A"], rows_per_page=4)
    table.insert_many([(i,) for i in range(40)])
    list(table.heap.scan())
    db.cold_cache()
    result = table.select()
    assert result.execution_io == table.heap.page_count


def test_shared_buffer_pool_across_tables(db):
    one = db.create_table("ONE", ["A"])
    two = db.create_table("TWO", ["A"])
    assert one.buffer_pool is two.buffer_pool is db.buffer_pool
