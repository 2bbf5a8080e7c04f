"""Partitioned storage and scatter-gather retrieval.

Covers the partition subsystem end to end: the stable hash / range
partitioners and their candidate pruning, the merge helpers, the
:class:`~repro.db.partitioned.PartitionedTable` surface (routing, DDL
fan-out, statistics), the scatter coordinator's accounting identity
(merged costs are the per-partition sums), cancellation at every yield
(pins and temp pages released), the SQL ``PARTITION BY`` clause, and the
scatter-gather metrics wired through the server registry.
"""

import zlib

import pytest

import repro
from repro.config import DEFAULT_CONFIG
from repro.db.session import Database
from repro.errors import CatalogError, ReproError, RetrievalError
from repro.expr.ast import col, var
from repro.obs.audit import AuditLog, DecisionKind
from repro.obs.trace import Tracer
from repro.partition import (
    HashPartitioner,
    PartitionSpec,
    RangePartitioner,
    bag_union,
    merge_sorted_runs,
    partition_name,
    stable_hash,
)
from repro.partition.partitioner import make_partitioner
from repro.server import QueryServer
from repro.storage.pager import PageKind
from repro.storage.rid import make_rid


def make_db(partitions=4, rows=400, buffer_capacity=64, **overrides):
    config = DEFAULT_CONFIG.with_(**overrides)
    db = Database(buffer_capacity=buffer_capacity, config=config)
    table = db.create_table(
        "T",
        [("ID", "int"), ("V", "int")],
        rows_per_page=8,
        partition_by=PartitionSpec(column="ID", method="hash", partitions=partitions),
    )
    for i in range(rows):
        table.insert((i, i % 7))
    table.create_index("IX_ID", ["ID"])
    table.analyze()
    return db, table


# -- partitioners ------------------------------------------------------------


class TestStableHash:
    def test_ints_map_to_themselves(self):
        assert stable_hash(17) == 17
        assert stable_hash(0) == 0

    def test_strings_use_crc32(self):
        assert stable_hash("abc") == zlib.crc32(b"abc")

    def test_none_is_zero(self):
        assert stable_hash(None) == 0

    def test_deterministic(self):
        for value in (3, "x", 2.5, None, True):
            assert stable_hash(value) == stable_hash(value)


class TestPartitionSpec:
    def test_hash_needs_two_partitions(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="ID", method="hash", partitions=1)

    def test_range_needs_bounds(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="ID", method="range")

    def test_range_bounds_must_ascend(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="ID", method="range", bounds=(10, 10))

    def test_range_partition_count_from_bounds(self):
        spec = PartitionSpec(column="ID", method="range", bounds=(100, 200))
        assert spec.partitions == 3

    def test_unknown_method(self):
        with pytest.raises(CatalogError):
            PartitionSpec(column="ID", method="round-robin")

    def test_describe(self):
        spec = PartitionSpec(column="ID", method="hash", partitions=4)
        text = spec.describe()
        assert "hash" in text and "ID" in text and "4" in text


class TestHashPruning:
    def setup_method(self):
        spec = PartitionSpec(column="ID", method="hash", partitions=4)
        self.part = make_partitioner(spec, 0)

    def test_routes_rows(self):
        assert isinstance(self.part, HashPartitioner)
        for i in range(20):
            assert self.part.partition_of_row((i, 0)) == i % 4

    def test_equality_prunes_to_one(self):
        assert self.part.candidate_partitions(col("ID").eq(6), {}) == (2,)

    def test_host_var_equality_prunes(self):
        restriction = col("ID").eq(var("K"))
        assert self.part.candidate_partitions(restriction, {"K": 7}) == (3,)

    def test_in_list_prunes_to_subset(self):
        restriction = col("ID").in_([1, 5, 9])  # all hash to partition 1
        assert self.part.candidate_partitions(restriction, {}) == (1,)

    def test_range_predicate_cannot_prune(self):
        restriction = col("ID").between(0, 10)
        assert self.part.candidate_partitions(restriction, {}) == (0, 1, 2, 3)

    def test_other_column_cannot_prune(self):
        restriction = col("V").eq(3)
        assert (
            HashPartitioner(
                PartitionSpec(column="ID", partitions=4), 0
            ).candidate_partitions(restriction, {})
            == (0, 1, 2, 3)
        )

    def test_contradiction_prunes_everything(self):
        restriction = col("ID").eq(1) & col("ID").eq(2)
        assert self.part.candidate_partitions(restriction, {}) == ()


class TestRangePruning:
    def setup_method(self):
        spec = PartitionSpec(column="ID", method="range", bounds=(100, 200))
        self.part = make_partitioner(spec, 0)

    def test_routes_rows(self):
        assert isinstance(self.part, RangePartitioner)
        assert self.part.partition_of_row((50, 0)) == 0
        assert self.part.partition_of_row((100, 0)) == 1
        assert self.part.partition_of_row((250, 0)) == 2
        assert self.part.partition_of_row((None, 0)) == 0

    def test_band_prunes_to_touching_partitions(self):
        assert self.part.candidate_partitions(col("ID").between(50, 150), {}) == (0, 1)
        assert self.part.candidate_partitions(col("ID").between(210, 500), {}) == (2,)

    def test_open_ranges(self):
        assert self.part.candidate_partitions(col("ID") < 100, {}) == (0,)
        assert self.part.candidate_partitions(col("ID") >= 200, {}) == (2,)


# -- merge helpers -----------------------------------------------------------


class TestMerge:
    def test_bag_union_keeps_partition_order(self):
        runs = [
            ([(3,), (1,)], [make_rid(0, 0), make_rid(0, 1)]),
            ([(2,)], [make_rid(1, 0)]),
        ]
        rows, rids = bag_union(runs)
        assert rows == [(3,), (1,), (2,)]
        assert rids == [make_rid(0, 0), make_rid(0, 1), make_rid(1, 0)]

    def test_merge_sorted_runs_globally_ordered(self):
        runs = [
            ([(1, "a"), (4, "a")], [make_rid(0, 0), make_rid(0, 1)]),
            ([(2, "b"), (3, "b"), (9, "b")], [make_rid(1, 0), make_rid(1, 1), make_rid(1, 2)]),
        ]
        rows, rids = merge_sorted_runs(runs, [0])
        assert [row[0] for row in rows] == [1, 2, 3, 4, 9]
        assert len(rids) == 5

    def test_merge_ties_break_by_partition(self):
        runs = [
            ([(5, "p1")], [make_rid(1, 0)]),
            ([(5, "p0")], [make_rid(0, 0)]),
        ]
        rows, _ = merge_sorted_runs(runs, [0])
        # equal keys deliver in partition order, never comparing payloads
        assert rows == [(5, "p1"), (5, "p0")]

    def test_merge_is_the_heap_merge_it_replaced(self):
        import heapq

        # ties within a run, ties across three partitions, two key columns,
        # an empty run, and payloads (dicts) no comparison could order
        runs = [
            ([(1, 1, {"p": 0}), (2, 1, {"p": 0}), (2, 1, {"q": 0}), (2, 3, {})],
             [make_rid(0, 0), make_rid(0, 1), make_rid(0, 2), make_rid(0, 3)]),
            ([], []),
            ([(2, 1, {"p": 2}), (2, 2, {"p": 2})], [make_rid(0, 0), make_rid(0, 1)]),
            ([(0, 9, {}), (2, 1, {"p": 3}), (7, 0, {})],
             [make_rid(5, 0), make_rid(5, 1), make_rid(5, 2)]),
        ]
        for positions in ([0], [0, 1], [1, 0]):
            in_order = [
                sorted(zip(rows, rids), key=lambda pair: [pair[0][p] for p in positions])
                for rows, rids in runs
            ]
            expected = list(heapq.merge(
                *(
                    [([row[p] for p in positions], part, row, rid) for row, rid in pairs]
                    for part, pairs in enumerate(in_order)
                ),
                key=lambda item: item[:2],
            ))
            rows, rids = merge_sorted_runs(
                [([row for row, _ in pairs], [rid for _, rid in pairs])
                 for pairs in in_order],
                positions,
            )
            assert [id(row) for row in rows] == [id(item[2]) for item in expected]
            assert rids == [item[3] for item in expected]

    def test_merge_of_nothing(self):
        assert merge_sorted_runs([], [0]) == ([], [])
        assert merge_sorted_runs([([], []), ([], [])], [0, 1]) == ([], [])


# -- the PartitionedTable surface --------------------------------------------


class TestPartitionedTable:
    def test_rows_route_by_hash(self):
        _, table = make_db(rows=40)
        for index, child in enumerate(table.partitions):
            assert child.name == partition_name("T", index)
            for _, row in child.heap.scan():
                assert stable_hash(row[0]) % 4 == index
        assert table.row_count == 40

    def test_partition_column_must_exist(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_table(
                "BAD", [("ID", "int")],
                partition_by=PartitionSpec(column="NOPE", partitions=2),
            )

    def test_index_fanout(self):
        _, table = make_db(rows=20)
        assert all("IX_ID" in child.indexes for child in table.partitions)
        with pytest.raises(CatalogError):
            table.create_index("IX_ID", ["ID"])
        table.drop_index("IX_ID")
        assert all("IX_ID" not in child.indexes for child in table.partitions)

    def test_analyze_builds_table_level_stats(self):
        _, table = make_db(rows=100)
        assert table.stats is not None
        assert table.stats.row_count == 100
        assert table.stats.columns["ID"].distinct == 100

    def test_drop_table_releases_and_allows_recreate(self):
        db, _ = make_db(rows=50)
        db.drop_table("T")
        assert "T" not in db.tables
        table = db.create_table(
            "T", [("ID", "int")],
            partition_by=PartitionSpec(column="ID", partitions=2),
        )
        table.insert((1,))
        assert table.row_count == 1

    def test_cold_cache_clears_partition_pools(self):
        db, table = make_db(rows=100)
        table.select(where=col("ID").between(0, 99))
        assert any(len(child.buffer_pool) for child in table.partitions)
        db.cold_cache()
        assert all(len(child.buffer_pool) == 0 for child in table.partitions)

    def test_joins_degrade_with_a_clear_error(self):
        db, _ = make_db(rows=10)
        other = db.create_table("U", [("ID", "int")])
        other.insert((1,))
        conn = repro.connect(db=db)
        with pytest.raises(RetrievalError, match="partitioned"):
            conn.execute("select a.V from T a join U b on a.ID = b.ID")


# -- scatter-gather ----------------------------------------------------------


class TestScatter:
    def test_equality_scatter_prunes(self):
        _, table = make_db(rows=80)
        result = table.select(where=col("ID").eq(13))
        assert result.rows == [(13, 13 % 7)]
        assert result.scatter is not None
        assert result.scatter.candidates == (stable_hash(13) % 4,)
        assert result.scatter.pruned == 3

    def test_bag_matches_unpartitioned_plan(self):
        db = Database(buffer_capacity=64)
        flat = db.create_table("F", [("ID", "int"), ("V", "int")], rows_per_page=8)
        for i in range(400):
            flat.insert((i, i % 7))
        flat.create_index("IX_ID", ["ID"])
        flat.analyze()
        _, table = make_db(rows=400)
        for where in (col("ID").between(37, 210), col("V").eq(3)):
            expect = flat.select(where=where)
            got = table.select(where=where)
            assert sorted(got.rows) == sorted(expect.rows)

    def test_ordered_merge_is_globally_sorted(self):
        _, table = make_db(rows=200)
        result = table.select(where=col("ID").between(10, 150), order_by=("ID",))
        ids = [row[0] for row in result.rows]
        assert ids == list(range(10, 151))
        assert result.scatter.ordered_merge is True

    def test_limit_truncates_after_merge(self):
        _, table = make_db(rows=200)
        result = table.select(
            where=col("ID").between(0, 150), order_by=("ID",), limit=5
        )
        assert [row[0] for row in result.rows] == [0, 1, 2, 3, 4]

    def test_accounting_identical_serial_vs_parallel(self):
        """The accounting invariant: the merged result's cost and I/O are
        exactly the sums of the per-partition fetches."""
        db, table = make_db(rows=400)
        db.cold_cache()
        result = table.select(where=col("ID").between(20, 300))
        info = result.scatter
        assert len(info.fetches) == 4
        assert result.total_cost == pytest.approx(
            sum(f.cost for f in info.fetches)
        )
        assert result.execution_io == sum(f.io for f in info.fetches)
        assert sum(f.rows for f in info.fetches) == len(result.rows) == 281

    def test_cancellation_releases_pins(self):
        # tiny quanta: three yields land inside the first partition fetch
        db, table = make_db(rows=2000, batch_size=4)
        gen = table.select_steps(where=col("ID").between(0, 1999))
        for _ in range(3):
            next(gen)
        gen.close()
        for child in table.partitions:
            assert child.buffer_pool._pinned == {}

    def test_cancel_at_every_yield_point(self):
        """Closing the coordinator after any number of quanta — inside a
        fetch, between two fetches, at the last yield — leaves no pin, no
        temp-table page, and a scatter span marked cancelled."""
        db, table = make_db(
            rows=400, batch_size=4, static_rid_buffer_size=2,
            allocated_rid_buffer_size=8, temp_rids_per_page=16,
        )
        # each partition's Jscan spills to a temp table, then loses to a
        # Tscan that discards it: temp pages exist only mid-fetch
        where = col("ID").between(20, 300)

        def temp_pages():
            return [
                page for page in db.pager._pages.values()
                if page.kind is PageKind.TEMP
            ]

        gen = table.select_steps(where=where)
        yields, spilled = 0, False
        with pytest.raises(StopIteration):
            while True:
                next(gen)
                yields += 1
                spilled = spilled or bool(temp_pages())
        assert spilled and yields > 2 * len(table.partitions)
        for k in range(1, yields + 1):
            tracer = Tracer()
            gen = table.select_steps(where=where, tracer=tracer)
            for _ in range(k):
                next(gen)
            gen.close()
            for child in table.partitions:
                assert child.buffer_pool._pinned == {}, k
            assert temp_pages() == [], k
            (span,) = tracer.root.find("scatter")
            assert span.attrs.get("cancelled") is True, k

    def test_scatter_audit_decision(self):
        _, table = make_db(rows=80)
        result = table.select(where=col("ID").eq(5))
        assert result.rows == [(5, 5)]
        audit = AuditLog.of([result])
        records = [
            record
            for retrieval in audit.retrievals
            for record in retrieval.decisions
            if record.kind is DecisionKind.SCATTER
        ]
        assert len(records) == 1
        assert records[0].inputs["partitions"] == 4
        assert records[0].inputs["pruned"] == 3

    def test_partition_stats_reconcile(self):
        db, table = make_db(rows=200)
        delivered = 0
        for lo in (0, 50, 100):
            delivered += len(table.select(where=col("ID").between(lo, lo + 40)).rows)
        stats = db.partition_stats
        assert stats.scatters == 3
        assert stats.merge_rows == delivered
        assert stats.partitions_fetched + stats.partitions_pruned == 12


# -- SQL DDL + server metrics ------------------------------------------------


class TestPartitionSql:
    def test_hash_ddl_roundtrip(self):
        conn = repro.connect()
        made = conn.execute(
            "create table M (ID int, V int) partition by hash(ID) partitions 4"
        )
        assert "hash" in made.text.lower()
        for i in range(16):
            conn.execute(f"insert into M values ({i}, {i * 2})")
        result = conn.execute("select V from M where ID = 9")
        assert result.rows == [(18,)]
        table = conn.db.table("M")
        assert table.is_partitioned and table.spec.partitions == 4

    def test_range_ddl_roundtrip(self):
        conn = repro.connect()
        conn.execute(
            "create table R (ID int) partition by range(ID) values (10, 20)"
        )
        table = conn.db.table("R")
        assert table.spec.method == "range"
        assert table.spec.partitions == 3
        for i in (5, 15, 25):
            conn.execute(f"insert into R values ({i})")
        assert [child.row_count for child in table.partitions] == [1, 1, 1]

    def test_ddl_errors(self):
        conn = repro.connect()
        with pytest.raises(ReproError):
            conn.execute("create table B (ID int) partition by hash(ID) partitions 1")
        with pytest.raises(ReproError):
            conn.execute("create table B (ID int) partition by hash(NOPE) partitions 2")
        with pytest.raises(ReproError):
            conn.execute("create table B (ID int) partition by modulo(ID) partitions 2")

    def test_server_metrics_expose_scatter_counters(self):
        db, _ = make_db(rows=120)
        server = QueryServer(db)
        session = server.session("s0")
        handle = session.submit("select * from T where ID between 0 and 99")
        server.run_until_idle()
        rows = handle.result.rows
        text = server.metrics.expose_text()
        assert "repro_partition_scatters_total 1" in text
        assert f"repro_partition_merge_rows_total {len(rows)}" in text
        assert "repro_partition_fetch_cost" in text
        human = server.metrics.format()
        assert "scatter" in human
        server.shutdown()
