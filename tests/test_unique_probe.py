"""The unique-key probe against a forced Tscan, plus its fixed-cost pins.

A fetch-needed unique index with every key column bound by equality is
resolved at start-retrieval time by one descent and one fetch (Section 5's
clearest case). Every shape here is checked against
``force_strategy="tscan"`` on the same rows: the same bag, zero pinned
pages, and the probe used exactly where it applies. The second half pins
the per-statement fixed cost through public counters only.
"""

from __future__ import annotations

import pytest

import repro
import repro.sql.parser as sql_parser
import repro.sql.tokenizer as sql_tokenizer
from repro.config import DEFAULT_CONFIG
from repro.db.session import Database
from repro.engine.metrics import EventKind
from repro.engine.retrieval import RetrievalRequest
from repro.expr.ast import col, var
from repro.obs.audit import AuditLog
from repro.obs.trace import Tracer
from repro.partition import PartitionSpec
from repro.sql.executor import execute_sql_steps
from repro.storage.buffer_pool import NULL_METER
from repro.storage.pager import PageKind

ROWS = 300
COLUMNS = [("ID", "int"), ("A", "int"), ("B", "int"), ("C", "int"),
           ("G", "int"), ("CODE", "str")]


def _row(i: int) -> tuple:
    return (i, i // 10, i % 10, (i * 37) % 50, i % 7, f"k{i:04d}")


def _load(table) -> None:
    for i in range(ROWS):
        table.insert(_row(i))
    table.create_index("IX_ID", ["ID"], unique=True)
    table.create_index("IX_AB", ["A", "B"], unique=True)
    table.create_index("IX_CODE", ["CODE"], unique=True)
    table.create_index("IX_G", ["G"])
    table.analyze()


def make_table(partition_by=None, **overrides):
    db = Database(buffer_capacity=64, config=DEFAULT_CONFIG.with_(**overrides))
    table = db.create_table(
        "T", COLUMNS, rows_per_page=8, index_order=4, partition_by=partition_by
    )
    _load(table)
    return db, table


def _pools(table) -> list:
    return [child.buffer_pool for child in getattr(table, "partitions", (table,))]


def tscan_rows(table, where, host_vars, order_by=(), limit=None) -> list[tuple]:
    """The reference: a forced Tscan over every partition of ``table``."""
    rows: list[tuple] = []
    for child in getattr(table, "partitions", (table,)):
        request = RetrievalRequest(
            restriction=where, host_vars=dict(host_vars), order_by=tuple(order_by),
            limit=limit, force_strategy="tscan",
        )
        rows.extend(child.retrieval_engine().run(request).rows)
    return rows


EMPTY = "shortcut: provably empty result"


def probe_used(result) -> bool:
    """Whether the retrieval probed (for a scatter: some partition did)."""
    if result.scatter is not None:
        return any(fetch.description.startswith("unique-probe")
                   for fetch in result.scatter.fetches)
    if result.description == EMPTY:
        return not result.trace.has(EventKind.INITIAL_ESTIMATE)
    return result.description.startswith("unique-probe")


def check(table, where, host_vars, probe, order_by=(), limit=None):
    """Run ``where`` normally and as a forced Tscan; compare the bags."""
    result = table.select(where=where, host_vars=host_vars, order_by=order_by,
                          limit=limit)
    expect = tscan_rows(table, where, host_vars, order_by, limit)
    if result.scatter is None:
        assert sorted(result.rows) == sorted(expect)
    else:
        # scatter applies LIMIT once after the merge, the reference per
        # partition: compare against the reference's first rows
        assert set(result.rows) <= set(expect)
        assert len(result.rows) == min(len(expect), limit if limit is not None
                                       else len(expect))
    if probe is not None:
        assert probe_used(result) is probe, result.description
    for pool in _pools(table):
        assert pool._pinned == {}
    return result


ID_POINT = col("ID").eq(var("K"))
AB_POINT = col("A").eq(var("A")) & col("B").eq(var("B"))
CODE_POINT = col("CODE").eq(var("S"))

FLAT = None
HASH = PartitionSpec(column="ID", method="hash", partitions=4)
RANGE = PartitionSpec(column="ID", method="range", bounds=(75, 150, 225))


@pytest.fixture(params=[FLAT, HASH, RANGE], ids=["flat", "hash", "range"])
def table(request):
    return make_table(partition_by=request.param)[1]


class TestDifferential:
    @pytest.mark.parametrize("key", [0, 17, 149, 150, 299])
    def test_single_column_key(self, table, key):
        result = check(table, ID_POINT, {"K": key}, probe=True)
        assert result.rows == [_row(key)]

    def test_composite_key_fully_bound_probes(self, table):
        result = check(table, AB_POINT, {"A": 12, "B": 3}, probe=True)
        assert result.rows == [_row(123)]

    def test_composite_key_prefix_bound_does_not_probe(self, table):
        result = check(table, col("A").eq(var("A")), {"A": 12}, probe=False)
        assert len(result.rows) == 10

    @pytest.mark.parametrize("extra, hit", [
        (col("C").eq((17 * 37) % 50), True),   # unindexed, holds
        (col("C").eq(1 + (17 * 37) % 50), False),  # unindexed, fails
        (col("G").eq(17 % 7), True),            # indexed, holds
        (col("G") > 6, False),                  # indexed, fails
    ])
    def test_extra_conjuncts(self, table, extra, hit):
        result = check(table, ID_POINT & extra, {"K": 17}, probe=True)
        assert result.rows == ([_row(17)] if hit else [])
        counters = result.trace.counters
        assert counters.records_fetched == 1
        assert counters.fetches_rejected == (0 if hit else 1)

    def test_string_key(self, table):
        result = check(table, CODE_POINT, {"S": "k0042"}, probe=True)
        assert result.rows == [_row(42)]
        missing = check(table, CODE_POINT, {"S": "k0042x"}, probe=None)
        assert missing.rows == []

    def test_float_probe_of_int_column(self, table):
        result = check(table, ID_POINT, {"K": 3.0}, probe=True)
        assert result.rows == [_row(3)]

    def test_null_host_variable_does_not_probe(self, table):
        result = check(table, ID_POINT, {"K": None}, probe=False)
        assert result.rows == []

    @pytest.mark.parametrize("limit", [0, 1])
    def test_limit(self, table, limit):
        check(table, ID_POINT, {"K": 17}, probe=True, limit=limit)

    def test_order_by(self, table):
        result = check(table, ID_POINT, {"K": 17}, probe=True, order_by=("C",))
        assert result.rows == [_row(17)]


class TestMisses:
    def test_missing_key_is_provably_empty_without_heap_reads(self):
        db, table = make_table()
        db.cold_cache()
        heap_reads = db.pager.stats.reads_by_kind[PageKind.HEAP]
        result = check(table, ID_POINT, {"K": 10_000}, probe=True)
        assert result.rows == []
        assert result.description == EMPTY
        assert [e.kind for e in result.trace] == [
            EventKind.SHORTCUT_EMPTY, EventKind.RETRIEVAL_COMPLETE]
        assert result.trace.counters.records_fetched == 0
        assert db.pager.stats.reads_by_kind[PageKind.HEAP] == heap_reads

    @pytest.mark.parametrize("key", [0, 41, 42, 299])
    def test_deleted_row(self, key):
        db, table = make_table()
        rid = table.select(where=ID_POINT, host_vars={"K": key}).rids[0]
        table.delete_rid(rid)
        result = check(table, ID_POINT, {"K": key}, probe=True)
        assert result.rows == []
        assert result.trace.has(EventKind.SHORTCUT_EMPTY)
        assert result.trace.counters.records_fetched == 0


class TestPaths:
    def test_shortcut_ablation_keeps_the_estimating_path(self):
        _, table = make_table(shortcut_rid_count=-1)
        result = check(table, ID_POINT, {"K": 17}, probe=False)
        assert result.trace.has(EventKind.INITIAL_ESTIMATE)
        assert result.description.startswith("background-only")

    def test_forced_strategy_never_probes(self):
        _, table = make_table()
        request = RetrievalRequest(restriction=ID_POINT, host_vars={"K": 17},
                                   force_strategy="background-only")
        result = table.retrieval_engine().run(request)
        assert result.rows == [_row(17)]
        assert result.description.startswith("background-only")

    def test_probe_completes_in_the_quantum_that_starts_it(self):
        _, table = make_table()
        steps = table.select_steps(where=ID_POINT, host_vars={"K": 17})
        with pytest.raises(StopIteration) as stop:
            next(steps)
        assert stop.value.value.rows == [_row(17)]
        table.select_steps(where=ID_POINT, host_vars={"K": 17}).close()
        assert table.buffer_pool._pinned == {}

    def test_closing_a_statement_mid_flight_leaks_nothing(self):
        db, table = make_table(batch_size=1)
        # the EXISTS subquery is a probe (it finishes without yielding);
        # the outer Tscan then yields once per page and is closed mid-way
        steps = execute_sql_steps(
            db, "select * from T where C >= 0 and exists "
                "(select * from T where ID = :K)", {"K": 17})
        for _ in range(3):
            next(steps)
        steps.close()
        assert db.buffer_pool._pinned == {}
        assert not list(db.pager.pages_of("T.spill"))
        assert all(page.kind is not PageKind.TEMP
                   for page in db.pager._pages.values())

    def test_traced_probe_has_one_tactic_span(self):
        _, table = make_table()
        tracer = Tracer("query")
        table.select(where=ID_POINT, host_vars={"K": 17}, tracer=tracer)
        (retrieval,) = tracer.root.children
        assert retrieval.name == "retrieval"
        assert [span.attrs.get("tactic") for span in retrieval.children] == [
            "unique-probe"]

    def test_audited_probe_records_a_selection_without_alternatives(self):
        _, table = make_table()
        result = table.select(where=ID_POINT, host_vars={"K": 17})
        (audit,) = AuditLog.of([result]).retrievals
        selection = audit.tactic_selection()
        assert selection.chosen == "unique-probe"
        assert selection.alternatives == ()


# -- the fixed-cost regression pin -------------------------------------------


def _gets(pool) -> int:
    return pool.hits + pool.misses


def _inner_key(table) -> int:
    """A key in the middle of a leaf: neither a separator nor at a leaf's
    end, so no path reads a second leaf."""
    leaf = table.indexes["IX_ID"].btree.first_leaf_for(None, NULL_METER)
    return leaf.entries[len(leaf.entries) // 2][0][0]


@pytest.mark.parametrize("shortcut, gets", [
    (20, lambda h: h + 1),        # the probe
    (-1, lambda h: 2 * h + 1),    # estimate, Jscan descent, final stage
])
def test_point_pool_gets(shortcut, gets):
    _, table = make_table(shortcut_rid_count=shortcut)
    key = _inner_key(table)
    table.select(where=ID_POINT, host_vars={"K": key})  # warm every page
    h = table.indexes["IX_ID"].btree.height
    assert h >= 3
    before = _gets(table.buffer_pool)
    table.select(where=ID_POINT, host_vars={"K": key})
    assert _gets(table.buffer_pool) - before == gets(h)


def test_point_event_list():
    _, table = make_table()
    result = table.select(where=ID_POINT, host_vars={"K": 17})
    assert [event.kind for event in result.trace] == [
        EventKind.SHORTCUT_SMALL_RANGE, EventKind.RETRIEVAL_COMPLETE]
    (shortcut,) = result.trace.of_kind(EventKind.SHORTCUT_SMALL_RANGE)
    assert shortcut.detail == {"index": "IX_ID", "rids": 1, "skipped_estimates": 0}
    assert result.estimation_cost == 0.0


def test_probe_io_matches_the_estimating_path():
    """Pages read and their order are those of estimate-then-Jscan."""
    reads = {}
    for shortcut in (20, -1):
        db, table = make_table(shortcut_rid_count=shortcut)
        for key in range(0, ROWS, 7):
            db.cold_cache()
            table.select(where=ID_POINT, host_vars={"K": key})
            reads.setdefault(shortcut, []).append(db.pager.stats.reads)
    assert reads[20] == reads[-1]


def test_repeated_text_never_tokenizes(monkeypatch):
    conn = repro.connect(db=make_table()[0])
    calls = []

    def counting(text):
        calls.append(text)
        return original(text)

    original = sql_tokenizer.tokenize
    monkeypatch.setattr(sql_tokenizer, "tokenize", counting)
    monkeypatch.setattr(sql_parser, "tokenize", counting)
    sql = "select * from T where ID = :K"
    assert conn.execute(sql, {"K": 5}).rows == [_row(5)]
    assert len(calls) == 1  # normalize and parse share one token list
    calls.clear()
    for key in (6, 7, 8):
        assert conn.execute(sql, {"K": key}).rows == [_row(key)]
    assert calls == []


def test_ddl_between_executions_rebinds():
    db = Database(buffer_capacity=64)
    conn = repro.connect(db=db)
    table = db.create_table("U", [("ID", "int"), ("V", "int")], rows_per_page=8)
    for i in range(100):
        table.insert((i, i * 2))
    sql = "select * from U where ID = :K"
    first = conn.execute(sql, {"K": 40})
    assert first.rows == [(40, 80)]
    assert first.retrievals[0].result.description == "tscan"
    invalidations = db.plan_cache.invalidations
    conn.execute("create unique index IX_U on U (ID)")
    second = conn.execute(sql, {"K": 40})
    assert second.rows == [(40, 80)]
    assert db.plan_cache.invalidations == invalidations + 1
    assert second.retrievals[0].result.description == "unique-probe(IX_U)"


def test_plan_cache_key_memo_is_bounded():
    db = Database(buffer_capacity=64, config=DEFAULT_CONFIG.with_(plan_cache_size=4))
    conn = repro.connect(db=db)
    table = db.create_table("U", [("ID", "int")], rows_per_page=8)
    table.insert((1,))
    for key in range(20):
        conn.execute(f"select * from U where ID = {key}")
    assert len(db.plan_cache._keys) == 4
    assert db.plan_cache.size == 4

