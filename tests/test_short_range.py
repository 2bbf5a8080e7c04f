"""Very short ranges fetched directly, against a forced Tscan, plus the
exactness pin against the Jscan and final stage they stand in for.

A range on one fetch-needed index (and nothing else to race or to order by)
whose Figure 5 descent counted it in a leaf, or split at level 2 over leaves
that one quantum of steps can walk, is walked on from where the descent
stopped and fetched directly (Section 5's "very short range"). Every shape
here is checked against ``force_strategy="tscan"`` on the same rows: the same
bag, zero pinned pages, and the direct path used exactly where it applies.
Under total-time the direct path must be indistinguishable from a forced
``background-only`` run except for the machinery: the same rows in the same
order, the same I/O and cost, the same pager reads and the same pool
recency.
"""

from __future__ import annotations

import random

import pytest

from repro.cache import FeedbackStore
from repro.config import DEFAULT_CONFIG
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.engine.metrics import EventKind
from repro.engine.retrieval import RetrievalRequest
from repro.errors import RetrievalError
from repro.estimate import Estimator
from repro.expr.ast import col, var
from repro.obs.audit import AuditLog
from repro.obs.trace import Tracer
from repro.partition import PartitionSpec

ROWS = 600
COLUMNS = [("ID", "int"), ("G", "int"), ("V", "int")]
ORDER = 8  # entries per leaf: one quantum (64 steps) walks up to 8 leaves


def _row(i: int) -> tuple:
    # ID leaves the odd numbers out, so a range can be empty inside a leaf;
    # G repeats every value six times, on pages far apart (so index order
    # is not page order)
    return (2 * i, (i * 7) % 100, (i * 37) % 100)


def make_table(partition_by=None, rows=ROWS, pool=48, **overrides):
    db = Database(buffer_capacity=pool, config=DEFAULT_CONFIG.with_(**overrides))
    table = db.create_table(
        "T", COLUMNS, rows_per_page=8, index_order=ORDER, partition_by=partition_by
    )
    for i in range(rows):
        table.insert(_row(i))
    table.create_index("IX_ID", ["ID"], unique=True)
    table.create_index("IX_G", ["G"])
    table.analyze()
    return db, table


def leaf_keys(table, index: str = "IX_ID") -> list[list]:
    """The first key column of every leaf, leaf by leaf (read past the
    buffer pool, so the pool is left as it was)."""
    btree = table.indexes[index].btree
    node = btree._peek_node(btree._root_id)
    while not node.is_leaf:
        node = btree._peek_node(node.children[0])
    leaves = [[key[0] for key, _ in node.entries]]
    while node.next_leaf is not None:
        node = btree._peek_node(node.next_leaf)
        leaves.append([key[0] for key, _ in node.entries])
    return leaves


def _children(table) -> list:
    return list(getattr(table, "partitions", (table,)))


def short_range_used(result) -> bool:
    """Whether the retrieval was fetched directly (a scatter: any part)."""
    if result.scatter is not None:
        return any(fetch.description.startswith("short-range")
                   for fetch in result.scatter.fetches)
    return result.description.startswith("short-range")


def tscan_rows(table, where, host_vars, limit=None) -> list[tuple]:
    """The reference: a forced Tscan over every partition of ``table``."""
    rows: list[tuple] = []
    for child in _children(table):
        request = RetrievalRequest(
            restriction=where, host_vars=dict(host_vars), limit=limit,
            force_strategy="tscan",
        )
        rows.extend(child.retrieval_engine().run(request).rows)
    return rows


def check(table, where, host_vars, short, limit=None, goal=OptimizationGoal.DEFAULT,
          columns=None, order_by=()):
    """Run ``where`` normally and as a forced Tscan; compare the bags."""
    result = table.select(where=where, host_vars=host_vars, limit=limit,
                          optimize_for=goal, columns=columns, order_by=order_by)
    expect = tscan_rows(table, where, host_vars)
    rows = result.rows
    if columns is not None:
        # columns the caller did not ask for are not read
        positions = [[name for name, _ in COLUMNS].index(name) for name in columns]
        rows = [tuple(row[p] for p in positions) for row in rows]
        expect = [tuple(row[p] for p in positions) for row in expect]
    if limit is None:
        assert sorted(rows) == sorted(expect)
    else:
        # any ``limit`` of the rows; LIMIT 0 still hands over the one row
        # the sink looks at before it stops (as every strategy does). A
        # scatter applies LIMIT once after the merge, the reference per
        # partition
        assert set(result.rows) <= set(expect)
        if result.scatter is not None:
            assert len(result.rows) == min(len(expect), limit)
        else:
            assert len(result.rows) == len(tscan_rows(table, where, host_vars, limit))
    if short is not None:
        assert short_range_used(result) is short, result.description
    for child in _children(table):
        assert child.buffer_pool._pinned == {}
    return result


ID_RANGE = col("ID").between(var("A"), var("B"))
G_RANGE = col("G").between(var("A"), var("B"))


def shapes(table) -> dict[str, dict]:
    """Host variables for the leaf-relative shapes on IX_ID."""
    leaves = leaf_keys(table)
    leaf, after = leaves[3], leaves[4]
    return {
        "one-leaf": {"A": leaf[1], "B": leaf[-3]},
        "two-leaf-straddle": {"A": leaf[-3], "B": after[2]},
        "ends-on-leaf-end": {"A": leaf[2], "B": leaf[-1]},
    }


HASH = PartitionSpec(column="ID", method="hash", partitions=4)
RANGE = PartitionSpec(column="ID", method="range", bounds=(300, 600, 900))


@pytest.fixture(scope="module")
def flat():
    return make_table()


class TestDifferential:
    @pytest.mark.parametrize("shape", ["one-leaf", "two-leaf-straddle", "ends-on-leaf-end"])
    def test_leaf_shapes(self, flat, shape):
        _, table = flat
        bindings = shapes(table)[shape]
        result = check(table, ID_RANGE, bindings, short=True)
        (estimate,) = result.trace.of_kind(EventKind.INITIAL_ESTIMATE)
        assert estimate.detail["exact"] is (shape != "two-leaf-straddle")
        assert result.trace.counters.index_entries_scanned == len(result.rows)

    def test_empty_in_leaf_range_is_the_empty_shortcut(self, flat):
        _, table = flat
        odd = leaf_keys(table)[3][2] + 1
        result = check(table, ID_RANGE, {"A": odd, "B": odd}, short=False)
        assert result.rows == []
        assert result.description == "shortcut: provably empty result"

    def test_extra_conjunct_rejects_rows(self, flat):
        _, table = flat
        bindings = shapes(table)["two-leaf-straddle"]
        result = check(table, ID_RANGE & (col("V") < 50), bindings, short=True)
        counters = result.trace.counters
        assert counters.fetches_rejected > 0
        assert counters.records_fetched == counters.records_delivered + counters.fetches_rejected

    @pytest.mark.parametrize("limit", [0, 1, 10])
    def test_limit_under_fast_first(self, flat, limit):
        _, table = flat
        leaves = leaf_keys(table)
        bindings = {"A": leaves[3][0], "B": leaves[5][-1]}  # 24 rows
        result = check(table, ID_RANGE, bindings, short=True, limit=limit,
                       goal=OptimizationGoal.FAST_FIRST)
        # index order, stopping at the limit
        assert result.rows == sorted(result.rows)
        assert result.stopped_early
        assert result.trace.counters.records_fetched == max(1, limit)

    def test_fast_first_fetches_in_index_order(self, flat):
        _, table = flat
        low = leaf_keys(table, "IX_G")[4][0]
        bindings = {"A": low, "B": low + 1}
        fast = check(table, G_RANGE, bindings, short=True, limit=10,
                     goal=OptimizationGoal.FAST_FIRST)
        keys = [(row[1], rid) for row, rid in zip(fast.rows, fast.rids)]
        assert keys == sorted(keys) and fast.rids != sorted(fast.rids)
        total = check(table, G_RANGE, bindings, short=True)
        assert total.rids == sorted(total.rids)  # the final stage's page order

    def test_limit_under_total_time_is_the_final_stage_prefix(self, flat):
        _, table = flat
        bindings = shapes(table)["two-leaf-straddle"]
        result = check(table, ID_RANGE, bindings, short=True, limit=3)
        assert result.rids == sorted(result.rids)

    @pytest.mark.parametrize("shape", ["in-leaf", "straddle", "two-keys"])
    def test_duplicate_keys_on_a_non_unique_index(self, flat, shape):
        _, table = flat
        leaf = leaf_keys(table, "IX_G")[4]
        # a key held wholly by the leaf, the key its last entry starts, and
        # that key with the next
        low = {"in-leaf": leaf[0], "straddle": leaf[-1], "two-keys": leaf[-1]}[shape]
        high = low + (shape == "two-keys")
        result = check(table, G_RANGE, {"A": low, "B": high}, short=True)
        assert len(result.rows) == 6 * (high - low + 1)

    def test_churned_tree_with_sparse_leaves(self):
        db, table = make_table()
        rng = random.Random(11)
        rids = {row[0]: rid for rid, row in table.heap.scan()}
        for key in rng.sample(sorted(rids), 350):  # lazy deletes: sparse leaves
            table.delete_rid(rids.pop(key))
        for i in range(300):  # odd keys through BTree.insert: leaf splits
            table.insert((2 * rng.randrange(ROWS) + 1, 1000 + i, i % 100))
        table.indexes["IX_ID"].btree.check_invariants()
        used = 0
        for _ in range(60):
            low = rng.randrange(2 * ROWS)
            bindings = {"A": low, "B": low + rng.randrange(0, 24)}
            used += short_range_used(check(table, ID_RANGE, bindings, short=None))
        assert used >= 30

    @pytest.mark.parametrize("spec", [HASH, RANGE], ids=["hash", "range"])
    def test_partitioned(self, spec):
        _, table = make_table(partition_by=spec)
        used = [
            short_range_used(check(table, ID_RANGE, {"A": low, "B": high}, short=None))
            for low, high in ((280, 310), (598, 604), (10, 20), (1100, 1130))
        ]
        assert sum(used) >= 3
        check(table, ID_RANGE, {"A": 280, "B": 310}, short=True, limit=2,
              goal=OptimizationGoal.FAST_FIRST)


class TestOldPathKept:
    @pytest.mark.parametrize("rows, bounds", [
        (12, (2, 8)),   # the projection could reach the Tscan's 2 pages
        (32, (2, 4)),   # the walk's own leaf reads could reach half of 4
    ], ids=["projection", "scan-cost"])
    def test_tiny_table_where_the_criterion_could_fire(self, rows, bounds):
        _, table = make_table(rows=rows)
        check(table, ID_RANGE, {"A": bounds[0], "B": bounds[1]}, short=False)

    def test_fast_first_bounds_the_foreground_too(self, flat):
        """Five leaves of entries are too many for a fast-first foreground
        fetching every one to stay under half the Tscan; total-time has no
        foreground."""
        _, table = flat
        leaves = leaf_keys(table)
        bindings = {"A": leaves[3][0], "B": leaves[7][0]}
        check(table, ID_RANGE, bindings, short=True)
        check(table, ID_RANGE, bindings, short=False, limit=3,
              goal=OptimizationGoal.FAST_FIRST)

    @pytest.mark.parametrize("override", [
        {"batch_size": 1},
        {"shortcut_rid_count": -1},
    ], ids=["batch-1", "shortcut-off"])
    def test_config(self, override):
        _, table = make_table(**override)
        for bindings in shapes(table).values():
            check(table, ID_RANGE, bindings, short=False)

    def test_other_shapes(self, flat):
        _, table = flat
        bindings = shapes(table)["one-leaf"]
        # two fetch-needed candidates race
        check(table, ID_RANGE & (col("G") >= 0), bindings, short=False)
        # a self-sufficient index competes
        check(table, ID_RANGE, bindings, short=False, columns=("ID",))
        # an order to deliver in
        check(table, ID_RANGE, bindings, short=False, order_by=("V",))

    def test_a_range_wider_than_a_quantum(self, flat):
        _, table = flat
        leaves = leaf_keys(table)
        bindings = {"A": leaves[3][0], "B": leaves[13][0]}
        check(table, ID_RANGE, bindings, short=False)


class TestPath:
    def test_events_span_and_audit(self, flat):
        _, table = flat
        tracer = Tracer("query")
        bindings = shapes(table)["two-leaf-straddle"]
        result = table.select(where=ID_RANGE, host_vars=bindings, tracer=tracer)
        assert [event.kind for event in result.trace] == [
            EventKind.INITIAL_ESTIMATE, EventKind.SHORTCUT_SMALL_RANGE,
            EventKind.INDEXES_ORDERED, EventKind.TACTIC_SELECTED,
            EventKind.RETRIEVAL_COMPLETE]
        (selected,) = result.trace.of_kind(EventKind.TACTIC_SELECTED)
        assert selected.detail == {"tactic": "short-range", "index": "IX_ID"}
        (retrieval,) = tracer.root.children
        assert [span.attrs.get("tactic") for span in retrieval.children] == [
            "short-range"]
        selection = AuditLog.of([result]).retrievals[0].tactic_selection()
        assert selection.chosen == "short-range"
        assert selection.alternatives == ("background-only", "tscan")

    def test_fast_first_alternative_is_the_fast_first_tactic(self, flat):
        _, table = flat
        result = table.select(where=ID_RANGE, host_vars=shapes(table)["one-leaf"],
                              optimize_for=OptimizationGoal.FAST_FIRST)
        selection = AuditLog.of([result]).retrievals[0].tactic_selection()
        assert selection.alternatives == ("fast-first", "tscan")

    def test_completes_in_the_quantum_that_starts_it(self, flat):
        _, table = flat
        bindings = shapes(table)["two-leaf-straddle"]
        steps = table.select_steps(where=ID_RANGE, host_vars=bindings)
        with pytest.raises(StopIteration) as stop:
            next(steps)
        assert short_range_used(stop.value.value)
        assert table.buffer_pool._pinned == {}

    def test_forced_short_range(self, flat):
        _, table = flat
        engine = table.retrieval_engine()
        bindings = shapes(table)["one-leaf"]
        forced = engine.run(RetrievalRequest(
            restriction=ID_RANGE, host_vars=bindings, force_strategy="short-range"))
        assert forced.description == "short-range(IX_ID)"
        leaves = leaf_keys(table)
        with pytest.raises(RetrievalError, match="short-range"):
            engine.run(RetrievalRequest(
                restriction=ID_RANGE, force_strategy="short-range",
                host_vars={"A": leaves[3][0], "B": leaves[13][0]}))


# -- exactness: the Jscan and final stage it skips ------------------------------


def _record_reads(db) -> list[int]:
    reads: list[int] = []
    read = db.pager.read

    def recording(page_id):
        reads.append(page_id)
        return read(page_id)

    db.pager.read = recording
    return reads


def _statements(table, count: int, seed: int) -> list[tuple]:
    """Short ranges of every shape on both indexes, some with an extra
    conjunct or a limit."""
    rng = random.Random(seed)
    leaves = leaf_keys(table)
    g_leaves = leaf_keys(table, "IX_G")
    out = []
    for _ in range(count):
        index = rng.random()
        if index < 0.7:
            leaf = rng.randrange(len(leaves) - 2)
            run = leaves[leaf] + leaves[leaf + 1]
            start = rng.randrange(len(leaves[leaf]))
            stop = rng.randrange(start + 1, len(run))  # a point would probe
            where, bindings = ID_RANGE, {"A": run[start], "B": run[stop]}
        else:
            leaf = rng.randrange(len(g_leaves) - 1)
            value = rng.choice(g_leaves[leaf])
            where, bindings = G_RANGE, {"A": value, "B": value + rng.randrange(2)}
        if rng.random() < 0.3:
            where = where & (col("V") < 60)
        limit = rng.choice((None, None, None, 2, 5))
        out.append((where, bindings, limit))
    return out


def test_total_time_is_exactly_the_jscan_it_skips():
    """A pool smaller than the working set, one statement sequence, run
    directly on one database and as forced ``background-only`` on an
    identical one: rows in the same order, the same I/O, cost and learned
    state, the same pager reads and the same pool recency after every
    statement."""
    sides = {}
    for force in (None, "background-only"):
        db, table = make_table(pool=24)
        assert db.buffer_pool.capacity < table.heap.page_count
        db.cold_cache()
        sides[force] = (db, table, _record_reads(db), FeedbackStore(), Estimator())
    statements = _statements(sides[None][1], 80, seed=5)
    direct_runs = 0
    for where, bindings, limit in statements:
        results = {}
        for force, (db, table, _, feedback, estimator) in sides.items():
            results[force] = table.retrieval_engine().run(RetrievalRequest(
                restriction=where, host_vars=bindings, limit=limit,
                feedback=feedback, estimator=estimator, force_strategy=force))
        direct, raced = results[None], results["background-only"]
        # a few ranges straddle a split above level 2 and race as well
        direct_runs += direct.description.startswith("short-range")
        assert direct.rows == raced.rows and direct.rids == raced.rids
        assert direct.execution_io == raced.execution_io
        assert direct.total_cost == raced.total_cost
        assert direct.estimation_cost == raced.estimation_cost
        (db_a, _, reads_a, _, _), (db_b, _, reads_b, _, _) = sides.values()
        assert reads_a == reads_b
        assert list(db_a.buffer_pool._cache) == list(db_b.buffer_pool._cache)
        assert db_a.buffer_pool._pinned == {} == db_b.buffer_pool._pinned
    assert direct_runs >= 60
    (_, _, _, feedback_a, estimator_a), (_, _, _, feedback_b, estimator_b) = (
        sides.values())
    assert feedback_a.snapshot_for("T") == feedback_b.snapshot_for("T")
    assert estimator_a.take_recent() == estimator_b.take_recent()
    assert (estimator_a.histogram_snapshot("T")["IX_ID"].describe()
            == estimator_b.histogram_snapshot("T")["IX_ID"].describe())


@pytest.mark.parametrize("shape, saved", [
    ("one-leaf", lambda h: h),               # the estimate ended in the leaf
    ("two-leaf-straddle", lambda h: h - 1),  # ... in the leaves' parent
])
def test_pool_gets_skip_the_jscan_descent(shape, saved):
    """The direct walk touches every page the Jscan path does, less the
    Jscan's own root-to-leaf descent over the estimate's path."""
    gets = {}
    for force in (None, "background-only"):
        db, table = make_table()
        request = RetrievalRequest(restriction=ID_RANGE, host_vars=shapes(table)[shape],
                                   force_strategy=force)
        table.retrieval_engine().run(request)  # warm every page
        pool = db.buffer_pool
        before = pool.hits + pool.misses
        table.retrieval_engine().run(request)
        gets[force] = pool.hits + pool.misses - before
    height = table.indexes["IX_ID"].btree.height
    assert height >= 3
    assert gets["background-only"] - gets[None] == saved(height)
