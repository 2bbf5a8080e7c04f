"""Batch-vs-row equivalence suite.

The batching layer (``next_batch`` on every scan strategy, batched tactic
generators, buffer-pool read-ahead) must be an *accounting-transparent*
optimisation: for any retrieval that runs to completion it delivers the
same row sequence, the same ``CostMeter`` totals in physical-I/O units,
and the same competition switch decisions as repeated single ``step``
calls. ``buffer_hits`` is the one documented exception where read-ahead
is involved: a prefetched page charges its miss at prefetch time and a
hit at fetch time (see docs/performance.md).
"""

from dataclasses import asdict

import pytest

from paper.mohan_jscan import StaticThresholdJscan
from paper.probabilistic import BayesianJscan
from repro.btree.tree import KeyRange
from repro.config import DEFAULT_CONFIG
from repro.db.session import Database
from repro.engine.initial import run_initial_stage
from repro.engine.jscan import JscanProcess
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.scans import FscanProcess, SscanProcess, TscanProcess
from repro.engine.union_scan import UnionScanProcess
from repro.expr.ast import ALWAYS_TRUE, col
from repro.expr.disjunction import cover_disjuncts
from repro.storage.buffer_pool import CostMeter
from repro.storage.rid import rid_page, rid_slot

BATCH_SIZES = [1, 2, 64]


class Collector:
    def __init__(self, stop_after=None):
        self.rows = []
        self.rids = []
        self.stop_after = stop_after

    def __call__(self, rid, row):
        self.rids.append(rid)
        self.rows.append(row)
        return self.stop_after is None or len(self.rows) < self.stop_after


def run_steps(process):
    while process.active:
        if process.step():
            break
    return process


def drain_batches(process, batch_size):
    delivered = []
    while True:
        batch = process.next_batch(batch_size)
        if not batch:
            break
        delivered.extend(batch)
    return delivered


def meter_totals(meter: CostMeter) -> dict:
    return {
        "io_reads": meter.io_reads,
        "io_writes": meter.io_writes,
        "entries": meter.entries,
        "records": meter.records,
        "cpu": meter.cpu,
        "io_total": meter.io_total,
        "total": meter.total,
    }


def build_db():
    db = Database(buffer_capacity=48)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=6,
    )
    for i in range(400):
        table.insert((i % 30, (i * 7) % 90, i))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    table.analyze()
    return db, table


# -- per-strategy next_batch equivalence -------------------------------------


class TestNextBatchMatchesSteps:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_tscan(self, batch_size):
        db, table = build_db()
        make = lambda sink: TscanProcess(  # noqa: E731
            table.heap, table.schema, col("B") < 40, {}, sink, RetrievalTrace(),
            config=table.config,
        )
        db.cold_cache()
        reference = run_steps(make(Collector()))
        db.cold_cache()
        batched = make(lambda rid, row: True)
        delivered = drain_batches(batched, batch_size)
        assert [rid for rid, _ in delivered] == reference.sink.rids
        assert [row for _, row in delivered] == reference.sink.rows
        assert meter_totals(batched.meter) == meter_totals(reference.meter)
        assert batched.finished and not batched.stopped_by_consumer

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_sscan(self, batch_size):
        db, table = build_db()
        index = table.indexes["IX_A"]
        make = lambda sink: SscanProcess(  # noqa: E731
            index, KeyRange(lo=(5,), hi=None), table.schema,
            col("A") >= 5, {}, sink, RetrievalTrace(), config=table.config,
        )
        db.cold_cache()
        reference = run_steps(make(Collector()))
        db.cold_cache()
        batched = make(lambda rid, row: True)
        delivered = drain_batches(batched, batch_size)
        assert [row for _, row in delivered] == reference.sink.rows
        assert meter_totals(batched.meter) == meter_totals(reference.meter)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_fscan(self, batch_size):
        db, table = build_db()
        index = table.indexes["IX_B"]
        make = lambda sink: FscanProcess(  # noqa: E731
            index, KeyRange(lo=(60,), hi=None), table.heap, table.schema,
            col("B") >= 60, {}, sink, RetrievalTrace(), config=table.config,
        )
        db.cold_cache()
        reference = run_steps(make(Collector()))
        db.cold_cache()
        batched = make(lambda rid, row: True)
        delivered = drain_batches(batched, batch_size)
        assert [row for _, row in delivered] == reference.sink.rows
        assert [rid for rid, _ in delivered] == reference.sink.rids
        assert meter_totals(batched.meter) == meter_totals(reference.meter)

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_jscan(self, batch_size):
        db, table = build_db()
        expr = (col("A").eq(3)) & (col("B") < 40)

        def make(on_keep=None):
            trace = RetrievalTrace()
            arrangement = run_initial_stage(
                list(table.indexes.values()), expr, {},
                frozenset(table.schema.names), (), CostMeter(), trace,
                table.config,
            )
            return JscanProcess(
                arrangement.jscan_candidates, table.heap, table.buffer_pool,
                trace, table.config, on_keep=on_keep,
            )

        # the on_keep tap fires once per kept RID at every scan stage;
        # batch mode must replay the exact same (rid, position) sequence
        reference_kept = []
        db.cold_cache()
        reference = run_steps(
            make(on_keep=lambda rid, pos: reference_kept.append((rid, pos)))
        )
        db.cold_cache()
        batched = make()
        kept = drain_batches(batched, batch_size)
        assert batched.sorted_result() == reference.sorted_result()
        assert kept == reference_kept
        assert meter_totals(batched.meter) == meter_totals(reference.meter)
        assert batched.tscan_recommended == reference.tscan_recommended

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_union_scan(self, batch_size):
        db, table = build_db()
        expr = (col("A").eq(3)) | (col("B").eq(70))
        covered = cover_disjuncts(expr, list(table.indexes.values()))
        assert covered is not None

        def make():
            return UnionScanProcess(
                covered, table.heap, table.buffer_pool, RetrievalTrace(),
                table.config,
            )

        db.cold_cache()
        reference = run_steps(make())
        db.cold_cache()
        batched = make()
        unioned = drain_batches(batched, batch_size)
        assert batched.sorted_result() == reference.sorted_result()
        assert sorted(unioned) == reference.sorted_result()
        assert meter_totals(batched.meter) == meter_totals(reference.meter)

    def test_next_batch_rejects_non_positive(self):
        db, table = build_db()
        process = TscanProcess(
            table.heap, table.schema, ALWAYS_TRUE, {}, lambda r, w: True,
            RetrievalTrace(), config=table.config,
        )
        with pytest.raises(ValueError):
            process.next_batch(0)

    def test_partial_batches_do_not_lose_overshoot(self):
        # asking for fewer rows than a page holds must buffer the overshoot,
        # not drop it, and must not advance the scan further than needed
        db, table = build_db()
        process = TscanProcess(
            table.heap, table.schema, ALWAYS_TRUE, {}, lambda r, w: True,
            RetrievalTrace(), config=table.config,
        )
        first = process.next_batch(3)
        second = process.next_batch(3)
        assert len(first) == len(second) == 3
        all_rows = [row for _, row in table.heap.scan()]
        assert [row for _, row in first + second] == all_rows[:6]


# -- full-retrieval equivalence across batch sizes ---------------------------


PREDICATES = [
    ALWAYS_TRUE,
    col("A").eq(5),
    (col("A").eq(5)) & (col("B") < 40),
    (col("A") >= 25) & (col("B").between(10, 60)),
    (col("A") < 2) | (col("A") > 28),
    col("B") >= 85,
]


def run_retrieval(batch_size, expr, **select_kwargs):
    db = Database(
        buffer_capacity=48, config=DEFAULT_CONFIG.with_(batch_size=batch_size)
    )
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=6,
    )
    for i in range(400):
        table.insert((i % 30, (i * 7) % 90, i))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    table.analyze()
    db.cold_cache()
    return table.select(where=expr, **select_kwargs)


class TestRetrievalEquivalence:
    @pytest.mark.parametrize("expr", PREDICATES)
    def test_rows_costs_and_switches_match_across_batch_sizes(self, expr):
        reference = run_retrieval(1, expr)
        for batch_size in BATCH_SIZES[1:]:
            result = run_retrieval(batch_size, expr)
            assert result.rows == reference.rows, f"batch={batch_size}"
            assert result.rids == reference.rids
            assert result.execution_io == reference.execution_io
            assert result.execution_cost == pytest.approx(reference.execution_cost)
            assert result.description == reference.description
            switches = result.trace.counters.strategy_switches
            assert switches == reference.trace.counters.strategy_switches
            kinds = [event.kind for event in result.trace.events]
            assert kinds == [event.kind for event in reference.trace.events]

    @pytest.mark.parametrize("expr", PREDICATES)
    def test_fast_first_goal_matches_across_batch_sizes(self, expr):
        from repro.engine.goals import OptimizationGoal

        reference = run_retrieval(1, expr, optimize_for=OptimizationGoal.FAST_FIRST)
        for batch_size in BATCH_SIZES[1:]:
            result = run_retrieval(
                batch_size, expr, optimize_for=OptimizationGoal.FAST_FIRST
            )
            assert result.rows == reference.rows
            assert result.execution_io == reference.execution_io
            assert result.description == reference.description

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_limit_stops_mid_batch(self, batch_size):
        # a limit that lands inside a batch must deliver exactly the same
        # prefix in every batch mode
        reference = run_retrieval(1, col("A") < 20, limit=7)
        result = run_retrieval(batch_size, col("A") < 20, limit=7)
        assert result.rows == reference.rows
        assert len(result.rows) == 7
        assert result.stopped_early == reference.stopped_early


# -- mid-batch cancellation through the scheduler ----------------------------


class TestMidBatchCancellation:
    def _connect(self, batch_size):
        import repro

        conn = repro.connect(
            buffer_capacity=48,
            config=DEFAULT_CONFIG.with_(batch_size=batch_size),
        )
        conn.execute("create table T (ID int, A int)")
        table = conn.table("T")
        table.insert_many((i, i % 40) for i in range(400))
        table.analyze()
        return conn

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_cancel_mid_query_leaves_engine_consistent(self, batch_size):
        conn = self._connect(batch_size)
        handle = conn.submit("select * from T where A >= 0")
        conn.server.step()  # run one quantum (up to batch_size steps)
        handle.cancel(reason="test")
        # the connection answers fresh queries correctly afterwards
        result = conn.execute("select * from T where A = 1")
        assert len(result.rows) == 10

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_deadline_cancellation_by_quanta(self, batch_size):
        from repro.errors import QueryCancelledError

        conn = self._connect(batch_size)
        try:
            conn.execute("select * from T where A >= 0", deadline=2)
            completed = True
        except QueryCancelledError:
            completed = False
        # larger batches finish within the same quantum budget;
        # batch_size=1 cannot cover 400 rows in 2 steps
        if batch_size == 1:
            assert not completed
        # either way the connection stays usable
        assert conn.execute("select * from T where A = 2").rows


# -- Jscan: one advance routine, identical at every batch size ---------------


TINY_BUFFERS = dict(
    static_rid_buffer_size=2, allocated_rid_buffer_size=8, temp_rids_per_page=4
)


def build_jscan_db(config=DEFAULT_CONFIG, capacity=40):
    db = Database(buffer_capacity=capacity, config=config)
    table = db.create_table(
        "J", [("A", "int"), ("B", "int"), ("C", "int"), ("D", "int")],
        rows_per_page=8, index_order=6,
    )
    for i in range(1200):
        table.insert(((i * 37) % 200, (i * 91) % 300, (i * i) % 150, i))
    for column in "ABC":
        table.create_index(f"IX_{column}", [column])
    table.analyze()
    return db, table


def start_jscan(expr, config=DEFAULT_CONFIG, cls=JscanProcess, **jscan_kwargs):
    db, table = build_jscan_db(config)
    db.cold_cache()
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), expr, {}, frozenset(table.schema.names),
        (), CostMeter(), trace, config,
    )
    jscan = cls(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace,
        config, **jscan_kwargs,
    )
    return table, arrangement, jscan, trace


def observe_jscan(expr, drive, config=DEFAULT_CONFIG, **jscan_kwargs):
    """Everything a Jscan run leaves behind. ``drive`` is ``"step"`` (the
    oracle: one ``step()`` per entry), a ``run_batch`` size, or
    ``("next_batch", size)``."""
    tapped = []
    table, _, jscan, trace = start_jscan(
        expr, config, on_keep=lambda rid, pos: tapped.append((rid, pos)),
        **jscan_kwargs,
    )
    returned = None
    if drive == "step":
        run_steps(jscan)
    elif isinstance(drive, tuple):
        returned = drain_batches(jscan, drive[1])
    else:
        while jscan.active and not jscan.run_batch(drive)[1]:
            pass
    meter = jscan.meter
    return {
        "events": [(event.kind, event.detail) for event in trace.events],
        "meter": {**asdict(meter), "total": meter.total, "io_total": meter.io_total},
        "counters": asdict(trace.counters),
        "scans": (jscan.completed_scans, jscan.abandoned_scans, jscan.reorders),
        "outcome": (jscan.finished, jscan.tscan_recommended, jscan.empty),
        "steps": jscan.steps_taken,
        "rids": None if jscan.result_list is None else jscan.sorted_result(),
        "tapped": tapped,
        "pinned": dict(table.buffer_pool._pinned),
    }, returned


def abandon_positions(expr, config=DEFAULT_CONFIG, **jscan_kwargs):
    """Where in its leaf each abandoned scan's last entry sat:
    ``(position, leaf length)`` per SCAN_ABANDONED event."""
    table, arrangement, jscan, trace = start_jscan(expr, config, **jscan_kwargs)
    run_steps(jscan)
    positions = []
    for event in trace.of_kind(EventKind.SCAN_ABANDONED):
        candidate = next(
            c for c in arrangement.jscan_candidates
            if c.index.name == event.detail["index"]
        )
        tree = candidate.index.btree
        node = tree._peek_node(tree._root_id)
        while not node.is_leaf:
            node = tree._peek_node(node.children[0])
        seen = 0
        while seen < event.detail["scanned"]:
            for position, (key, _) in enumerate(node.entries):
                seen += candidate.key_range.contains_key(key)
                if seen == event.detail["scanned"]:
                    positions.append((position, len(node.entries)))
                    break
            else:
                node = tree._peek_node(node.next_leaf)
    return positions


def ranges(a, b, c=None):
    expr = col("A").between(*a) & col("B").between(*b)
    return expr if c is None else expr & col("C").between(*c)


SPILLING = DEFAULT_CONFIG.with_(**TINY_BUFFERS)

#: name -> (restriction, config, keywords of :func:`start_jscan`); the last
#: two run the comparators' per-entry Jscans (``benchmarks/paper/``)
JSCAN_SCENARIOS = {
    "abandon-mid-leaf": (ranges((0, 10), (0, 280)), DEFAULT_CONFIG, {}),
    "abandon-on-leaf-last-entry": (ranges((0, 120), (10, 15)), DEFAULT_CONFIG, {}),
    "abandon-on-leaf-first-entry": (ranges((0, 10), (4, 124)), DEFAULT_CONFIG, {}),
    "partner-wins": (ranges((0, 3), (0, 5)), DEFAULT_CONFIG, {}),
    "three-indexes": (ranges((0, 120), (40, 200), (10, 60)), DEFAULT_CONFIG, {}),
    "spill": (ranges((0, 120), (40, 200), (10, 60)), SPILLING, {}),
    "mohan-static-threshold": (ranges((0, 120), (40, 200)), DEFAULT_CONFIG,
                               dict(cls=StaticThresholdJscan, rid_threshold=12.0)),
    "probabilistic": (ranges((0, 10), (0, 280)), DEFAULT_CONFIG, dict(cls=BayesianJscan)),
}


class TestJscanAdvanceEquivalence:
    """``step()`` is a batch of one: the same rows, events, decisions and
    meter — every field ``==`` — whatever the batch size."""

    def test_scenarios_are_what_their_names_say(self):
        def scenario(name):
            expr, config, kwargs = JSCAN_SCENARIOS[name]
            observation, _ = observe_jscan(expr, "step", config, **kwargs)
            kinds = [kind for kind, _ in observation["events"]]
            return expr, observation, kinds

        expr, _, _ = scenario("abandon-mid-leaf")
        assert any(0 < pos < length - 1 for pos, length in abandon_positions(expr))
        expr, _, _ = scenario("abandon-on-leaf-last-entry")
        assert any(pos == length - 1 for pos, length in abandon_positions(expr))
        expr, _, _ = scenario("abandon-on-leaf-first-entry")
        assert any(pos == 0 for pos, length in abandon_positions(expr))
        _, observation, kinds = scenario("partner-wins")
        assert observation["scans"][2] >= 1 and EventKind.REORDERED in kinds
        _, observation, kinds = scenario("three-indexes")
        assert kinds.count(EventKind.SCAN_START) == 3
        _, observation, kinds = scenario("spill")
        assert EventKind.SPILL in kinds and observation["meter"]["io_writes"] > 0
        _, observation, _ = scenario("mohan-static-threshold")
        assert any(
            detail.get("reason") == "static-threshold"
            for _, detail in observation["events"]
        )
        _, observation, kinds = scenario("probabilistic")
        assert EventKind.SCAN_ABANDONED in kinds

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", JSCAN_SCENARIOS)
    def test_run_batch_matches_steps(self, name, batch_size):
        expr, config, kwargs = JSCAN_SCENARIOS[name]
        reference, _ = observe_jscan(expr, "step", config, **kwargs)
        batched, _ = observe_jscan(expr, batch_size, config, **kwargs)
        assert batched == reference
        assert reference["pinned"] == {}

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("name", ["partner-wins", "three-indexes", "spill"])
    def test_next_batch_keeps_tap_order(self, name, batch_size):
        # an installed on_keep tap still fires for every kept RID, and
        # next_batch hands back the same (rid, position) pairs in keep order
        expr, config, kwargs = JSCAN_SCENARIOS[name]
        reference, _ = observe_jscan(expr, "step", config, **kwargs)
        batched, returned = observe_jscan(
            expr, ("next_batch", batch_size), config, **kwargs
        )
        assert returned == reference["tapped"] and returned
        assert batched == reference

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_abandon_mid_batch_releases_everything(self, batch_size):
        expr, config, kwargs = JSCAN_SCENARIOS["spill"]
        table, _, jscan, _ = start_jscan(expr, config, **kwargs)
        for _ in range(max(1, 40 // batch_size)):
            jscan.run_batch(batch_size)
        assert jscan.active
        # stopped inside a leaf: entries of the current run are still unread
        assert any(
            len(list(scan.run)) > 0
            for scan in (jscan._active, jscan._partner) if scan is not None
        )
        lists = [s.rid_list for s in (jscan._active, jscan._partner) if s is not None]
        jscan.abandon()
        assert jscan.abandoned and not jscan.active
        assert all(len(rid_list) == 0 for rid_list in lists)
        assert table.buffer_pool._pinned == {}
        assert not list(table.buffer_pool.pager.pages_of("jscan:IX_A.spill"))

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_cancel_mid_jscan_through_the_scheduler(self, batch_size, monkeypatch):
        import repro

        released = []
        on_abandon = JscanProcess._on_abandon

        def spy(jscan):
            released.append(jscan.steps_taken)
            on_abandon(jscan)

        monkeypatch.setattr(JscanProcess, "_on_abandon", spy)
        conn = repro.connect(
            buffer_capacity=40, config=DEFAULT_CONFIG.with_(batch_size=batch_size)
        )
        conn.execute("create table T (ID int, A int, B int)")
        table = conn.table("T")
        table.insert_many((i, (i * 37) % 200, (i * 91) % 300) for i in range(6000))
        table.create_index("IX_A", ["A"])
        table.create_index("IX_B", ["B"])
        table.analyze()
        handle = conn.submit(
            "select * from T where A between 0 and 60 and B between 40 and 200"
        )
        conn.server.step()
        conn.server.step()
        assert not handle.done
        handle.cancel(reason="test")
        # the joint scan was cut off between two batches, lists and all
        assert released and 1 <= released[0] <= 2 * batch_size
        assert conn.db.buffer_pool._pinned == {}
        rows = conn.execute("select * from T where A = 37 and B between 0 and 20").rows
        assert sorted(rows) == sorted(
            (i, (i * 37) % 200, (i * 91) % 300)
            for i in range(6000)
            if (i * 37) % 200 == 37 and (i * 91) % 300 <= 20
        )


# -- Tscan, Sscan, Fscan, join steps: one advance routine each ----------------


def build_scan_db():
    """400 rows, 8 per page, with holes: every seventh record and one whole
    page deleted; C of one record (the only one with A == 41) is a string,
    so any restriction reading C raises at exactly that row."""
    db = Database(buffer_capacity=48)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=6,
    )
    rids = [
        table.insert((41 if i == 203 else i % 30, (i * 7) % 90, i))
        for i in range(400)
    ]
    table.create_index("IX_B", ["B"])
    table.create_index("IX_AC", ["A", "C"])
    for i in sorted({*range(0, 400, 7), *range(40, 48)} - {203}):
        table.delete_rid(rids[i])
    table.analyze()
    bad = rids[203]
    table.heap.update(bad, (41, 71, "x"))
    # its A is unique, so the B-tree never compares its C with another
    table.indexes["IX_AC"].btree.delete((41, 203), bad)
    table.indexes["IX_AC"].btree.insert((41, "x"), bad)
    return db, table, bad


class EveryOtherPage:
    """A stand-in for a completed Jscan filter."""

    def may_contain(self, rid):
        return rid_page(rid) % 2 == 0


def scan_range(kind, table):
    """The index and key range the Sscan and Fscan scenarios walk."""
    if kind == "sscan":
        return table.indexes["IX_AC"], KeyRange(lo=(5,), hi=None)
    return table.indexes["IX_B"], KeyRange(lo=(10,), hi=(80,))


def row_at_a_time(kind, table, expr, stop_after, skip=None, rid_filter=None):
    """The reference: what a scan that looks at one record (or one index
    entry) per step charges, counts and delivers — written against the
    storage layer only, with the interpreter as the restriction."""
    from repro.engine.metrics import RetrievalCounters
    from repro.expr.eval import evaluate

    meter, counters, sink = CostMeter(), RetrievalCounters(), Collector(stop_after)
    position = table.schema.position
    steps, error, stopped = 0, None, False

    def offer(rid, row):
        counters.records_delivered += 1
        return not sink(rid, row)

    try:
        if kind == "tscan":
            for page_no in range(table.heap.page_count):
                steps += 1
                for rid, row in table.heap.scan_page(page_no, meter):
                    meter.charge_records(1)
                    counters.records_fetched += 1
                    if skip is not None and skip(rid):
                        continue
                    if evaluate(expr, row, position) and offer(rid, row):
                        stopped = True
                        break
                if stopped:
                    break
        else:
            index, key_range = scan_range(kind, table)
            cursor = index.btree.range_cursor(key_range, meter)
            while not stopped:
                steps += 1
                entry = cursor.next_entry()  # charges the entry itself
                if entry is None:
                    break
                key, rid = entry
                counters.index_entries_scanned += 1
                if kind == "sscan":  # self-sufficient: no fetch
                    row = [None] * len(table.schema)
                    for value, at in zip(key, index.positions):
                        row[at] = value
                    row = tuple(row)
                elif rid_filter is not None and not rid_filter.may_contain(rid):
                    counters.rids_filtered_out += 1
                    continue
                else:
                    row = table.heap.fetch(rid, meter)
                    meter.charge_records(1)
                    counters.records_fetched += 1
                if evaluate(expr, row, position):
                    stopped = offer(rid, row)
                elif kind == "fscan":
                    counters.fetches_rejected += 1
    except TypeError as raised:
        error = raised
    return sink, meter, counters, steps, stopped, error


def observe_scan(kind, expr, stop_after, drive, skip=None, rid_filter=None):
    """Run one scan (``drive``: ``"reference"``, ``"step"`` or a batch size)
    on a fresh cold database; everything it leaves behind."""
    db, table, _ = build_scan_db()
    db.cold_cache()
    error = None
    if drive == "reference":
        sink, meter, counters, steps, stopped, error = row_at_a_time(
            kind, table, expr, stop_after, skip, rid_filter
        )
    else:
        trace, sink = RetrievalTrace(), Collector(stop_after)
        if kind == "tscan":
            scan = TscanProcess(
                table.heap, table.schema, expr, {}, sink, trace,
                config=table.config, skip_rids=skip,
            )
        elif kind == "sscan":
            scan = SscanProcess(
                *scan_range(kind, table), table.schema, expr, {}, sink, trace,
                config=table.config,
            )
        else:
            scan = FscanProcess(
                *scan_range(kind, table), table.heap, table.schema, expr, {},
                sink, trace, config=table.config,
            )
            scan.filter = rid_filter
        try:
            if drive == "step":
                run_steps(scan)
            else:
                while scan.active and not scan.run_batch(drive)[1]:
                    pass
        except TypeError as raised:
            error = raised
        meter, counters = scan.meter, trace.counters
        steps, stopped = scan.steps_taken, scan.stopped_by_consumer
    return {
        "rows": sink.rows,
        "rids": sink.rids,
        "meter": asdict(meter) | {"name": ""},
        "counters": asdict(counters),
        "stopped": stopped,
        "error": None if error is None else (type(error), str(error)),
        # a failed step is not counted, so a failed batch counts none of its
        "steps": steps if error is None else None,
        "pinned": dict(table.buffer_pool._pinned),
        "window": table.buffer_pool.read_ahead_window,
    }


#: name -> (scan, restriction, rows until the consumer stops, extras)
SCAN_SCENARIOS = {
    "tscan-all": ("tscan", ALWAYS_TRUE, None, {}),
    "tscan-filter": ("tscan", col("B") < 40, None, {}),
    "tscan-nothing-passes": ("tscan", col("B") > 1000, None, {}),
    "tscan-stop-mid-page": ("tscan", col("B") < 40, 5, {}),
    "tscan-stop-on-first-row": ("tscan", ALWAYS_TRUE, 1, {}),
    "tscan-stop-on-page-last-row": ("tscan", ALWAYS_TRUE, 13, {}),
    "tscan-skip-rids": ("tscan", col("B") < 60, 37,
                        {"skip": lambda rid: rid_slot(rid) % 3 == 0}),
    "tscan-raises": ("tscan", col("C") >= 0, None, {}),
    "tscan-stop-before-raise": ("tscan", col("C") >= 0, 100, {}),
    "tscan-stop-on-page-of-raise": ("tscan", col("C") >= 200, 2, {}),
    "sscan-all": ("sscan", col("A") >= 5, None, {}),
    "sscan-filter": ("sscan", col("A").between(5, 20) & (col("C") < 300), None, {}),
    "sscan-stop-mid-leaf": ("sscan", col("A") >= 5, 4, {}),
    "sscan-stop-on-first-entry": ("sscan", col("A") >= 5, 1, {}),
    "sscan-raises": ("sscan", col("C") >= 0, None, {}),
    "sscan-stop-before-raise": ("sscan", col("C") >= 0, 50, {}),
    "fscan-all": ("fscan", col("B").between(10, 80), None, {}),
    "fscan-filter": ("fscan", col("B").between(10, 80) & (col("A") < 12), None, {}),
    "fscan-stop-mid-leaf": ("fscan", col("B").between(10, 80), 4, {}),
    "fscan-rid-filter": ("fscan", col("B").between(10, 80) & (col("A") < 12), 30,
                         {"rid_filter": EveryOtherPage()}),
    "fscan-raises": ("fscan", col("C") >= 0, None, {}),
    "fscan-stop-before-raise": ("fscan", col("C") >= 0, 20, {}),
}


class TestScanAdvanceEquivalence:
    """Tscan, Sscan, Fscan and the join's page steps each have one advance
    routine: whatever the batch size, rows, RIDs, every meter field, every
    counter and the step count equal a scan written one record at a time."""

    def test_scenarios_are_what_their_names_say(self):
        def reference(name):
            scan, expr, stop_after, extras = SCAN_SCENARIOS[name]
            return observe_scan(scan, expr, stop_after, "reference", **extras)

        _, table, bad = build_scan_db()
        assert any(None in page for page in table.heap.scan_page_run(0, 50))
        assert table.heap.scan_page_run(5, 1) == [[None] * 8]
        for name in ("tscan-raises", "sscan-raises", "fscan-raises"):
            assert reference(name)["error"][0] is TypeError and reference(name)["rows"]
        for name in SCAN_SCENARIOS:
            if "stop" in name or "rid-filter" in name or "skip" in name:
                seen = reference(name)
                assert seen["stopped"] and seen["error"] is None, name
        # the stop row sits where the name says it does
        assert rid_slot(reference("tscan-stop-mid-page")["rids"][-1]) not in (0, 7)
        assert rid_slot(reference("tscan-stop-on-page-last-row")["rids"][-1]) == 7
        last = reference("tscan-stop-on-page-of-raise")["rids"][-1]
        assert rid_page(last) == rid_page(bad)
        assert rid_slot(last) < rid_slot(bad)
        assert reference("fscan-rid-filter")["counters"]["rids_filtered_out"] > 0

    @pytest.mark.parametrize("drive", ["step", *BATCH_SIZES])
    @pytest.mark.parametrize("name", SCAN_SCENARIOS)
    def test_every_drive_matches_the_reference(self, name, drive):
        scan, expr, stop_after, extras = SCAN_SCENARIOS[name]
        reference = observe_scan(scan, expr, stop_after, "reference", **extras)
        seen = observe_scan(scan, expr, stop_after, drive, **extras)
        cut_short = seen["stopped"] or seen["error"] is not None
        if scan == "tscan" and cut_short and drive not in ("step", 1):
            # the one tolerated difference: the pages of the read-ahead run
            # that ``get_many`` had fetched before the scan was cut short
            window = seen["window"]
            tail = seen["meter"]["io_reads"] - reference["meter"]["io_reads"]
            assert 0 <= tail <= min(drive, window) - 1
            for observation in (seen, reference):
                for field in ("io_reads", "reads_by_kind", "buffer_hits"):
                    del observation["meter"][field]
        assert seen == reference
        assert seen["pinned"] == {}

    def test_collecting_sink_takes_pages_as_it_takes_rows(self):
        from repro.engine.scans import CollectingSink
        from repro.storage.rid import RID, make_rid, page_rids

        rids = page_rids(3, range(6))
        assert rids == [make_rid(3, slot) for slot in range(6)]
        assert all(type(rid) is RID for rid in rids)
        rows = [(slot,) for slot in range(6)]
        for limit in (None, 0, 1, 4, 6, 7):
            for already in (0, 2):
                one_by_one = CollectingSink([(9,)] * already, [make_rid(0, 0)] * already, limit)
                stop_at = next(
                    (i for i in range(6) if not one_by_one(rids[i], rows[i])), None
                )
                at_once = CollectingSink([(9,)] * already, [make_rid(0, 0)] * already, limit)
                assert at_once.take(rids, rows) == stop_at
                assert (at_once.rows, at_once.rids) == (one_by_one.rows, one_by_one.rids)
                assert at_once.take([], []) is None

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_join_page_steps_match_steps(self, batch_size):
        from repro.engine.join import JoinTableHandle, candidate_orders, reference_nested_loop
        from repro.engine.join.process import JoinOrderProcess
        from repro.sql.binder import bind
        from repro.sql.parser import parse
        from repro.sql.plan import JoinPlan, walk

        db = Database(buffer_capacity=96)
        customers = db.create_table(
            "CUSTOMERS", [("CID", "int"), ("REGION", "int")], rows_per_page=8)
        customers.insert_many((i, i % 5) for i in range(80))
        items = db.create_table("ITEMS", [("IID", "int"), ("KIND", "int")], rows_per_page=8)
        items.insert_many((i, i % 10) for i in range(40))
        orders = db.create_table(
            "ORDERS", [("OID", "int"), ("CUST", "int"), ("ITEM", "int")], rows_per_page=8)
        orders.insert_many((i, (i * i) % 80, (i * 7) % 40) for i in range(600))
        for rid, _ in list(orders.heap.scan())[::9]:
            orders.delete_rid(rid)
        for rid, _ in list(customers.heap.scan())[8:16]:  # one whole page
            customers.delete_rid(rid)
        orders.create_index("IX_CUST", ["CUST"])
        for table in (customers, items, orders):
            table.analyze()
        parsed = parse(
            "select * from ORDERS as o join CUSTOMERS as c on o.CUST = c.CID "
            "join ITEMS as i on o.ITEM = i.IID where c.REGION = 1 and i.KIND <= 3"
        )
        bind(db, parsed.plan)
        node = next(n for n in walk(parsed.plan) if isinstance(n, JoinPlan))
        handles = {
            source.alias: JoinTableHandle(
                name=db.table(source.table).name, heap=db.table(source.table).heap,
                schema=db.table(source.table).schema,
                indexes=dict(db.table(source.table).indexes),
                buffer_pool=db.buffer_pool, stats=db.table(source.table).stats,
            )
            for source in node.sources
        }
        expected = sorted(reference_nested_loop(node, handles, {}))
        assert expected

        def observe(order, drive):
            db.cold_cache()
            process = JoinOrderProcess(order, node, handles, {}, DEFAULT_CONFIG)
            if drive == "step":
                run_steps(process)
            else:
                while process.active and not process.run_batch(drive)[1]:
                    pass
            return {
                "rows": process.rows,
                "meter": asdict(process.meter),
                "edges": [asdict(meter) for meter in process.edge_meters],
                "fanout": (process.edge_probes, process.edge_matches),
                "steps": process.steps_taken,
                "pinned": dict(db.buffer_pool._pinned),
            }

        candidates = candidate_orders(node, handles, {})
        assert any(
            all(step.tactic == "hash" for step in order.steps) for order in candidates
        )
        for order in candidates:
            reference = observe(order, "step")
            assert sorted(reference["rows"]) == expected
            assert reference["pinned"] == {}
            assert observe(order, batch_size) == reference
            if not all(step.tactic == "hash" for step in order.steps):
                continue
            # an all-hash order charges one record per live record of every
            # table it reads and per bucket row a probe yields, and no entry
            live = sum(handle.heap.row_count for handle in handles.values())
            assert reference["meter"]["records"] == live + sum(reference["fanout"][1])
            assert reference["meter"]["entries"] == 0
            assert reference["meter"]["io_reads"] == sum(
                handle.heap.page_count for handle in handles.values())

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_filter_installed_mid_flight_by_the_sorted_tactic(self, batch_size):
        # the order index's Fscan runs one step at a time while its Jscan
        # partner lives, takes the partner's filter between two steps and
        # finishes in whole batches — with the accounting of batch size 1
        def run(size):
            config = DEFAULT_CONFIG.with_(batch_size=size)
            db, table = build_jscan_db(config)
            db.cold_cache()
            quanta = 0
            steps = table.select_steps(
                where=ranges((0, 10), (0, 280)), order_by=("B",), limit=40)
            try:
                while True:
                    next(steps)
                    quanta += 1
            except StopIteration as stop:
                result = stop.value
            assert db.buffer_pool._pinned == {}
            return result, quanta

        reference, reference_quanta = run(1)
        switches = reference.trace.of_kind(EventKind.STRATEGY_SWITCH)
        assert [event.detail["to"] for event in switches] == ["filtered-fscan"]
        assert reference.trace.counters.rids_filtered_out > 0
        assert reference.stopped_early and len(reference.rows) == 40
        result, quanta = run(batch_size)
        assert (result.rows, result.rids) == (reference.rows, reference.rids)
        assert result.execution_cost == reference.execution_cost
        assert result.execution_io == reference.execution_io
        assert asdict(result.trace.counters) == asdict(reference.trace.counters)
        assert [(e.kind, e.detail) for e in result.trace.events] == [
            (e.kind, e.detail) for e in reference.trace.events
        ]
        # every step is taken inside the tactic's loop, which yields once
        # per ``batch_size`` steps whether it runs them one by one or not
        assert quanta == reference_quanta // batch_size

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("sql", [
        "select * from T where A >= 0",
        "select * from T where B between 10 and 80 order by B",
        "select A, C from T where A >= 5",
    ])
    def test_cancel_mid_batch_leaves_no_pins(self, sql, batch_size):
        import repro

        conn = repro.connect(
            buffer_capacity=48, config=DEFAULT_CONFIG.with_(batch_size=batch_size))
        conn.execute("create table T (A int, B int, C int)")
        table = conn.table("T")
        table.insert_many((i % 30, (i * 7) % 90, i) for i in range(4000))
        table.create_index("IX_B", ["B"])
        table.create_index("IX_AC", ["A", "C"])
        table.analyze()
        expected = conn.execute(sql).rows
        handle = conn.submit(sql)
        conn.server.step()
        conn.server.step()
        assert not handle.done
        handle.cancel(reason="test")
        assert conn.db.buffer_pool._pinned == {}
        assert conn.execute(sql).rows == expected
