"""Multi-query scheduler: interleaving, admission, cancellation, metrics."""

import pytest

from repro.api import connect
from repro.competition.process import drain
from repro.config import DEFAULT_CONFIG
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.engine.metrics import EventKind
from repro.errors import QueryCancelledError, ServerError
from repro.server import QueryServer, QueryState
from repro.sql.executor import execute_sql_steps
from repro.storage.pager import PageKind


# These tests pin batch_size=1 so one scheduling quantum == one engine step,
# preserving the fine-grained interleaving/deadline semantics they assert
# (batch_size=1 is byte-identical to the original one-yield-per-step
# behaviour). Batched-quanta behaviour is covered by TestBatchedQuanta.
STEP_CONFIG = DEFAULT_CONFIG.with_(batch_size=1)


def build_db(buffer_capacity: int = 64, config=STEP_CONFIG) -> Database:
    db = Database(buffer_capacity=buffer_capacity, config=config)
    table = db.create_table("T", [("ID", "int"), ("A", "int"), ("B", "int")])
    for i in range(600):
        table.insert((i, i % 50, (i * 7) % 90))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    table.analyze()
    return db


QUERIES = [
    "select * from T where A >= 45",
    "select ID from T where B < 8 optimize for fast first",
    "select * from T where A = 3 and B >= 50",
]


def run_workload(scheduling: str):
    db = build_db()
    server = QueryServer(db, max_concurrency=4, scheduling=scheduling)
    handles = [
        server.session(f"s{k}").submit(sql) for k, sql in enumerate(QUERIES)
    ]
    server.run_until_idle()
    return server, handles


class TestInterleaving:
    def test_concurrent_queries_all_complete_with_correct_rows(self):
        db = build_db()
        conn = connect(db=db)
        expected = [conn.execute(sql).rows for sql in QUERIES]
        _, handles = run_workload("round-robin")
        for handle, rows in zip(handles, expected):
            assert handle.state is QueryState.DONE
            assert sorted(handle.result.rows) == sorted(rows)

    @pytest.mark.parametrize("scheduling", ["round-robin", "weighted"])
    def test_interleaving_is_deterministic(self, scheduling):
        server_a, handles_a = run_workload(scheduling)
        server_b, handles_b = run_workload(scheduling)
        assert [h.steps for h in handles_a] == [h.steps for h in handles_b]
        assert [h.cache_hits for h in handles_a] == [h.cache_hits for h in handles_b]
        assert server_a.total_steps == server_b.total_steps
        totals_a, totals_b = server_a.metrics.totals(), server_b.metrics.totals()
        assert totals_a.counters == totals_b.counters
        assert totals_a.cache_hits == totals_b.cache_hits

    def test_queries_genuinely_interleave(self):
        """Both queries must still be running after each has stepped."""
        db = build_db()
        server = QueryServer(db, max_concurrency=2)
        h1 = server.submit(QUERIES[0], session="s1")
        h2 = server.submit(QUERIES[1], session="s2")
        for _ in range(8):
            server.step()
        assert h1.steps > 0 and h2.steps > 0
        assert h1.state is QueryState.RUNNING
        assert h2.state is QueryState.RUNNING

    def test_weighted_favours_fast_first(self):
        db = build_db()
        server = QueryServer(db, scheduling="weighted")
        slow = server.submit("select * from T where A >= 0", session="batch")
        fast = server.submit(
            "select * from T where A >= 0", session="browse",
            goal=OptimizationGoal.FAST_FIRST,
        )
        for _ in range(90):
            server.step()
            if slow.done or fast.done:
                break
        # fast-first weight 2.0 => ~2x the steps of the total-time query
        assert fast.steps >= 2 * slow.steps - 2

    def test_single_job_server_matches_direct_execution(self):
        direct_db = build_db()
        direct = drain(execute_sql_steps(direct_db, QUERIES[0]))
        server_db = build_db()
        server = QueryServer(server_db)
        result = server.session().execute(QUERIES[0])
        assert result.rows == direct.rows
        assert [info.result.description for info in result.retrievals] == [
            info.result.description for info in direct.retrievals
        ]


class TestAdmission:
    def test_queue_respects_concurrency_limit(self):
        db = build_db()
        server = QueryServer(db, max_concurrency=2)
        handles = [server.submit(QUERIES[k % 3], session=f"s{k}") for k in range(5)]
        assert [h.state for h in handles[:2]] == [QueryState.RUNNING] * 2
        assert [h.state for h in handles[2:]] == [QueryState.QUEUED] * 3
        assert len(server.running) == 2
        assert len(server.queued) == 3
        server.run_until_idle()
        assert all(h.state is QueryState.DONE for h in handles)

    def test_admission_is_fifo(self):
        db = build_db()
        server = QueryServer(db, max_concurrency=1)
        handles = [server.submit(QUERIES[k % 3], session=f"s{k}") for k in range(4)]
        server.run_until_idle()
        admitted = [h.admitted_at for h in handles]
        assert admitted == sorted(admitted)
        # with one slot, each query is admitted only after its predecessor ends
        assert all(a < b for a, b in zip(admitted, admitted[1:]))

    def test_cancelling_queued_query_never_runs_it(self):
        db = build_db()
        server = QueryServer(db, max_concurrency=1)
        server.submit(QUERIES[0], session="s0")
        queued = server.submit(QUERIES[1], session="s1")
        queued.cancel()
        assert queued.state is QueryState.CANCELLED
        assert queued.steps == 0
        server.run_until_idle()
        assert queued.state is QueryState.CANCELLED
        with pytest.raises(QueryCancelledError):
            queued.result

    def test_invalid_configuration_rejected(self):
        db = build_db()
        with pytest.raises(ServerError):
            QueryServer(db, max_concurrency=0)
        with pytest.raises(ServerError):
            QueryServer(db, scheduling="lottery")
        with pytest.raises(ServerError):
            QueryServer(db).submit(QUERIES[0], deadline=0)


class TestCancellation:
    def spilling_db(self) -> Database:
        # tiny RID buffers force every Jscan list through a TEMP spill, and
        # tiny TEMP pages make the spill hit the pager immediately
        config = STEP_CONFIG.with_(
            static_rid_buffer_size=2,
            allocated_rid_buffer_size=8,
            temp_rids_per_page=4,
        )
        return build_db(config=config)

    @staticmethod
    def temp_pages(db: Database) -> list:
        return [
            page for page in db.pager._pages.values() if page.kind is PageKind.TEMP
        ]

    def test_cancel_mid_jscan_releases_temp_tables(self):
        db = self.spilling_db()
        server = QueryServer(db)
        handle = server.submit("select * from T where A >= 5 and B >= 4")
        saw_spill = False
        for _ in range(20_000):
            if not server.step():
                break
            if self.temp_pages(db):
                saw_spill = True
                break
        assert saw_spill, "workload never spilled; cancellation test is vacuous"
        assert handle.state is QueryState.RUNNING
        handle.cancel()
        assert handle.state is QueryState.CANCELLED
        assert self.temp_pages(db) == [], "cancelled query leaked TEMP pages"
        with pytest.raises(QueryCancelledError):
            handle.result

    def test_cancellation_emits_abandon_and_stop_events(self):
        db = self.spilling_db()
        server = QueryServer(db)
        handle = server.submit("select * from T where A >= 5 and B >= 4")
        for _ in range(30):
            server.step()
        handle.cancel()
        assert handle.retrievals, "partial retrieval trace not registered"
        trace = handle.retrievals[0].result.trace
        kinds = [event.kind for event in trace.events]
        assert EventKind.SCAN_ABANDONED in kinds
        assert EventKind.CONSUMER_STOPPED in kinds
        stop = [e for e in trace.events if e.kind is EventKind.CONSUMER_STOPPED][-1]
        assert stop.detail.get("by") == "cancellation"
        assert trace.counters.scans_abandoned > 0

    def test_deadline_cancels_long_query_but_not_short_one(self):
        db = build_db()
        server = QueryServer(db)
        short = server.submit("select * from T where A = 1 and B = 7", deadline=100_000)
        long = server.submit("select * from T where A >= 0", deadline=10)
        server.run_until_idle()
        assert short.state is QueryState.DONE
        assert long.state is QueryState.CANCELLED
        assert long.cancel_reason == "deadline"
        assert long.steps <= 10

    def test_cancel_session_sweeps_its_queries_only(self):
        db = build_db()
        server = QueryServer(db, max_concurrency=2)
        mine = [server.submit(QUERIES[k % 3], session="mine") for k in range(2)]
        other = server.submit(QUERIES[0], session="other")
        cancelled = server.cancel_session("mine")
        assert cancelled == 2
        assert all(h.state is QueryState.CANCELLED for h in mine)
        server.run_until_idle()
        assert other.state is QueryState.DONE

    def test_failed_query_reports_error_and_frees_slot(self):
        db = build_db()
        server = QueryServer(db, max_concurrency=1)
        bad = server.submit("select * from NO_SUCH_TABLE")
        good = server.submit(QUERIES[0])
        server.run_until_idle()
        assert bad.state is QueryState.FAILED
        with pytest.raises(Exception) as excinfo:
            bad.result
        assert "NO_SUCH_TABLE" in str(excinfo.value)
        assert good.state is QueryState.DONE


class TestMetricsRegistry:
    def test_totals_reconcile_with_per_trace_counters(self):
        server, handles = run_workload("round-robin")
        totals = server.metrics.totals()
        # independent ground truth: fold every handle's traces by hand
        fetched = switches = abandons = retrievals = 0
        for handle in handles:
            for info in handle.retrievals:
                retrievals += 1
                fetched += info.result.trace.counters.records_fetched
                switches += info.result.trace.counters.strategy_switches
                abandons += info.result.trace.counters.scans_abandoned
        assert totals.retrievals == retrievals
        assert totals.counters.records_fetched == fetched
        assert totals.counters.strategy_switches == switches
        assert totals.counters.scans_abandoned == abandons
        assert totals.cache_hits == sum(h.cache_hits for h in handles)
        assert totals.cache_misses == sum(h.cache_misses for h in handles)
        assert totals.queries_completed == len(handles)

    def test_per_session_breakdown(self):
        server, handles = run_workload("round-robin")
        per_session = server.metrics.per_session()
        assert set(per_session) == {"s0", "s1", "s2"}
        for k, handle in enumerate(handles):
            metrics = per_session[f"s{k}"]
            assert metrics.queries_completed == 1
            assert metrics.retrievals == len(handle.retrievals)
            assert metrics.cache_hits == handle.cache_hits
            assert metrics.cache_misses == handle.cache_misses

    def test_outcome_counts(self):
        db = build_db()
        server = QueryServer(db)
        server.submit(QUERIES[0], session="s").wait()
        server.submit("select * from MISSING", session="s")
        doomed = server.submit("select * from T where A >= 0", session="s", deadline=3)
        server.run_until_idle()
        metrics = server.metrics.session("s")
        assert metrics.queries_completed == 1
        assert metrics.queries_failed == 1
        assert metrics.queries_cancelled == 1
        assert metrics.queries == 3
        assert doomed.state is QueryState.CANCELLED

    def test_format_is_printable(self):
        server, _ = run_workload("round-robin")
        text = server.metrics.format()
        assert "<all>" in text and "s0" in text and "cache hit rate" in text


class TestBatchedQuanta:
    """Scheduler behaviour at the default (batched) quantum size."""

    def test_batched_results_match_per_step_results(self):
        expected = [connect(db=build_db()).execute(sql).rows for sql in QUERIES]
        db = build_db(config=DEFAULT_CONFIG)
        server = QueryServer(db, max_concurrency=4)
        handles = [
            server.session(f"s{k}").submit(sql) for k, sql in enumerate(QUERIES)
        ]
        server.run_until_idle()
        for handle, rows in zip(handles, expected):
            assert handle.state is QueryState.DONE
            assert sorted(handle.result.rows) == sorted(rows)

    def test_batching_cuts_scheduler_quanta(self):
        batch = DEFAULT_CONFIG.batch_size
        assert batch >= 8

        def total_quanta(config):
            db = build_db(config=config)
            server = QueryServer(db, max_concurrency=4)
            for k, sql in enumerate(QUERIES):
                server.session(f"s{k}").submit(sql)
            server.run_until_idle()
            return server.total_steps

        stepwise = total_quanta(STEP_CONFIG)
        batched = total_quanta(DEFAULT_CONFIG)
        # ~batch_size x fewer generator resumptions (ceil effects per phase)
        assert batched <= stepwise // (batch // 2)

    def test_batched_interleaving_is_deterministic(self):
        def run():
            db = build_db(config=DEFAULT_CONFIG)
            server = QueryServer(db, max_concurrency=4, scheduling="weighted")
            handles = [
                server.session(f"s{k}").submit(sql)
                for k, sql in enumerate(QUERIES)
            ]
            server.run_until_idle()
            return server, handles

        server_a, handles_a = run()
        server_b, handles_b = run()
        assert [h.steps for h in handles_a] == [h.steps for h in handles_b]
        assert server_a.total_steps == server_b.total_steps
        totals_a, totals_b = server_a.metrics.totals(), server_b.metrics.totals()
        assert totals_a.counters == totals_b.counters
        assert totals_a.cache_hits == totals_b.cache_hits

    def test_cancellation_lands_between_batched_quanta(self):
        config = DEFAULT_CONFIG.with_(
            static_rid_buffer_size=2,
            allocated_rid_buffer_size=8,
            temp_rids_per_page=4,
        )
        db = build_db(config=config)
        server = QueryServer(db)
        handle = server.submit("select * from T where A >= 5 and B >= 4")
        server.step()
        assert handle.state is QueryState.RUNNING
        handle.cancel()
        assert handle.state is QueryState.CANCELLED
        temp = [
            page for page in db.pager._pages.values() if page.kind is PageKind.TEMP
        ]
        assert temp == [], "cancelled query leaked TEMP pages"


class TestOwnerAttribution:
    def test_pool_owner_stats_cover_all_scheduled_accesses(self):
        server, handles = run_workload("round-robin")
        pool = server.db.buffer_pool
        assert pool.current_owner is None
        for k, handle in enumerate(handles):
            stats = pool.stats_for(f"s{k}")
            assert stats.hits == handle.cache_hits
            assert stats.misses == handle.cache_misses
            assert 0.0 <= stats.hit_ratio <= 1.0


class _CountingSink:
    def __init__(self):
        self.writes = 0
        self.closes = 0

    def write(self, record):
        self.writes += 1

    def close(self):
        self.closes += 1


class TestShutdown:
    def test_shutdown_cancels_and_closes_sinks_once(self):
        db = build_db()
        trace_sink, flight_sink = _CountingSink(), _CountingSink()
        server = QueryServer(db, trace_sink=trace_sink, flight_sink=flight_sink)
        handle = server.session("s0").submit(QUERIES[0])
        server.step()
        assert handle.state is QueryState.RUNNING
        server.shutdown()
        assert handle.state is QueryState.CANCELLED
        assert (trace_sink.closes, flight_sink.closes) == (1, 1)
        # later calls (Connection.close after an explicit shutdown, an
        # atexit hook) are no-ops: the sinks never re-close
        server.shutdown()
        server.shutdown()
        assert (trace_sink.closes, flight_sink.closes) == (1, 1)

    def test_partitioned_statement_starts_no_threads(self):
        """A scatter runs on the scheduler thread: the product never
        starts a thread, before or after shutdown."""
        import threading

        before = threading.active_count()
        conn = connect()
        conn.execute(
            "create table P (ID int, V int) partition by hash(ID) partitions 4"
        )
        for i in range(64):
            conn.execute(f"insert into P values ({i}, {i % 5})")
        result = conn.execute("select * from P where ID between 3 and 50")
        assert len(result.rows) == 48
        assert threading.active_count() == before
        conn.server.shutdown()
        assert threading.active_count() == before

    def test_connection_close_is_idempotent(self):
        import repro

        conn = repro.connect()
        conn.execute("create table C (ID int)")
        conn.close()
        conn.close()
        with pytest.raises(ServerError):
            conn.execute("select * from C")
