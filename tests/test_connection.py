"""The repro.connect() facade and drop cleanup."""

import io

import pytest

import repro
from repro.engine.goals import OptimizationGoal
from repro.errors import QueryCancelledError, ServerError
from repro.shell import Shell


def populated(conn: repro.Connection) -> repro.Connection:
    conn.execute("create table T (ID int, A int)")
    conn.execute("create index IX_A on T (A)")
    table = conn.table("T")
    table.insert_many((i, i % 40) for i in range(400))
    table.analyze()
    return conn


class TestConnect:
    def test_connect_executes_ddl_and_queries(self):
        conn = populated(repro.connect(buffer_capacity=64))
        ddl = conn.execute("create table U (X int)")
        assert isinstance(ddl, repro.Result) and ddl.kind == "ddl"
        assert "created" in ddl.text
        result = conn.execute("select * from T where A >= :LO", {"LO": 38})
        assert isinstance(result, repro.Result) and result.kind == "rows"
        assert len(result.rows) == 20 == result.rowcount
        assert result.columns == ("ID", "A")
        assert result.plan is not None
        assert result.metrics.retrieval_count == 1
        assert result.metrics.total_cost == result.total_cost > 0
        assert result.retrievals

    def test_result_is_iterable_and_renderable(self):
        conn = populated(repro.connect(buffer_capacity=64))
        result = conn.execute("select * from T where A = 7")
        assert sorted(result) == sorted(result.rows)
        assert len(result) == result.rowcount
        assert result  # empty results are still truthy
        text = result.to_text()
        assert "ID" in text and f"({result.rowcount} rows)" in text
        data = result.to_dict()
        assert data["kind"] == "rows" and data["rowcount"] == result.rowcount
        assert data["plan"]["node"] in ("retrieve", "project")

    def test_execute_accepts_goal_and_routes_it(self):
        conn = populated(repro.connect())
        result = conn.execute(
            "select * from T where A >= 38", goal=OptimizationGoal.FAST_FIRST
        )
        assert result.retrievals[0].goal is OptimizationGoal.FAST_FIRST

    def test_execute_deadline_cancels(self):
        # deadlines are budgets of scheduling quanta; batch_size=1 makes one
        # quantum equal one engine step, so a 3-step budget must cancel
        conn = populated(
            repro.connect(config=repro.DEFAULT_CONFIG.with_(batch_size=1))
        )
        with pytest.raises(QueryCancelledError):
            conn.execute("select * from T where A >= 0", deadline=3)
        # the connection stays usable afterwards
        assert conn.execute("select * from T where A = 1").rows

    def test_execute_deadline_counts_quanta(self):
        # at the default batch size a 3-quantum budget covers ~192 engine
        # steps — enough to finish this scan, so no cancellation occurs
        conn = populated(repro.connect())
        assert conn.execute("select * from T where A >= 0", deadline=3).rows

    def test_explain_returns_result(self):
        conn = populated(repro.connect())
        sql = "select * from T where A >= 10 optimize for total time"
        result = conn.explain(sql)
        assert isinstance(result, repro.Result) and result.kind == "explain"
        assert "retrieve T" in result.text and "total-time" in result.text
        assert str(result) == result.text  # printable as before
        assert result.rows == [] and result.metrics.retrieval_count == 0

    def test_execute_propagates_errors(self):
        conn = repro.connect()
        with pytest.raises(repro.ReproError):
            conn.execute("select * from NOPE")
        with pytest.raises(repro.ReproError):
            conn.execute("selec broken syntax")

    def test_statements_route_through_scheduler(self):
        conn = populated(repro.connect())
        before = conn.metrics.totals().queries
        conn.execute("select * from T where A = 5")
        totals = conn.metrics.totals()
        assert totals.queries == before + 1
        assert conn.metrics.session("main").queries_completed >= 1

    def test_connect_wraps_existing_database(self):
        db = repro.Database(buffer_capacity=32)
        conn = repro.connect(db=db)
        assert conn.db is db
        conn.execute("create table V (X int)")
        assert "V" in db.tables

    def test_concurrent_sessions_share_the_pool(self):
        conn = populated(repro.connect(max_concurrency=4))
        s1, s2 = conn.session("alpha"), conn.session("beta")
        h1 = s1.submit("select * from T where A >= 20")
        h2 = s2.submit("select * from T where A < 20")
        conn.server.run_until_idle()
        assert len(h1.result.rows) + len(h2.result.rows) == 400
        per_session = conn.metrics.per_session()
        assert per_session["alpha"].queries_completed == 1
        assert per_session["beta"].queries_completed == 1

    def test_close_cancels_and_rejects(self):
        conn = populated(repro.connect(max_concurrency=1))
        running = conn.submit("select * from T where A >= 0")
        queued = conn.submit("select * from T where A >= 1")
        conn.close()
        assert running.state is repro.QueryState.CANCELLED
        assert queued.state is repro.QueryState.CANCELLED
        with pytest.raises(ServerError):
            conn.execute("select * from T")
        conn.close()  # idempotent

    def test_context_manager_closes(self):
        with repro.connect() as conn:
            conn.execute("create table W (X int)")
        with pytest.raises(ServerError):
            conn.execute("select * from W")


SELECT = "select * from T where A >= 38"

#: every way a statement can be run, each returning its result
ROW_PATHS = {
    "execute": lambda conn: conn.execute(SELECT),
    "submit-wait": lambda conn: conn.submit(SELECT).wait(),
    "session-execute": lambda conn: conn.session().execute(SELECT),
    "session-submit-result": lambda conn: _idle(conn, conn.session().submit(SELECT)),
    "prepare-execute": lambda conn: conn.prepare(SELECT).execute(),
    "prepare-submit-wait": lambda conn: conn.prepare(SELECT).submit().wait(),
    "explain-analyze": lambda conn: conn.explain(SELECT, analyze=True),
    "sql-execute": lambda conn: _prepared(conn, "execute Q"),
}

OTHER_PATHS = {
    "explain": (lambda conn: conn.explain(SELECT), "explain"),
    "sql-explain": (lambda conn: conn.submit(f"explain {SELECT}").wait(), "explain"),
    "sql-prepare": (lambda conn: conn.execute(f"prepare Q as {SELECT}"), "ddl"),
    "sql-deallocate": (lambda conn: _prepared(conn, "deallocate Q"), "ddl"),
    "ddl": (lambda conn: conn.session().execute("create table U (X int)"), "ddl"),
    "dml": (lambda conn: conn.submit("insert into T values (1, 2), (3, 4)").wait(), "ddl"),
}


def _prepared(conn, statement):
    conn.execute(f"prepare Q as {SELECT}")
    return conn.execute(statement)


def _idle(conn, handle):
    conn.server.run_until_idle()
    return handle.result


class TestOneResultType:
    """Every call path hands back the one ``repro.Result``."""

    @pytest.mark.parametrize("path", ROW_PATHS)
    def test_row_paths_return_the_same_result(self, path):
        reference = populated(repro.connect()).execute(SELECT)
        result = ROW_PATHS[path](populated(repro.connect()))
        assert type(result) is repro.Result
        assert result.rows == reference.rows and len(result.rows) == 20
        assert result.columns == reference.columns == ("ID", "A")
        assert result.rowcount == reference.rowcount == 20
        assert result.metrics == reference.metrics
        assert result.metrics.retrieval_count == len(result.retrievals) == 1
        assert result.total_io == result.metrics.total_io
        assert result.total_cost == result.retrievals[0].result.total_cost > 0
        assert result.retrievals[0].table == "T"
        assert result.goals and result.plan is not None

    @pytest.mark.parametrize("path", OTHER_PATHS)
    def test_non_row_paths_return_result_too(self, path):
        run, kind = OTHER_PATHS[path]
        result = run(populated(repro.connect()))
        assert type(result) is repro.Result and result.kind == kind
        assert result.rows == [] and result.retrievals == []
        assert result.metrics.retrieval_count == 0 == result.total_io
        assert result.rowcount == (2 if path == "dml" else 0)
        assert result.text and str(result) == result.text

    def test_handle_result_is_the_result_and_shares_its_retrievals(self):
        conn = populated(repro.connect())
        handle = conn.submit(SELECT)
        result = handle.wait()
        assert handle.result is result
        assert result.retrievals is handle.retrievals

    def test_cancelled_statement_exposes_partial_retrievals(self):
        conn = populated(
            repro.connect(config=repro.DEFAULT_CONFIG.with_(batch_size=1))
        )
        handle = conn.submit("select * from T where A >= 0")
        for _ in range(3):
            conn.server.step()
        handle.cancel()
        assert handle.state is repro.QueryState.CANCELLED
        with pytest.raises(QueryCancelledError):
            handle.result
        (info,) = handle.retrievals
        assert info.table == "T" and info.result.trace.events


class TestDropCleanup:
    def build(self):
        db = repro.Database(buffer_capacity=32)
        table = db.create_table("D", [("ID", "int"), ("A", "int")])
        table.insert_many((i, i % 10) for i in range(300))
        table.create_index("IX_A", ["A"])
        return repro.connect(db=db), table

    @staticmethod
    def owners(db):
        return {page.owner for page in db.pager._pages.values()}

    def test_drop_table_releases_heap_and_index_pages(self):
        conn, table = self.build()
        db = conn.db
        # touch pages so some sit in the buffer pool
        conn.execute("select * from D where A = 3")
        assert {"D", "D.IX_A"} <= self.owners(db)
        pages_before = len(db.pager._pages)
        assert pages_before > 0
        db.drop_table("D")
        assert "D" not in db.tables
        assert not {"D", "D.IX_A"} & self.owners(db)
        # nothing of the dropped table lingers on disk
        assert all(
            db.pager._pages[pid].owner not in ("D", "D.IX_A")
            for pid in db.pager._pages
        )
        assert len(db.buffer_pool) <= len(db.pager._pages)

    def test_drop_table_via_sql_releases_pages(self):
        conn, table = self.build()
        db = conn.db
        conn.execute("select * from D where A = 3")
        conn.execute("drop table D")
        assert not {"D", "D.IX_A"} & self.owners(db)

    def test_drop_index_releases_its_pages_only(self):
        conn, table = self.build()
        db = conn.db
        conn.execute("select * from D where A = 3")
        table.drop_index("IX_A")
        owners = self.owners(db)
        assert "D.IX_A" not in owners
        assert "D" in owners  # the heap survives

    def test_dropped_pages_leave_the_buffer_pool(self):
        conn, table = self.build()
        db = conn.db
        conn.execute("select * from D where A = 3")
        cached_before = {
            pid for pid in db.pager._pages
            if pid in db.buffer_pool
            and db.pager._pages[pid].owner in ("D", "D.IX_A")
        }
        assert cached_before, "expected dropped table pages in cache"
        db.drop_table("D")
        assert all(pid not in db.buffer_pool for pid in cached_before)


class TestShellUsesConnection:
    def run_shell(self, lines, conn=None):
        out = io.StringIO()
        shell = Shell(conn if conn is not None else repro.connect(), out=out)
        shell.run(lines)
        return out.getvalue()

    def test_shell_metrics_command(self):
        output = self.run_shell(
            [
                "create table S (X int);",
                "insert into S values (1);",
                "select * from S;",
                "\\metrics",
            ]
        )
        assert "<all>" in output
        assert "cache hit rate" in output

    def test_shell_accepts_database_for_back_compat(self):
        db = repro.Database(buffer_capacity=64)
        out = io.StringIO()
        shell = Shell(db, out=out)
        shell.feed("create table S (X int);")
        assert "S" in db.tables
        assert shell.conn.db is db
