"""EXPLAIN / EXPLAIN ANALYZE: parsing, execution, rendering, shell view.

EXPLAIN ANALYZE is the user-facing join of the two observability halves:
it *executes* the statement under a forced tracer and renders the static
plan next to the recorded timeline. The tests pin that the analyze form
really executes (actual rows appear), that the plain form really doesn't,
and that both surface identically through SQL, ``Connection.explain``,
and the shell.
"""

import io

import pytest

import repro
from repro.config import EngineConfig
from repro.expr.ast import col
from repro.shell import Shell
from repro.sql.executor import explain_kind
from repro.sql.parser import ExplainQuery, parse_any


def build_parts(db, rows=600):
    table = db.create_table(
        "P", [("PNO", "int"), ("COLOR", "int"), ("WEIGHT", "int"), ("SIZE", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(rows):
        table.insert((i, i % 10, (i * 7) % 100, (i * 13) % 50))
    table.create_index("IX_COLOR", ["COLOR"])
    table.create_index("IX_WEIGHT", ["WEIGHT"])
    return table


SQL = "select * from P where COLOR = 3 or WEIGHT < 10"


# -- parsing -----------------------------------------------------------------


class TestParsing:
    def test_explain_parses_to_wrapper(self):
        parsed = parse_any("explain select * from P where COLOR = 3")
        assert isinstance(parsed, ExplainQuery)
        assert parsed.analyze is False

    def test_explain_analyze_sets_flag(self):
        parsed = parse_any("EXPLAIN ANALYZE select * from P")
        assert isinstance(parsed, ExplainQuery)
        assert parsed.analyze is True

    def test_is_explain_analyze_sniff(self):
        assert explain_kind("explain analyze select * from P") == "analyze"
        assert explain_kind("  EXPLAIN   ANALYZE select 1") == "analyze"
        assert explain_kind("explain select * from P") is None
        assert explain_kind("select * from P") is None
        assert explain_kind("not even ( sql") is None


# -- execution ---------------------------------------------------------------


class TestExplainExecution:
    def test_plain_explain_does_not_execute(self, conn):
        build_parts(conn.db)
        result = conn.execute("explain " + SQL)
        assert isinstance(result, repro.Result) and result.kind == "explain"
        assert result.rows == [] and result.retrievals == []  # nothing ran
        assert "retrieve P" in result.text
        assert "-- execution" not in result.text
        # the statement and the API form are one route
        assert result.text == conn.explain(SQL).text
        assert str(result) == result.text

    def test_explain_analyze_executes_and_annotates(self, conn):
        table = build_parts(conn.db)
        result = conn.execute("explain analyze " + SQL)
        assert isinstance(result, repro.Result) and result.kind == "explain"
        plain = table.select(where=(col("COLOR").eq(3)) | (col("WEIGHT") < 10))
        assert result.retrievals
        assert len(result.rows) == len(plain.rows)
        text = result.text
        for section in ("-- plan", "-- execution", "-- timeline"):
            assert section in text
        assert f"rows returned: {len(plain.rows)}" in text
        assert "retrieval #1 on P" in text
        assert "actual   :" in text and "estimated:" in text
        assert "retrieval [" in text

    def test_explain_analyze_timeline_has_strategy_spans(self, conn):
        build_parts(conn.db)
        result = conn.execute("explain analyze select * from P where WEIGHT >= 0")
        # the unselective query switches: both the mark and the scans show
        assert "strategy-switch" in result.text
        assert "scan [strategy=" in result.text


class TestDecisionLine:
    """Each retrieval's block names its decision — the strategy, its basis
    and the rejected alternatives — read from the decision log every
    retrieval keeps."""

    def test_raced(self, conn):
        build_parts(conn.db)
        result = conn.execute("explain analyze select * from P where COLOR = 3")
        assert "  decision : background-only (raced) over tscan\n" in result.text

    def test_proven(self, conn):
        build_parts(conn.db)
        result = conn.execute("explain analyze select COLOR from P where COLOR = 3")
        assert "  decision : sscan (proven) over tscan\n" in result.text

    def test_trusted(self):
        conn = repro.connect(
            buffer_capacity=128, config=EngineConfig(shortcut_rid_count=0)
        )
        table = conn.db.create_table(
            "G", [("A", "int"), ("B", "int"), ("C", "int")], rows_per_page=8
        )
        for i in range(400):
            table.insert((i, i % 10, (i * 3) % 50))
        table.create_index("IX_AB", ["A", "B"])  # covering: the Sscan arm
        table.create_index("IX_A", ["A"])
        table.create_index("IX_B", ["B"])
        sql = "select A, B from G where A < 100 and B = 3"
        for _ in range(8):  # warm the estimator until the gate trusts
            (info,) = conn.execute(sql).retrievals
            if info.result.trace.decision.basis == "trusted":
                break
        result = conn.execute("explain analyze " + sql)
        (info,) = result.retrievals
        decision = info.result.trace.decision
        assert decision.basis == "trusted"
        others = ", ".join(decision.alternatives)
        assert (
            f"  decision : {decision.strategy} (trusted) over {others}\n"
            in result.text
        )


# -- through the connection / server -----------------------------------------


class TestConnectionExplain:
    @pytest.fixture
    def conn(self):
        conn = repro.connect(buffer_capacity=64)
        build_parts(conn.db)
        return conn

    def test_explain_static(self, conn):
        result = conn.explain(SQL)
        assert isinstance(result, repro.Result) and result.kind == "explain"
        text = result.text
        assert "retrieve P" in text and "-- timeline" not in text

    def test_explain_analyze_via_api(self, conn):
        text = conn.explain(SQL, analyze=True).text
        assert isinstance(text, str)
        for section in ("-- plan", "-- execution", "-- timeline"):
            assert section in text
        # ran through the scheduler: quantum spans collapse into a summary
        assert "(scheduling:" in text and "quanta" in text
        assert "quantum [" not in text  # pruned from the rendered tree

    def test_explain_analyze_traced_even_at_zero_sample_rate(self):
        conn = repro.connect(buffer_capacity=64, trace_sample_rate=0.0)
        build_parts(conn.db)
        plain = conn.submit("select * from P where COLOR = 3")
        analyze = conn.submit("explain analyze select * from P where COLOR = 3")
        conn.server.run_until_idle()
        assert plain.tracer is None  # sampling off
        assert analyze.tracer is not None  # forced by EXPLAIN ANALYZE
        assert "-- timeline" in analyze.result.text

    def test_sql_explain_analyze_result_through_execute(self, conn):
        result = conn.execute("explain analyze " + SQL)
        assert isinstance(result, repro.Result) and result.kind == "explain"
        assert result.rows and result.metrics.retrieval_count

    def test_explain_kind_sniff(self):
        assert explain_kind("explain analyze select 1") == "analyze"
        assert explain_kind("  EXPLAIN  COMPETE select 1") == "compete"
        assert explain_kind("explain select 1") is None
        assert explain_kind("select 1") is None
        assert explain_kind("not even ( sql") is None


class TestExplainPlanCache:
    """Regression: EXPLAIN ANALYZE after a plain SELECT must *hit* the plan
    cache and still attach spans and estimate-vs-actual to the cached
    plan's nodes (it used to re-bind from scratch, bypassing the cache)."""

    def test_analyze_hits_warm_cache_with_full_report(self):
        conn = repro.connect(buffer_capacity=64)
        build_parts(conn.db)
        conn.execute(SQL)  # warm the cache with the bare statement text
        cache = conn.db.plan_cache
        hits, size = cache.hits, cache.size
        result = conn.execute("explain analyze " + SQL)
        assert cache.hits == hits + 1
        assert cache.size == size  # no duplicate entry for the explain form
        # ... and the report is as rich as on a cold plan
        for section in ("-- plan", "-- execution", "-- timeline"):
            assert section in result.text
        assert "actual   :" in result.text and "estimated:" in result.text
        assert "retrieval [" in result.text

    def test_analyze_warms_cache_for_later_selects(self):
        conn = repro.connect(buffer_capacity=64)
        build_parts(conn.db)
        conn.execute("explain analyze " + SQL)  # miss: stores the entry
        hits = conn.db.plan_cache.hits
        conn.execute(SQL)  # the bare statement reuses it
        assert conn.db.plan_cache.hits == hits + 1

    def test_analyze_counts_as_execution_for_feedback(self):
        conn = repro.connect(buffer_capacity=64)
        build_parts(conn.db)
        conn.execute(SQL)
        entry, hit = conn.db.plan_cache.entry_for(conn.db, SQL)
        assert hit
        executions = entry.executions
        conn.execute("explain analyze " + SQL)
        assert entry.executions == executions + 1


# -- shell -------------------------------------------------------------------


class TestShell:
    @pytest.fixture
    def shell(self):
        conn = repro.connect(buffer_capacity=64)
        build_parts(conn.db)
        out = io.StringIO()
        return Shell(conn, out=out), out

    def test_explain_analyze_statement_prints_report(self, shell):
        sh, out = shell
        sh.feed("explain analyze select * from P where COLOR = 3;")
        text = out.getvalue()
        assert "-- plan" in text and "-- timeline" in text

    def test_plain_explain_statement_prints_plan_only(self, shell):
        sh, out = shell
        sh.feed("explain select * from P where COLOR = 3;")
        text = out.getvalue()
        assert "retrieve P" in text and "-- timeline" not in text

    def test_metrics_prom_meta_command(self, shell):
        sh, out = shell
        sh.feed("select * from P where COLOR = 3;")
        sh.feed("\\metrics prom")
        text = out.getvalue()
        assert "# TYPE repro_queries_total counter" in text
        assert 'repro_queries_total{session="<all>",outcome="done"} 1' in text

    def test_metrics_meta_command_unchanged(self, shell):
        sh, out = shell
        sh.feed("\\metrics")
        assert "<all>: 0 queries" in out.getvalue()
