"""Histograms, registry snapshots, reconciliation, Prometheus export.

The registry's contract is exact accounting: every histogram's ``sum``
reconciles with the flat counter written in the same recording call, the
fetch-run-length histogram reconciles with the pool's ``prefetched``
counter, and snapshots are genuinely immutable — the live-object leak
:meth:`MetricsRegistry.per_session` used to have is pinned here.
"""

import math

import pytest

import repro
from repro.obs.export import PrometheusText
from repro.obs.hist import BUCKETS, LogHistogram, bucket_index, bucket_upper_bound
from repro.server.metrics import MetricsRegistry


def build_parts(conn, rows=600):
    table = conn.create_table(
        "P", [("PNO", "int"), ("COLOR", "int"), ("WEIGHT", "int"), ("SIZE", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(rows):
        table.insert((i, i % 10, (i * 7) % 100, (i * 13) % 50))
    table.create_index("IX_COLOR", ["COLOR"])
    table.create_index("IX_WEIGHT", ["WEIGHT"])
    return table


# -- LogHistogram ------------------------------------------------------------


class TestBuckets:
    def test_upper_bounds_are_inclusive_powers_of_two(self):
        for value in [0.5, 1, 2, 4, 1024]:
            index = bucket_index(value)
            assert bucket_upper_bound(index) == value  # exactly on a boundary
            assert bucket_index(value * 1.01) == index + 1

    def test_monotonic_over_magnitudes(self):
        values = [1e-6, 1e-3, 0.5, 1, 3, 100, 1e6]
        indexes = [bucket_index(v) for v in values]
        assert indexes == sorted(indexes)
        assert all(0 <= i < BUCKETS for i in indexes)

    def test_extremes_clamp(self):
        assert bucket_index(0) == 0
        assert bucket_index(-5) == 0
        assert bucket_index(float("inf")) == BUCKETS - 1


class TestLogHistogram:
    def test_count_sum_mean(self):
        hist = LogHistogram("steps")
        for value in [1, 2, 3, 100]:
            hist.record(value)
        assert hist.count == 4
        assert hist.sum == 106  # exact, not bucket-approximated
        assert hist.mean == pytest.approx(26.5)

    def test_percentiles_ordered_and_clamped(self):
        hist = LogHistogram("lat")
        for value in range(1, 201):
            hist.record(value)
        assert hist.p50 <= hist.p95 <= hist.p99
        # clamped to the observed maximum, not the bucket's upper bound
        assert hist.p99 <= 200
        assert hist.percentile(1.0) == 200

    def test_empty_histogram(self):
        hist = LogHistogram("empty")
        assert hist.count == 0 and hist.sum == 0.0
        assert hist.mean == 0.0 and hist.p50 == 0.0

    def test_merge_and_snapshot_independence(self):
        a = LogHistogram("x")
        b = LogHistogram("x")
        a.record(1)
        b.record(64)
        a.merge(b)
        assert a.count == 2 and a.sum == 65
        snap = a.snapshot()
        a.record(1000)
        assert snap.count == 2 and snap.sum == 65  # unaffected by later records

    def test_empty_percentiles_all_zero(self):
        hist = LogHistogram("empty")
        assert hist.p50 == hist.p95 == hist.p99 == 0.0
        assert hist.max == 0.0 and hist.min == float("inf")  # min sentinel

    def test_single_bucket_percentiles_collapse(self):
        hist = LogHistogram("one")
        for _ in range(10):
            hist.record(5.0)
        assert hist.p50 == hist.p95 == hist.p99 == 5.0
        assert hist.mean == 5.0

    def test_underflow_and_overflow_buckets(self):
        hist = LogHistogram("extreme")
        hist.record(0.0)  # underflow (zero)
        hist.record(-7.0)  # negatives land in underflow too
        hist.record(float("nan"))  # and NaN
        hist.record(2.0 ** 40)  # beyond MAX_EXP: overflow bucket
        assert hist.count == 4
        assert bucket_index(2.0 ** 40) == BUCKETS - 1
        assert bucket_upper_bound(BUCKETS - 1) == float("inf")
        # percentiles stay finite: clamped to the observed maximum
        assert hist.percentile(1.0) == 2.0 ** 40

    def test_merge_with_empty_is_identity(self):
        a = LogHistogram("x")
        a.record(4)
        a.record(9)
        empty = LogHistogram("x")
        a.merge(empty)
        assert a.count == 2 and a.sum == 13
        assert a.max == 9 and a.min == 4
        empty.merge(a)  # and merging into an empty adopts everything
        assert empty.count == 2 and empty.sum == 13
        assert empty.max == 9 and empty.min == 4
        assert empty.percentile(1.0) == a.percentile(1.0)

    def test_buckets_view_and_to_dict(self):
        hist = LogHistogram("x")
        hist.record(3)
        hist.record(3)
        pairs = hist.buckets()
        assert pairs == [(4.0, 2)]  # only non-empty buckets, upper bound 2^2
        exported = hist.to_dict()
        assert exported["count"] == 2 and exported["sum"] == 6


# -- PrometheusText ----------------------------------------------------------


class TestPrometheusText:
    def test_counter_help_type_dedupe(self):
        out = PrometheusText()
        out.counter("queries_total", 1, "Queries.", {"session": "a"})
        out.counter("queries_total", 2, "Queries.", {"session": "b"})
        text = out.render()
        assert text.count("# HELP repro_queries_total") == 1
        assert text.count("# TYPE repro_queries_total counter") == 1
        assert 'repro_queries_total{session="a"} 1' in text
        assert 'repro_queries_total{session="b"} 2' in text

    def test_histogram_buckets_cumulative_with_inf(self):
        hist = LogHistogram("lat")
        for value in [0.5, 0.5, 3]:
            hist.record(value)
        out = PrometheusText()
        out.histogram("lat", hist, "Latency.")
        lines = out.render().splitlines()
        bucket_lines = [l for l in lines if "_bucket" in l]
        counts = [float(l.rsplit(" ", 1)[1]) for l in bucket_lines]
        assert counts == sorted(counts)  # cumulative
        assert bucket_lines[-1].startswith('repro_lat_bucket{le="+Inf"}')
        assert counts[-1] == 3
        assert "repro_lat_sum 4" in "\n".join(lines)
        assert "repro_lat_count 3" in "\n".join(lines)


# -- MetricsRegistry ---------------------------------------------------------


class TestRegistry:
    def test_record_completion_reconciles_histogram_with_counter(self):
        registry = MetricsRegistry()
        registry.record_completion("s1", "done", latency_seconds=0.5,
                                   queue_wait_quanta=3, quanta=7)
        registry.record_completion("s1", "done", latency_seconds=0.25,
                                   queue_wait_quanta=0, quanta=5)
        metrics = registry.session("s1")
        assert metrics.quanta == 12
        assert metrics.steps_per_query.sum == metrics.quanta
        assert metrics.queue_wait.sum == 3
        assert metrics.latency.count == 2

    def test_per_session_returns_isolated_snapshots(self):
        registry = MetricsRegistry()
        registry.record_outcome("s1", "done")
        snap = registry.per_session()
        registry.record_completion("s1", "done", 0.1, 0, 4)
        assert snap["s1"].queries_completed == 1  # not drifted to 2
        assert snap["s1"].quanta == 0
        assert snap["s1"].steps_per_query.count == 0
        # mutating the snapshot doesn't touch the registry either
        snap["s1"].queries_completed = 99
        snap["s1"].latency.record(1.0)
        assert registry.session("s1").queries_completed == 2
        assert registry.session("s1").latency.count == 1

    def test_one_call_records_a_retired_query(self, monkeypatch):
        calls = []
        record = MetricsRegistry.record_completion

        def counting(registry, *args, **kwargs):
            calls.append(args[0])
            return record(registry, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "record_completion", counting)
        conn = repro.connect(buffer_capacity=64)
        build_parts(conn)
        sql = "select * from P where COLOR = 3 or WEIGHT = 7"
        conn.execute(sql)
        conn.execute(f"explain compete {sql}")
        assert calls == ["main", "main"]
        metrics = conn.metrics
        totals = metrics.totals()
        assert totals.queries_completed == 2
        # the same call fed the cost L-shape, the decision counts, the
        # compete replays and the monitor's recent-query ring
        assert metrics.decisions.retrieval_cost_hist.count == totals.retrievals
        assert sum(metrics.decisions.tactic_selected.values()) == totals.retrievals
        assert metrics.decisions.replays > 0
        assert [entry[0] for entry in metrics.monitor.recent_queries] == [
            sql, f"explain compete {sql}"
        ]

    def test_totals_merge_sessions_and_histograms(self):
        registry = MetricsRegistry()
        registry.record_completion("a", "done", 0.5, 1, 10)
        registry.record_completion("b", "done", 0.5, 2, 20)
        totals = registry.totals()
        assert totals.quanta == 30
        assert totals.steps_per_query.sum == 30
        assert totals.queue_wait.sum == 3


# -- server integration ------------------------------------------------------


class TestServerReconciliation:
    @pytest.fixture
    def conn(self):
        return repro.connect(buffer_capacity=64, trace_sample_rate=1.0)

    def test_quanta_and_fetch_runs_reconcile(self, conn):
        build_parts(conn)
        other = conn.session("other")
        handles = [
            conn.submit("select * from P where COLOR = 3"),
            other.submit("select * from P where WEIGHT >= 0"),
            conn.submit("select PNO from P where COLOR = 7"),
        ]
        conn.server.run_until_idle()
        assert all(handle.done for handle in handles)
        totals = conn.metrics.totals()
        assert totals.steps_per_query.sum == totals.quanta
        assert totals.quanta == sum(handle.steps for handle in handles)
        pool = conn.db.buffer_pool
        assert conn.metrics.fetch_runs.sum == pool.prefetched
        # per-session reconciliation too
        for metrics in conn.metrics.per_session().values():
            assert metrics.steps_per_query.sum == metrics.quanta

    def test_queue_wait_recorded_under_admission_pressure(self):
        conn = repro.connect(
            buffer_capacity=64, max_concurrency=1, trace_sample_rate=0.0
        )
        build_parts(conn)
        first = conn.submit("select * from P where WEIGHT >= 0")
        second = conn.submit("select * from P where COLOR = 3")
        conn.server.run_until_idle()
        assert first.done and second.done
        metrics = conn.metrics.session("main")
        # the second query waited for the first's quanta before admission
        assert metrics.queue_wait.sum >= first.steps
        assert metrics.latency.count == 2

    def test_expose_text_format(self, conn):
        build_parts(conn)
        conn.execute("select * from P where COLOR = 3")
        text = conn.metrics.expose_text()
        assert '# TYPE repro_queries_total counter' in text
        assert 'repro_queries_total{session="<all>",outcome="done"} 1' in text
        assert '# TYPE repro_query_latency_seconds histogram' in text
        assert 'quantile="0.99"' in text
        assert 'repro_fetch_run_length_count' in text
        # counter totals in the exposition reconcile with the registry
        totals = conn.metrics.totals()
        assert f'repro_query_quanta_total{{session="<all>"}} {totals.quanta}' in text

    def test_format_output_stable(self, conn):
        build_parts(conn)
        conn.execute("select * from P where COLOR = 3")
        lines = conn.metrics.format().splitlines()
        assert lines[0].startswith("<all>: 1 queries (1 done, 0 cancelled, 0 failed)")
        assert any(line.startswith("main: ") for line in lines)
        assert "cache hit rate" in lines[0]
