"""Continuous monitoring: time series, health/drift rules, incidents.

Everything time-dependent runs on a :class:`repro.obs.SteppingClock`
threaded through ``connect(clock=...)`` — tests advance the clock instead
of sleeping, so interval sampling, latency SLOs, and drift warmup are
exactly reproducible. The two acceptance scenarios live here: the q-error
drift detector fires on a synthetic data shift (stale analyze-time
statistics) and stays quiet on a steady workload, and a synthetic SLO
breach writes an incident bundle through the flight-recorder sink.
"""

import json

import pytest

import repro
from repro.config import EngineConfig
from repro.obs import (
    DriftRule,
    HealthMonitor,
    HealthReport,
    JsonlSink,
    SteppingClock,
    ThresholdRule,
    delta_percentile,
    sparkline,
)
from repro.obs.hist import BUCKETS, LogHistogram
from repro.shell import Shell


def build_t(conn, rows=400):
    conn.execute("create table T (ID int, AGE int)")
    for i in range(rows):
        conn.execute(f"insert into T values ({i}, {i % 100})")
    conn.execute("create index IX_AGE on T (AGE)")
    conn.execute("analyze T")


# -- primitives --------------------------------------------------------------


class TestSteppingClock:
    def test_auto_advance_and_jump(self):
        clock = SteppingClock(start=10.0, auto=0.5)
        assert clock() == 10.5
        assert clock() == 11.0
        clock.advance(4.0)
        assert clock() == 15.5

    def test_zero_auto_is_frozen(self):
        clock = SteppingClock()
        assert clock() == clock()


class TestDeltaPercentile:
    def test_none_when_interval_empty(self):
        hist = LogHistogram("x")
        hist.record(4.0)
        counts = list(hist.counts)
        assert delta_percentile(counts, counts, 0.5, hist.max) is None

    def test_percentile_of_new_observations_only(self):
        hist = LogHistogram("x")
        hist.record(1.0)
        older = list(hist.counts)
        for _ in range(10):
            hist.record(64.0)
        p50 = delta_percentile(list(hist.counts), older, 0.5, hist.max)
        # the old 1.0 observation is invisible to the interval
        assert p50 == 64.0

    def test_counter_reset_treated_as_empty(self):
        hist = LogHistogram("x")
        hist.record(8.0)
        older = list(hist.counts)
        fresh = [0] * BUCKETS  # a reset: newer < older everywhere
        assert delta_percentile(fresh, older, 0.5, hist.max) is None


class TestSparkline:
    def test_scales_and_renders_none_as_space(self):
        line = sparkline([0.0, None, 4.0])
        assert len(line) == 3
        assert line[1] == " "
        assert line[2] == "█"

    def test_empty_series(self):
        assert sparkline([]) == ""
        assert sparkline([None, None]) == ""


# -- rules -------------------------------------------------------------------


class _W:
    """A bare window stub with one attribute per constructed kwarg."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestDriftRule:
    def test_warmup_then_fire_on_spike(self):
        rule = DriftRule("r", lambda w: w.v, factor=2.0, alpha=0.5, warmup=2)
        assert rule.observe(_W(v=1.0)) is None  # warmup 1
        assert rule.observe(_W(v=1.0)) is None  # warmup 2
        assert rule.observe(_W(v=1.1)) is None  # within 2x baseline
        finding = rule.observe(_W(v=10.0))
        assert finding is not None and finding.rule == "r"
        assert rule.breaches == 1

    def test_baseline_adapts_after_breach(self):
        rule = DriftRule("r", lambda w: w.v, factor=2.0, alpha=1.0, warmup=1)
        rule.observe(_W(v=1.0))
        assert rule.observe(_W(v=10.0)) is not None
        # alpha=1 → baseline snapped to 10; the new regime is the new normal
        assert rule.observe(_W(v=10.0)) is None

    def test_none_values_skipped_entirely(self):
        rule = DriftRule("r", lambda w: w.v, warmup=1)
        for _ in range(5):
            assert rule.observe(_W(v=None)) is None
        assert rule.observed == 0 and rule.baseline is None

    def test_down_direction_detects_collapse(self):
        rule = DriftRule("r", lambda w: w.v, factor=2.0, warmup=1, direction="down")
        for _ in range(3):
            rule.observe(_W(v=0.9))
        assert rule.observe(_W(v=0.2)) is not None

    def test_floor_mutes_tiny_absolute_values(self):
        rule = DriftRule("r", lambda w: w.v, factor=2.0, warmup=1, floor=1.2)
        rule.observe(_W(v=0.1))
        rule.observe(_W(v=0.1))
        # 1.0 is 10x the baseline but below the floor — noise, not drift
        assert rule.observe(_W(v=1.0)) is None
        assert rule.observe(_W(v=5.0)) is not None


class TestThresholdRule:
    def test_above_and_below(self):
        above = ThresholdRule("a", lambda w: w.v, 10.0)
        assert above.evaluate(_W(v=9.0)) is None
        assert above.evaluate(_W(v=10.0)) is not None
        below = ThresholdRule("b", lambda w: w.v, 0.5, direction="below")
        assert below.evaluate(_W(v=0.6)) is None
        assert below.evaluate(_W(v=0.4)) is not None
        assert below.evaluate(_W(v=None)) is None


# -- the registry through the server ----------------------------------------


class TestTimeSeries:
    def test_windows_reflect_retired_queries(self):
        clock = SteppingClock(auto=1e-6)
        conn = repro.connect(buffer_capacity=64, clock=clock)
        build_t(conn, rows=120)
        monitor = conn.metrics.monitor
        before = monitor.samples_taken
        for _ in range(4):
            conn.execute("select * from T where AGE >= :A", {"A": 90})
            clock.advance(0.3)  # past the 0.25s default interval
        conn.execute("select ID from T where AGE = 5")
        window = monitor.sample_now()
        assert monitor.samples_taken > before
        total = sum(w.queries for w in monitor.windows())
        done = conn.metrics.totals().queries_completed
        # every window's query delta sums to the cumulative count seen by
        # sampling (the most recent retirements are in the forced window)
        assert total == done
        assert window.end > window.start
        conn.close()

    def test_window_gauges_and_parity(self):
        clock = SteppingClock(auto=1e-6)
        conn = repro.connect(buffer_capacity=64, clock=clock)
        build_t(conn, rows=120)
        conn.execute("select * from T where AGE >= 90")
        clock.advance(0.3)
        conn.health()  # forces a sample so window gauges exist
        text = conn.metrics.expose_text()
        assert "repro_monitor_samples_total" in text
        assert "repro_window_queries" in text
        assert "repro_health_status 0" in text

        # parity: every counter the shell renders appears verbatim in the
        # Prometheus exposition ...
        formatted = conn.metrics.format().splitlines()
        start = formatted.index("counters:")
        rendered = [line.strip() for line in formatted[start + 1:]]
        prom_lines = set(text.splitlines())
        for line in rendered:
            assert line in prom_lines, f"shell counter missing from prom: {line}"

        # ... and every scalar family in the exposition is rendered by the
        # shell (histogram series and their quantile gauges excluded)
        def family(sample_line):
            name = sample_line.split("{")[0].split(" ")[0]
            return name

        prom_families = {
            family(line)
            for line in text.splitlines()
            if line and not line.startswith("#")
            and not family(line).endswith(("_bucket", "_sum", "_count", "_quantile"))
        }
        shell_families = {family(line) for line in rendered}
        assert prom_families == shell_families
        conn.close()


# -- acceptance: drift detection end to end ----------------------------------


def _drift_config():
    # corrections come from the estimator's self-tuning histograms, which
    # learn *absolute* range cardinalities — exactly the state a bulk data
    # change strands. (Signature feedback is ratio-based and would track a
    # uniform shift, so it is disabled to isolate the stale-statistics
    # scenario.)
    return EngineConfig(selectivity_feedback=False)


def build_events(conn, rows=1200):
    """The estimation workload's table: one covering index plus two
    fetch-needed ones, with the small-range shortcut disabled so every
    arm is estimated (and therefore q-error-tracked)."""
    table = conn.create_table(
        "EVENTS",
        [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=16,
        index_order=16,
    )
    table.insert_many((i, i % 89, (i * 7) % 1000) for i in range(rows))
    table.create_index("IX_AB", ["A", "B"])
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    table.config = table.config.with_(shortcut_rid_count=0)
    return table


class TestDriftEndToEnd:
    ROWS = 1200

    def run_round(self, conn, clock):
        """One workload pass, then one forced monitor window covering it."""
        for w in range(4):
            lo = w * (self.ROWS // 4)
            conn.execute(
                "select A, B from EVENTS"
                " where A >= :LO and A < :HI and B = :BV",
                {"LO": lo, "HI": lo + self.ROWS // 4, "BV": (w * 37) % 89},
            )
        clock.advance(0.3)
        conn.health()

    def test_qerror_drift_fires_on_data_shift_and_not_on_steady(self):
        clock = SteppingClock(auto=1e-6)
        conn = repro.connect(
            buffer_capacity=256, config=_drift_config(), clock=clock
        )
        table = build_events(conn, rows=self.ROWS)
        health = conn.metrics.health

        # steady phase: histogram-corrected estimates converge onto the
        # observed cardinalities, q-error settles near 1, nothing fires
        for _ in range(10):
            self.run_round(conn, clock)
        assert conn.db.estimator.observations > 0
        assert health.breaches.get("qerror-drift", 0) == 0

        # the shift: multiply every queried range ~8x behind the learned
        # histograms' back — corrected estimates still describe the old
        # cardinalities, so the next round's q-errors jump ~8x
        table.insert_many(
            (i % self.ROWS, (i * 11) % 89, i % 1000)
            for i in range(self.ROWS, self.ROWS * 8)
        )
        for _ in range(3):
            self.run_round(conn, clock)
        assert health.breaches.get("qerror-drift", 0) >= 1
        assert health.incidents >= 1
        # the detector folded the new regime into its baseline (transition
        # detection): the last round's refined estimates are quiet again
        shifted = [
            w.qerror_p50
            for w in conn.metrics.monitor.windows()
            if w.qerror_observations
        ]
        assert max(shifted) > 4.0
        conn.close()

    def test_steady_workload_stays_quiet(self):
        clock = SteppingClock(auto=1e-6)
        conn = repro.connect(
            buffer_capacity=256, config=_drift_config(), clock=clock
        )
        build_events(conn, rows=self.ROWS)
        for _ in range(14):
            self.run_round(conn, clock)
        health = conn.metrics.health
        assert health.breaches.get("qerror-drift", 0) == 0
        assert conn.health().status == "ok"
        conn.close()


# -- acceptance: SLO breach writes an incident bundle ------------------------


class TestIncidents:
    @pytest.mark.parametrize(
        "threshold, rule",
        [
            pytest.param({"p95_latency_ms": 1.0}, "slo-p95-latency", id="p95-latency"),
            pytest.param({"min_hit_rate": 0.9999}, "slo-hit-rate", id="hit-rate"),
            pytest.param({"max_queue_wait_p95": 1.0}, "slo-queue-wait", id="queue-wait"),
            pytest.param({"regret_mass": 0.001}, "slo-regret-mass", id="regret-mass"),
        ],
    )
    def test_slo_breach_writes_incident_through_flight_sink(
        self, tmp_path, threshold, rule
    ):
        path = str(tmp_path / "flight.jsonl")
        sink = JsonlSink(path)
        # one window that trips every SLO, of which ``threshold`` arms one:
        # the first statement waits 10ms between admission and its first
        # quantum (latency), the statements start on a cold cache (hit
        # rate), four are submitted at once to a one-slot server (queue
        # wait), and an unselective EXPLAIN COMPETE realizes regret. The
        # clock moves only by that one jump, short of the monitor's 0.25s
        # interval, so the only sample is the forced one of ``health()``.
        clock = SteppingClock()
        conn = repro.connect(
            buffer_capacity=64, clock=clock, flight_sink=sink,
            max_concurrency=1, slo=threshold,
        )
        table = conn.create_table(
            "T", [("ID", "int"), ("AGE", "int")], rows_per_page=8, index_order=8
        )
        table.insert_many((i, (i * 7) % 100) for i in range(600))
        table.create_index("IX_AGE", ["AGE"])
        table.create_index("IX_ID", ["ID"])
        conn.db.cold_cache()
        for _ in range(4):
            conn.submit("select * from T where AGE >= 50")
        clock.advance(0.01)
        conn.execute("explain compete select * from T where AGE >= 0")
        report = conn.health()
        assert report.status == "critical"
        assert [f.rule for f in report.findings if f.severity == "critical"] == [rule]
        assert conn.metrics.incidents >= 1
        conn.close()
        records = [
            json.loads(line) for line in open(path) if line.strip()
        ]
        incidents = [r for r in records if r.get("kind") == "incident"]
        assert incidents
        bundle = incidents[0]
        assert rule in bundle["rules"]
        assert bundle["window"] is not None
        assert bundle["recent_windows"]
        assert isinstance(bundle["top_queries"], list)
        assert "decisions" in bundle

    def test_unknown_slo_key_is_rejected(self):
        with pytest.raises(ValueError, match="p99_latency_ms"):
            repro.connect(buffer_capacity=32, slo={"p99_latency_ms": 5.0})

    def test_rising_edge_dedup(self):
        # a rule that keeps breaching opens exactly one incident until it
        # clears and breaches again
        clock = SteppingClock(auto=0.01)
        conn = repro.connect(
            buffer_capacity=64, clock=clock, slo={"p95_latency_ms": 1.0}
        )
        build_t(conn, rows=80)
        health = conn.metrics.health
        conn.execute("select * from T where AGE >= 50")
        conn.health()
        first = health.incidents
        assert first >= 1
        conn.execute("select * from T where AGE >= 50")
        conn.health()  # still breaching: no new incident
        windows_with_queries = [
            w for w in conn.metrics.monitor.windows() if w.queries
        ]
        # only count rising edges: breach intervals separated by quiet ones
        assert health.incidents <= len(windows_with_queries)
        conn.close()


# -- dashboard rendering ------------------------------------------------------


class TestDashboard:
    def test_top_renders_without_terminal(self, capsys):
        import io

        out = io.StringIO()
        clock = SteppingClock(auto=1e-6)
        conn = repro.connect(buffer_capacity=64, clock=clock)
        shell = Shell(conn, out=out)
        shell.feed("create table T (ID int, AGE int);")
        shell.feed("insert into T values (1, 30);")
        shell.feed("select * from T;")
        clock.advance(0.3)
        shell.feed("\\top")
        shell.feed("\\health")
        text = out.getvalue()
        assert "monitor:" in text
        assert "queries/sec" in text
        assert "health:" in text
        conn.close()

    def test_format_top_before_any_sample(self):
        clock = SteppingClock()
        conn = repro.connect(buffer_capacity=32, clock=clock)
        # no samples yet: the dashboard still renders
        assert "monitor:" in conn.metrics.monitor.format_top()
        conn.close()


# -- sink lifecycle -----------------------------------------------------------


class TestSinkRotation:
    def test_rotation_keeps_n_files_and_counts(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path, max_bytes=200, keep=2)
        record = {"name": "q", "payload": "x" * 60}
        for _ in range(12):
            sink.write(record)
        sink.close()
        assert sink.rotations > 0
        files = sorted(p.name for p in tmp_path.iterdir())
        assert "trace.jsonl" in files and "trace.jsonl.1" in files
        assert "trace.jsonl.3" not in files  # keep=2 drops older shards
        # every retained line is a complete record — rotation never splits
        for name in files:
            for line in open(tmp_path / name):
                assert json.loads(line)["name"] == "q"

    def test_no_rotation_without_cap(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path)
        for _ in range(50):
            sink.write({"a": 1})
        sink.close()
        assert sink.rotations == 0
        assert len(list(tmp_path.iterdir())) == 1

    def test_rotation_counters_exposed(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "f.jsonl"), max_bytes=80, keep=2)
        clock = SteppingClock(auto=0.01)
        conn = repro.connect(
            buffer_capacity=64, clock=clock, flight_sink=sink, slow_query_ms=1.0
        )
        build_t(conn, rows=60)
        for _ in range(4):
            conn.execute("select * from T where AGE >= 50")
        text = conn.metrics.expose_text()
        assert 'repro_sink_records_total{sink="flight"}' in text
        assert 'repro_sink_rotations_total{sink="flight"}' in text
        assert f'repro_sink_rotations_total{{sink="flight"}} {sink.rotations}' in text
        formatted = conn.metrics.format()
        assert f"flight sink: {sink.written} records" in formatted
        conn.close()


class TestShutdownLifecycle:
    def test_shutdown_mid_query_closes_sinks_exactly_once(self, tmp_path):
        closes = []

        class CountingSink(JsonlSink):
            def close(self):
                if not self.closed:
                    closes.append(self)
                super().close()

        trace = CountingSink(str(tmp_path / "t.jsonl"))
        flight = CountingSink(str(tmp_path / "f.jsonl"))
        # batch_size=1: one engine step per quantum, so a 200-row scan is
        # genuinely mid-flight after a few steps
        conn = repro.connect(
            buffer_capacity=64, config=EngineConfig(batch_size=1),
            trace_sink=trace, flight_sink=flight,
            trace_sample_rate=1.0, slow_query_ms=0.0,
        )
        build_t(conn, rows=200)
        handle = conn.submit("select * from T where AGE >= 0")
        # a few quanta in, the query is mid-flight
        for _ in range(3):
            conn.server.step()
        assert not handle.done
        conn.close()
        conn.close()  # second close is a no-op
        conn.server.shutdown()  # so is a direct shutdown
        assert closes.count(trace) == 1
        assert closes.count(flight) == 1
        assert trace.closed and flight.closed
        # the cancelled query's partial trace was flushed before the close
        assert trace.written >= 1
        with pytest.raises(ValueError):
            trace.write({"late": True})

    def test_shutdown_takes_final_monitor_sample(self):
        clock = SteppingClock(auto=1e-6)
        conn = repro.connect(buffer_capacity=32, clock=clock)
        conn.execute("create table T (ID int)")
        conn.execute("insert into T values (1)")
        monitor = conn.metrics.monitor
        before = monitor.samples_taken
        conn.close()
        assert monitor.samples_taken == before + 1


# -- clock plumbing -----------------------------------------------------------


class TestInjectableClock:
    def test_latencies_come_from_injected_clock(self):
        clock = SteppingClock(auto=0.0)
        conn = repro.connect(buffer_capacity=32, clock=clock)
        conn.execute("create table T (ID int)")
        handle = conn.submit("select * from T")
        clock.advance(2.0)
        handle.wait()
        latency = conn.metrics.totals().latency
        # admitted before the jump, retired after: exactly the 2s advance
        assert latency.max == pytest.approx(2.0)
        conn.close()

    def test_span_finish_uses_stored_clock(self):
        from repro.obs import Tracer

        clock = SteppingClock(auto=1.0)
        tracer = Tracer("query", clock=clock)
        span = tracer.begin("child")
        tracer.end(span)
        assert span.duration == pytest.approx(1.0)

    def test_health_report_disabled_shapes(self):
        monitor_free = HealthReport([], None)
        assert monitor_free.status == "ok"
        assert monitor_free.format_line() == "OK"
