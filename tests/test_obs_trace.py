"""Span tracing: tree shape, event coverage, batch equivalence, sampling.

The tracer is an *observer*: attaching one must never change what the
engine does, and the tree it records must agree with the flat
``RetrievalTrace`` event log it mirrors. The exhaustive-coverage test
pins the contract that every :class:`EventKind` the engine can emit is
actually emitted by some reachable scenario and exports cleanly through
``TraceEvent.to_dict`` — so a new kind without an emitter (or an emitter
with unserializable detail) fails here, not in a user's JSONL sink.
"""

import io
import json

import pytest

from repro.config import EngineConfig
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal as Goal
from repro.engine.initial import run_initial_stage
from repro.engine.jscan import JscanProcess
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.expr.ast import col
from repro.obs.trace import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    Span,
    Tracer,
    should_sample,
)
from repro.storage.buffer_pool import CostMeter


def build_parts(db, rows=600):
    table = db.create_table(
        "P", [("PNO", "int"), ("COLOR", "int"), ("WEIGHT", "int"), ("SIZE", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(rows):
        table.insert((i, i % 10, (i * 7) % 100, (i * 13) % 50))
    table.create_index("IX_COLOR", ["COLOR"])
    table.create_index("IX_WEIGHT", ["WEIGHT"])
    table.create_index("IX_SIZE", ["SIZE"])
    return table


# -- Tracer mechanics --------------------------------------------------------


class TestTracer:
    def test_begin_end_nesting(self):
        tracer = Tracer("query", session="s1")
        outer = tracer.begin("retrieval", table="T")
        inner = tracer.begin("tactic", tactic="sorted")
        assert tracer.current is inner
        tracer.end(inner)
        assert tracer.current is outer
        tracer.end(outer, rows=3)
        root = tracer.finish()
        assert root.name == "query"
        assert root.children == [outer]
        assert outer.children == [inner]
        assert outer.attrs["rows"] == 3
        assert all(span.finished for span in root.walk())

    def test_end_is_defensive_about_skipped_spans(self):
        tracer = Tracer()
        outer = tracer.begin("retrieval")
        tracer.begin("tactic")  # never explicitly ended (exception path)
        tracer.end(outer)
        assert all(span.finished for span in tracer.root.walk() if span is not tracer.root)
        assert tracer.current is tracer.root

    def test_open_spans_attach_without_pushing(self):
        tracer = Tracer()
        stack = tracer.begin("tactic")
        scan_a = tracer.open("scan", strategy="sscan")
        scan_b = tracer.open("scan", strategy="jscan")
        assert tracer.current is stack  # neither scan joined the stack
        assert stack.children == [scan_a, scan_b]
        scan_b.finish(steps=7)
        assert scan_b.attrs["steps"] == 7
        under_root = tracer.open("quantum", parent=tracer.root, seq=0)
        assert under_root in tracer.root.children

    def test_events_attach_to_current_span(self):
        tracer = Tracer()
        trace = RetrievalTrace(tracer)
        span = tracer.begin("tactic")
        trace.emit(EventKind.SCAN_START, strategy="tscan")
        assert [e.kind for e in span.events] == [EventKind.SCAN_START]
        # a strategy switch also marks a zero-duration boundary span
        trace.emit(EventKind.STRATEGY_SWITCH, to="tscan", reason="test")
        marks = span.find("strategy-switch")
        assert len(marks) == 1 and marks[0].attrs["to"] == "tscan"
        assert marks[0].finished

    def test_finish_is_idempotent_and_merges_attrs(self):
        span = Span("x", {}, clock=lambda: 1.0)
        span.finish(clock=lambda: 2.0)
        span.finish(clock=lambda: 9.0, extra=1)
        assert span.end_time == 2.0
        assert span.attrs == {"extra": 1}

    def test_to_dict_and_json_roundtrip(self):
        tracer = Tracer("query", ticket=1)
        trace = RetrievalTrace(tracer)
        tracer.begin("retrieval", table="T")
        trace.emit(EventKind.SCAN_START, strategy="tscan")
        tracer.finish(outcome="done")
        tree = json.loads(tracer.to_json())
        assert tree["name"] == "query"
        assert tree["attrs"]["outcome"] == "done"
        child = tree["children"][0]
        assert child["events"] == [{"kind": "scan-start", "strategy": "tscan"}]

    def test_format_excludes_named_children(self):
        tracer = Tracer()
        tracer.open("quantum", seq=0).finish()
        tracer.begin("retrieval", table="T")
        tracer.finish()
        text = tracer.root.format(exclude=("quantum",))
        assert "retrieval" in text and "quantum" not in text
        assert "quantum" in tracer.root.format()

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        span = NULL_TRACER.begin("retrieval", table="T")
        assert NULL_TRACER.end(span) is span  # same shared null span
        NULL_TRACER.event(object())
        assert NULL_TRACER.open("scan").finish() is NULL_TRACER.mark("x")
        assert RetrievalTrace().tracer is NULL_TRACER


class TestSampling:
    def test_edge_rates(self):
        assert not any(should_sample(i, 0.0) for i in range(1, 50))
        assert all(should_sample(i, 1.0) for i in range(1, 50))

    def test_fractional_rate_admits_floor_n_rate(self):
        picks = [i for i in range(1, 101) if should_sample(i, 0.25)]
        assert len(picks) == 25
        # evenly spread: consecutive picks 4 apart, and deterministic
        assert all(b - a == 4 for a, b in zip(picks, picks[1:]))
        assert picks == [i for i in range(1, 101) if should_sample(i, 0.25)]

    def test_deterministic_across_sessions(self):
        """Two schedulers assigning the same ticket numbers sample the same
        queries — the decision depends only on (sequence, rate)."""
        for rate in (0.1, 0.25, 0.5, 0.9):
            first = [should_sample(i, rate) for i in range(1, 200)]
            second = [should_sample(i, rate) for i in range(1, 200)]
            assert first == second
            assert sum(first) == sum(int(i * rate) - int((i - 1) * rate)
                                     for i in range(1, 200))


class TestJsonlSink:
    def test_writes_one_line_per_tree(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.write({"name": "query"})
        sink.write({"name": "query2"})
        lines = buf.getvalue().splitlines()
        assert sink.written == 2
        assert [json.loads(line)["name"] for line in lines] == ["query", "query2"]

    def test_path_target_opens_lazily(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonlSink(str(path))
        assert not path.exists()
        sink.write({"name": "query"})
        sink.close()
        assert json.loads(path.read_text())["name"] == "query"

    def test_write_after_close_raises(self):
        sink = JsonlSink(io.StringIO())
        sink.write({"name": "query"})
        sink.close()
        assert sink.closed
        with pytest.raises(ValueError):
            sink.write({"name": "late"})

    def test_close_is_idempotent_and_leaves_external_stream_open(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.write({"name": "query"})
        sink.close()
        sink.close()
        assert not buf.closed  # caller-owned stream is flushed, not closed
        assert json.loads(buf.getvalue())["name"] == "query"

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        with JsonlSink(str(path)) as sink:
            sink.write({"name": "query"})
        assert sink.closed
        assert json.loads(path.read_text())["name"] == "query"

    def test_unserializable_record_leaves_no_partial_line(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        with pytest.raises(TypeError):
            sink.write({"name": "query", "bad": {("tuple", "key"): 1}})
        assert buf.getvalue() == ""  # serialize-then-write: nothing emitted
        assert sink.written == 0
        sink.write({"name": "query"})  # sink still usable
        assert json.loads(buf.getvalue())["name"] == "query"

    def test_flush_pushes_through_to_stream(self, tmp_path):
        path = tmp_path / "traces.jsonl"
        sink = JsonlSink(str(path))
        sink.write({"name": "query"})
        sink.flush()
        assert json.loads(path.read_text())["name"] == "query"
        sink.close()


# -- query span trees --------------------------------------------------------


class TestQuerySpanTree:
    def test_competition_query_tree(self, db):
        table = build_parts(db)
        tracer = Tracer("query")
        result = table.select(where=col("WEIGHT") >= 0, tracer=tracer)
        tracer.finish()
        root = tracer.root
        retrievals = root.find("retrieval")
        assert len(retrievals) == 1
        retrieval = retrievals[0]
        assert retrieval.attrs["table"] == "P"
        assert retrieval.attrs["rows"] == len(result.rows)
        assert retrieval.attrs["io"] == result.execution_io
        tactic = root.find("tactic")[0]
        assert "tactic" in tactic.attrs
        # the unselective scan switched to tscan: boundary mark + both scans
        assert root.find("strategy-switch")
        strategies = {span.attrs.get("strategy") for span in root.find("scan")}
        assert "tscan" in strategies
        for span in root.walk():
            assert span.finished
        # every emitted event landed on some span
        attached = [event for span in root.walk() for event in span.events]
        assert len(attached) == len(result.trace.events)

    def test_scan_spans_carry_step_and_cost_attrs(self, db):
        table = build_parts(db)
        tracer = Tracer()
        table.select(where=col("COLOR").eq(3), tracer=tracer,
                     optimize_for=Goal.TOTAL_TIME)
        tracer.finish()
        scans = tracer.root.find("scan")
        assert scans
        for span in scans:
            assert span.attrs["steps"] >= 0
            assert span.attrs["cost"] >= 0
        finals = tracer.root.find("final-stage")
        assert finals and finals[0].attrs["steps"] == finals[0].attrs["rids"]

    def test_untraced_select_unchanged(self, db):
        table = build_parts(db)
        traced_db = Database(buffer_capacity=64)
        traced = build_parts(traced_db)
        tracer = Tracer()
        plain = table.select(where=col("COLOR").eq(3))
        with_spans = traced.select(where=col("COLOR").eq(3), tracer=tracer)
        assert sorted(plain.rows) == sorted(with_spans.rows)
        assert plain.total_cost == with_spans.total_cost
        assert [e.kind for e in plain.trace.events] == [
            e.kind for e in with_spans.trace.events
        ]

    def test_cancellation_finishes_open_spans(self):
        import repro

        conn = repro.connect(buffer_capacity=48, trace_sample_rate=1.0)
        table = build_parts(conn.db)
        handle = conn.submit("select * from P where WEIGHT >= 0", deadline=2)
        with pytest.raises(repro.QueryCancelledError):
            handle.wait()
        assert handle.tracer is not None
        root = handle.tracer.root
        assert root.attrs["outcome"] == "cancelled"
        for span in root.walk():
            assert span.finished, f"span {span.name!r} left open by cancellation"
        cancelled = root.find("retrieval")
        assert cancelled and cancelled[0].attrs.get("cancelled") is True


# -- batch-size equivalence --------------------------------------------------


class TestBatchEquivalence:
    """Observability must be batching-transparent: the span tree and the
    histograms describe engine work, which batch size does not change."""

    EXPRS = [
        ("jscan", lambda: col("COLOR").eq(3), Goal.TOTAL_TIME),
        ("switch", lambda: col("WEIGHT") >= 0, Goal.TOTAL_TIME),
        ("fast-first", lambda: col("COLOR").eq(3), Goal.FAST_FIRST),
    ]

    @staticmethod
    def run_traced(batch_size, make_expr, goal):
        db = Database(buffer_capacity=64,
                      config=EngineConfig(batch_size=batch_size))
        table = build_parts(db)
        tracer = Tracer()
        result = table.select(where=make_expr(), tracer=tracer, optimize_for=goal)
        tracer.finish()
        return result, tracer

    @staticmethod
    def shape(span):
        """Structure + engine-work attrs, with wall-clock times stripped.

        ``steps`` is excluded: a batched scan may count one extra engine
        step for the completion probe that ends its final batch (the same
        documented accounting exception as ``buffer_hits`` for read-ahead).
        It is compared separately with ±1 tolerance.
        """
        attrs = {
            k: (round(v, 3) if k == "cost" else v)
            for k, v in span.attrs.items()
            if k != "steps"
        }
        return (span.name, tuple(sorted(attrs.items())),
                tuple(str(e) for e in span.events),
                tuple(TestBatchEquivalence.shape(c) for c in span.children))

    @pytest.mark.parametrize("label,make_expr,goal", EXPRS,
                             ids=[e[0] for e in EXPRS])
    def test_span_tree_identical_at_batch_1_and_64(self, label, make_expr, goal):
        result_1, tracer_1 = self.run_traced(1, make_expr, goal)
        result_64, tracer_64 = self.run_traced(64, make_expr, goal)
        assert sorted(result_1.rows) == sorted(result_64.rows)
        assert self.shape(tracer_1.root) == self.shape(tracer_64.root)
        steps_1 = [s.attrs["steps"] for s in tracer_1.root.walk()
                   if "steps" in s.attrs]
        steps_64 = [s.attrs["steps"] for s in tracer_64.root.walk()
                    if "steps" in s.attrs]
        assert len(steps_1) == len(steps_64)
        assert all(abs(a - b) <= 1 for a, b in zip(steps_1, steps_64))

    def test_server_metrics_equivalent_across_batch_size(self):
        import repro

        per_size = {}
        for batch_size in (1, 64):
            cfg = EngineConfig(batch_size=batch_size)
            conn = repro.connect(
                buffer_capacity=64, config=cfg, trace_sample_rate=1.0
            )
            build_parts(conn.db)
            conn.execute("select * from P where COLOR = 3")
            conn.execute("select * from P where WEIGHT >= 0")
            totals = conn.metrics.totals()
            # scheduling quanta scale with batch size; engine work must not
            assert totals.steps_per_query.sum == totals.quanta
            per_size[batch_size] = (
                totals.retrievals,
                totals.counters.records_fetched,
                totals.counters.scans_started,
                totals.counters.strategy_switches,
                totals.queries_completed,
            )
        assert per_size[1] == per_size[64]


# -- exhaustive EventKind coverage -------------------------------------------


def _reorder_scenario():
    """REORDERED needs a deliberately mis-ordered candidate list."""
    table = build_parts(Database(buffer_capacity=64), rows=900)
    config = table.config.with_(
        simultaneous_adjacent_scans=True,
        switch_threshold=10.0, scan_cost_limit_fraction=100.0,
    )
    trace = RetrievalTrace()
    arrangement = run_initial_stage(
        list(table.indexes.values()), (col("COLOR") <= 8) & (col("SIZE") < 2), {},
        frozenset(table.schema.names), (), CostMeter(), trace, config,
    )
    arrangement.jscan_candidates.sort(
        key=lambda c: -(c.estimate.rids if c.estimate else 0)
    )
    jscan = JscanProcess(
        arrangement.jscan_candidates, table.heap, table.buffer_pool, trace, config
    )
    while jscan.active:
        if jscan.step():
            break
    return trace.events


def _spill_scenario():
    """SPILL needs RID lists overflowing a tiny allocated buffer."""
    config = EngineConfig(
        static_rid_buffer_size=2, allocated_rid_buffer_size=8,
        switch_threshold=10.0, scan_cost_limit_fraction=100.0,
        simultaneous_adjacent_scans=False,
    )
    spill_db = Database(buffer_capacity=64, config=config)
    table = spill_db.create_table(
        "S", [("A", "int"), ("PAD", "int")], rows_per_page=8
    )
    table.config = config
    for i in range(300):
        table.insert((i % 2, i))
    table.create_index("IX_A", ["A"])
    return table.select(where=col("A").eq(0)).trace.events


def _gate_scenario():
    """COMPETITION_SKIPPED needs a warm, trusted estimator on both arms
    of an index-only race."""
    from repro.competition.process import drain
    from repro.estimate import Estimator

    gate_db = Database(buffer_capacity=64)
    table = gate_db.create_table(
        "G", [("A", "int"), ("B", "int"), ("C", "int")], rows_per_page=8
    )
    for i in range(200):
        table.insert((i, i % 10, (i * 3) % 50))
    table.create_index("IX_AB", ["A", "B"])  # covers {A, B}: the Sscan arm
    table.create_index("IX_A", ["A"])  # fetch-needed: the Jscan arms
    table.create_index("IX_B", ["B"])
    # the small-range shortcut would leave a candidate unestimated, and an
    # unestimated arm always competes — turn it off to reach the gate
    table.config = table.config.with_(shortcut_rid_count=0)
    where = (col("A") < 50) & (col("B").eq(3))
    estimator = Estimator()
    for index_name in ("IX_AB", "IX_A", "IX_B"):
        for _ in range(5):
            estimator.record("G", index_name, where, 100, 100)
    result = drain(
        table.select_steps(where=where, columns=("A", "B"), estimator=estimator)
    )
    assert estimator.trusted == 1
    return result.trace.events


def _with_config(table, config, **select_kwargs):
    """Run one select under a temporary engine config."""
    saved = table.config
    table.config = config
    try:
        return table.select(**select_kwargs).trace.events
    finally:
        table.config = saved


def test_every_event_kind_is_emitted_and_exports(db):
    """Every :class:`EventKind` must be reachable and JSON-exportable."""
    table = build_parts(db)
    base = table.config
    scenarios = [
        # selective jscan: estimates, ordering, tactic, scans, final stage
        lambda: table.select(where=col("COLOR").eq(3),
                             optimize_for=Goal.TOTAL_TIME).trace.events,
        # unselective: abandon, switch, tscan recommendation
        lambda: table.select(where=col("WEIGHT") >= 0,
                             optimize_for=Goal.TOTAL_TIME).trace.events,
        # fast-first out-competed foreground
        lambda: table.select(where=col("WEIGHT") >= 0,
                             optimize_for=Goal.FAST_FIRST).trace.events,
        # fast-first with a limit: consumer stops the engine
        lambda: table.select(where=col("COLOR").eq(3), limit=3,
                             optimize_for=Goal.FAST_FIRST).trace.events,
        # sorted tactic builds a filter from the second index
        lambda: table.select(where=(col("COLOR").eq(7)) & (col("WEIGHT") >= 0),
                             order_by=("WEIGHT",)).trace.events,
        # tiny foreground buffer: overflow terminates the foreground
        lambda: _with_config(
            table, base.with_(foreground_buffer_size=4),
            where=col("COLOR") <= 8, optimize_for=Goal.FAST_FIRST,
        ),
        # contradiction: empty-range shortcut
        lambda: table.select(
            where=(col("COLOR") > 5) & (col("COLOR") < 5)
        ).trace.events,
        # small-range shortcut skips estimation
        lambda: _with_config(
            table, base.with_(shortcut_rid_count=100),
            where=(col("COLOR").eq(3)) & (col("WEIGHT") < 50),
        ),
        # simultaneous adjacent pair
        lambda: _with_config(
            table,
            base.with_(
                simultaneous_adjacent_scans=True,
                switch_threshold=10.0, scan_cost_limit_fraction=100.0,
            ),
            where=(col("COLOR").eq(3)) & (col("SIZE") < 25),
        ),
        lambda: _reorder_scenario(),
        lambda: _spill_scenario(),
        # trusted estimates skip the index-only race entirely
        lambda: _gate_scenario(),
    ]
    seen: set[EventKind] = set()
    for scenario in scenarios:
        for event in scenario():
            seen.add(event.kind)
            exported = event.to_dict()
            assert exported["kind"] == event.kind.value
            json.dumps(exported)  # must be JSON-safe as exported
    missing = set(EventKind) - seen
    assert not missing, f"no scenario emits {sorted(k.value for k in missing)}"
