"""Decision audit, counterfactual replay, and regret accounting.

The audit is a *view*: every retrieval's trace records what its decisions
were made on, and every optimizer choice point reads back as a structured
:class:`DecisionRecord` — for any statement, with no switch to turn on
(the unchanged goldens hold that this never perturbs rows, cost or I/O).
EXPLAIN COMPETE replays the rejected strategies on shadow buffer pools,
and the server aggregates every statement's decisions, per-tactic win
rates and the live Figure 2.1/2.2 L-shape. The Section-7-style acceptance
test pins the paper's headline: competition cost well below the rejected
static plan's (ratio <= ~0.6).
"""

import json

import repro
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal as Goal
from repro.engine.initial import InitialArrangement
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.retrieval import PROVEN, Decision, RetrievalResult
from repro.obs.audit import (
    AuditLog,
    DecisionKind,
    DecisionMetrics,
    DecisionRecord,
)
from repro.obs.regret import CompeteReport, replay_strategy, run_compete
from repro.shell import Shell
from repro.sql.executor import RetrievalInfo


def build_orders(db, rows=3000):
    """Section-7-style table: selective customer index vs a full Tscan."""
    from repro.workloads.scenarios import build_multi_index_orders

    return build_multi_index_orders(db, rows=rows)


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


#: on the default 3 000 rows, a range wider than one quantum of leaves: the
#: Jscan race runs (and beats the Tscan it rejects)
SELECTIVE = "select * from ORDERS where CUSTOMER between 110 and 140"
#: a range the Figure 5 descent bounds to one quantum: fetched directly
SHORT = "select * from ORDERS where CUSTOMER between 100 and 120"
UNSELECTIVE = "select * from P where WEIGHT >= 0"


# -- the AuditLog ------------------------------------------------------------


class TestAuditLog:
    def test_decision_scoping_statement_vs_retrieval(self):
        conn = repro.connect(buffer_capacity=128)
        build_parts(conn.db)
        result = conn.execute("select * from P where COLOR = 3")
        audit = AuditLog.of(result.retrievals)
        indexes = [r.retrieval_index for r in audit.records()]
        assert indexes[0] == -1 and set(indexes[1:]) == {0}
        (goal,) = audit.query_decisions
        assert goal.kind is DecisionKind.GOAL_INFERENCE
        assert goal.inputs["table"] == "P"
        selection = audit.retrievals[0].tactic_selection()
        assert selection.chosen == "background-only"
        assert selection.alternatives == ("tscan",)
        assert selection.inputs["basis"] == "raced"

    def test_observe_event_derives_decisions(self):
        trace = RetrievalTrace()
        trace.emit(EventKind.SHORTCUT_SMALL_RANGE, index="IX", rids=3)
        trace.emit(EventKind.STRATEGY_SWITCH, to="tscan", reason="projected")
        trace.emit(EventKind.TSCAN_RECOMMENDED)
        trace.emit(EventKind.INITIAL_ESTIMATE, index="IX", rids=9.0,
                   feedback_rids=4.5)
        trace.emit(EventKind.INITIAL_ESTIMATE, index="IX2", rids=2.0)  # no feedback
        # the tactic selection is ``trace.decision``, not this event
        trace.emit(EventKind.TACTIC_SELECTED, tactic="tscan")
        decided = list(trace.decisions())
        assert [kind for kind, *_ in decided] == [
            DecisionKind.SHORTCUT,
            DecisionKind.STRATEGY_SWITCH,
            DecisionKind.STAGE_TRANSITION,
            DecisionKind.FEEDBACK_APPLICATION,
        ]
        _, chosen, _, inputs = decided[1]
        assert chosen == "tscan" and inputs == {"reason": "projected"}

    def test_to_dict_is_json_safe(self, db):
        table = build_parts(db)
        result = table.select(where=repro.col("COLOR").eq(3))
        exported = AuditLog.of([result]).to_dict()
        json.dumps(exported)
        assert exported["retrievals"][0]["complete"] is True


# -- engine decision capture -------------------------------------------------


class TestEngineCapture:
    def run_audited(self, table, expr, **kwargs):
        result = table.select(where=expr, **kwargs)
        return result, AuditLog.of([result])

    def test_tactic_selection_names_replayable_alternatives(self, db):
        table = build_parts(db)
        _, audit = self.run_audited(
            table, repro.col("COLOR").eq(3), optimize_for=Goal.TOTAL_TIME
        )
        selection = audit.retrievals[0].tactic_selection()
        assert selection.chosen == "background-only"
        assert selection.alternatives == ("tscan",)
        assert selection.inputs["tscan_pages"] == table.heap.page_count
        assert selection.inputs["jscan_candidates"] >= 1

    def test_index_ordering_and_estimates_recorded(self, db):
        table = build_parts(db)
        _, audit = self.run_audited(
            table,
            (repro.col("COLOR").eq(3)) & (repro.col("WEIGHT") < 50),
            optimize_for=Goal.TOTAL_TIME,
        )
        retrieval = audit.retrievals[0]
        ordering = [r for r in retrieval.decisions
                    if r.kind is DecisionKind.INDEX_ORDERING]
        assert len(ordering) == 1
        assert ordering[0].chosen in ("IX_COLOR", "IX_WEIGHT")
        # completed scans contribute estimated-vs-actual pairs
        assert retrieval.estimates
        for _, estimated, actual in retrieval.estimates:
            assert estimated > 0 and actual >= 0

    def test_stage_transition_records_abandon_inputs(self, db):
        table = build_parts(db)
        _, audit = self.run_audited(
            table, repro.col("WEIGHT") >= 0, optimize_for=Goal.TOTAL_TIME
        )
        transitions = [r for r in audit.retrievals[0].decisions
                       if r.kind is DecisionKind.STAGE_TRANSITION
                       and r.chosen.startswith("abandon(")]
        assert transitions
        record = transitions[0]
        assert record.inputs["reason"] in ("projected-cost", "scan-cost")
        assert record.inputs["scanned"] > 0
        assert record.inputs["guaranteed"] > 0

    def test_stage_transition_before_any_projection_records_none(self):
        """A scan-cost abandon can fire before ``MIN_PROJECTION_FRACTION``
        of the index is scanned, when there is no projection yet: the record
        says ``None`` (it used to crash in ``round(None, 2)``)."""
        db = Database(buffer_capacity=64)
        table = db.create_table(
            "T", [("A", "int"), ("B", "int"), ("C", "int")],
            rows_per_page=8, index_order=8,
        )
        for i in range(2000):
            table.insert((i, (i * 7) % 2000, (i * 13) % 2000))
        for column in "ABC":
            table.create_index(f"IX_{column}", [column])
        table.analyze()
        expr = (
            repro.col("A").between(147, 347)
            & repro.col("B").between(861, 1061)
            & repro.col("C").between(393, 1893)
        )
        result, audit = self.run_audited(table, expr)
        abandons = [r.inputs for r in audit.retrievals[0].decisions
                    if r.kind is DecisionKind.STAGE_TRANSITION
                    and r.chosen.startswith("abandon(")]
        early = [inputs for inputs in abandons if inputs["projection"] is None]
        assert early and early[0]["reason"] == "scan-cost"
        assert early[0]["scan_cost"] >= 0.5 * early[0]["guaranteed"] - 0.01
        assert all(
            isinstance(inputs["projection"], float)
            for inputs in abandons if inputs not in early
        )
        json.dumps(audit.to_dict())
        plain = table.select(where=expr)
        assert sorted(result.rows) == sorted(plain.rows)


# -- counterfactual replay ---------------------------------------------------


class TestReplay:
    def test_forced_strategies_run_on_shadow_pool(self, db):
        table = build_orders(db, rows=1500)
        result = table.select(where=repro.col("CUSTOMER").between(100, 120))
        request = AuditLog.of([result]).retrievals[0].request
        hits_before = db.buffer_pool.hits
        misses_before = db.buffer_pool.misses
        chosen = replay_strategy(db, table, request, "background-only", 100_000)
        alt = replay_strategy(db, table, request, "tscan", 100_000)
        assert chosen.failed is None and alt.failed is None
        assert chosen.rows == alt.rows  # both strategies deliver the same set
        assert 0 < chosen.cost < alt.cost
        # the production pool's statistics were never touched
        assert db.buffer_pool.hits == hits_before
        assert db.buffer_pool.misses == misses_before

    def test_unsupported_strategy_fails_as_data_point(self, db):
        table = build_parts(db)
        result = table.select(where=repro.col("WEIGHT") >= 0)
        request = AuditLog.of([result]).retrievals[0].request
        outcome = replay_strategy(db, table, request, "sorted", 100_000)
        assert outcome.failed is not None  # request has no order index
        outcome = replay_strategy(db, table, request, "no-such-tactic", 100_000)
        assert "unknown forced strategy" in outcome.failed

    def test_budget_truncates_hopeless_replays(self, db):
        table = build_orders(db, rows=1500)
        result = table.select(where=repro.col("CUSTOMER").between(100, 120))
        request = AuditLog.of([result]).retrievals[0].request
        outcome = replay_strategy(db, table, request, "tscan",
                                  budget_steps=db.config.batch_size)
        assert outcome.truncated
        full = replay_strategy(db, table, request, "tscan", 1_000_000)
        assert not full.truncated
        assert outcome.cost <= full.cost  # partial cost is a lower bound

    def test_run_compete_annotates_decisions(self, db):
        table = build_orders(db)
        audit = AuditLog.of([table.select(where=repro.col("CUSTOMER").between(110, 140))])
        report = run_compete(db, audit, budget_steps=1_000_000)
        assert report.replays == 2  # chosen + one alternative
        selection = audit.retrievals[0].tactic_selection()
        assert selection.regret is not None
        assert set(selection.counterfactuals) == {"background-only", "tscan"}
        compete = report.retrievals[0]
        assert compete.chosen == "background-only"
        assert compete.advantage < 1.0
        json.dumps(report.to_dict())

    def test_realized_regret_when_optimizer_pays_for_uncertainty(self, db):
        """An unselective predicate: the engine starts a Jscan, abandons it,
        and falls back to Tscan — replaying that choice costs more than the
        clean Tscan it rejected, so realized regret is positive."""
        table = build_parts(db)
        result = table.select(where=repro.col("WEIGHT") >= 0,
                              optimize_for=Goal.TOTAL_TIME)
        report = run_compete(db, AuditLog.of([result]), budget_steps=1_000_000)
        assert report.total_regret > 0
        assert report.retrievals[0].advantage > 1.0


# -- EXPLAIN COMPETE ---------------------------------------------------------


class TestExplainCompete:
    def test_section7_competition_beats_rejected_plan(self):
        """Acceptance gate: on a Section-7-style selective workload the
        chosen strategy's replay cost is <= ~0.6x the rejected plan's."""
        conn = repro.connect(buffer_capacity=128)
        build_orders(conn.db)
        result = conn.execute(f"explain compete {SELECTIVE}")
        report = result.compete
        assert report.replays >= 2
        assert report.advantage is not None and report.advantage <= 0.6
        assert report.competition_cost <= 0.6 * report.rejected_cost
        # per-decision regret is reported in the rendered text
        assert "Competition:" in result.text
        assert "regret" in result.text
        assert "Decisions:" in result.text
        assert "tactic-selection: background-only (over tscan)" in result.text
        # a range one quantum short skips the race; its replay is priced
        # against the race it skipped, which costs exactly the same
        short = conn.execute(f"explain compete {SHORT}")
        assert (
            "tactic-selection: short-range (over background-only, tscan)"
            in short.text
        )
        assert short.compete.replays == 3
        assert short.compete.total_regret == 0.0
        (compete,) = short.compete.retrievals
        assert compete.chosen_outcome.cost == compete.best_alternative.cost

    def test_compete_without_audit_flag(self):
        """EXPLAIN COMPETE needs no flag: it replays the decision log every
        retrieval records."""
        conn = repro.connect(buffer_capacity=128)
        build_parts(conn.db)
        result = conn.execute(f"explain compete {UNSELECTIVE}")
        assert result.compete is not None
        assert result.compete.total_regret > 0
        # ... and the server's decision metrics absorbed the outcome
        decisions = conn.metrics.decisions
        assert decisions.replays == result.compete.replays
        assert decisions.regret_hist.count >= 1

    def test_plain_explain_still_static(self):
        conn = repro.connect(buffer_capacity=128)
        build_parts(conn.db)
        result = conn.execute(f"explain {UNSELECTIVE}")
        assert result.kind == "explain" and result.compete is None
        assert result.rows == [] and result.retrievals == []
        assert "retrieve P" in result.text

    def test_connection_audit_api(self):
        conn = repro.connect(buffer_capacity=128)
        build_orders(conn.db)
        report = conn.audit(SELECTIVE)
        assert report.replays >= 2
        assert report.audit is not None
        assert report.audit.retrievals[0].tactic_selection().counterfactuals
        assert report.advantage < 1.0

    def test_connection_audit_budget_caps_each_replay(self):
        conn = repro.connect(buffer_capacity=128)
        build_orders(conn.db)
        full = conn.audit(SELECTIVE)
        assert full.replays >= 2 and full.truncated == 0
        capped = conn.audit(SELECTIVE, budget_steps=1)
        assert capped.replays == full.replays
        assert capped.truncated == capped.replays
        # the capped statement retired through the server like any other
        assert conn.metrics.decisions.replay_truncated == capped.truncated

    def test_compete_routes_through_plan_cache(self):
        conn = repro.connect(buffer_capacity=128)
        build_orders(conn.db, rows=1500)
        conn.execute(SELECTIVE)
        before = conn.db.plan_cache.hits
        conn.execute(f"explain compete {SELECTIVE}")
        assert conn.db.plan_cache.hits == before + 1


# -- DecisionMetrics ---------------------------------------------------------


class TestDecisionMetrics:
    def test_absorb_counts_kinds_and_tactics(self):
        trace = RetrievalTrace(table="T")
        trace.decision = Decision("sscan", PROVEN, ("tscan",), {"index": "IX"})
        trace.decided_on = (0, Goal.TOTAL_TIME, 10, InitialArrangement())
        trace.estimates.append(("IX", 10.0, 15))
        result = RetrievalResult([], [], trace, "sscan", Goal.TOTAL_TIME)
        metrics = DecisionMetrics()
        metrics.absorb([RetrievalInfo("T", Goal.TOTAL_TIME, result)])
        assert metrics.decisions == {"goal-inference": 1, "tactic-selection": 1}
        assert metrics.decisions[DecisionKind.TACTIC_SELECTION] == 1
        assert metrics.tactic_selected == {"sscan": 1}
        assert metrics.estimate_error_hist.count == 1
        # regret arrives with an EXPLAIN COMPETE's replayed log
        audit = AuditLog.of([result])
        audit.retrievals[0].tactic_selection().regret = 2.5
        metrics.absorb_compete(CompeteReport(audit=audit))
        assert metrics.regret_hist.count == 1 and metrics.regret_hist.sum == 2.5

    def test_win_rate_and_merge(self):
        a = DecisionMetrics()
        a.tactic_wins["sscan"] = 3
        a.tactic_losses["sscan"] = 1
        a.replays = 4
        a.competition_cost = 10.0
        a.rejected_cost = 40.0
        b = DecisionMetrics()
        b.tactic_wins["sscan"] = 1
        b.replays = 1
        b.merge(a)
        assert b.tactic_wins == {"sscan": 4}
        assert b.win_rate("sscan") == 4 / 5
        assert b.win_rate("never-replayed") == 0.0
        assert b.replays == 5
        assert b.competition_ratio == 0.25

    def test_server_aggregates_lshape_unconditionally(self):
        """Every retired retrieval's cost lands in the L-shape histogram,
        audited or not — the live Figure 2.1/2.2 capture."""
        conn = repro.connect(buffer_capacity=128)
        build_parts(conn.db)
        conn.execute("select * from P where COLOR = 3")
        conn.execute(UNSELECTIVE)
        hist = conn.metrics.decisions.retrieval_cost_hist
        assert hist.count == 2
        assert hist.max > hist.p50  # the skew: one cheap, one expensive

    def test_default_config_feeds_server_metrics(self):
        """Every statement's decisions reach the server metrics, with no
        flag set: one tactic selection, and one estimate-error and one
        q-error observation per completed scan's estimate pair."""
        conn = repro.connect(buffer_capacity=128)
        build_parts(conn.db)
        result = conn.execute("select * from P where COLOR = 3")
        decisions = conn.metrics.decisions
        assert decisions.decisions["tactic-selection"] == 1
        assert decisions.decisions[DecisionKind.GOAL_INFERENCE] == 1
        assert decisions.tactic_selected == {"background-only": 1}
        pairs = [
            pair
            for info in result.retrievals
            for pair in info.result.trace.estimates
            if pair[1] > 0
        ]
        assert pairs
        assert (
            decisions.estimate_error_hist.count
            == decisions.qerror_hist.count
            == len(pairs)
        )

    def test_prometheus_exposes_decision_metrics(self):
        conn = repro.connect(buffer_capacity=128)
        build_orders(conn.db)
        conn.execute(f"explain compete {SELECTIVE}")
        payload = conn.metrics.expose_text()
        assert 'repro_audit_decisions_total{kind="tactic-selection"} 1' in payload
        assert 'repro_tactic_selected_total{tactic="background-only"} 1' in payload
        assert 'repro_tactic_wins_total{tactic="background-only"} 1' in payload
        assert "repro_replays_total 2" in payload
        assert "repro_decision_regret_cost_count 1" in payload
        assert "repro_estimate_error_ratio_count" in payload
        assert "repro_retrieval_cost_bucket" in payload
        assert "repro_flight_records_total 0" in payload

    def test_shell_decisions_command(self):
        import io

        out = io.StringIO()
        conn = repro.connect(buffer_capacity=128)
        build_orders(conn.db)
        shell = Shell(conn, out=out)
        shell.feed(f"explain compete {SELECTIVE};")
        shell.feed("\\decisions")
        text = out.getvalue()
        assert "decision metrics:" in text
        assert "tactic background-only: selected 1, replay record 1W-0L" in text
        assert "replays: 2" in text


# -- the flight recorder -----------------------------------------------------


class _ListSink:
    def __init__(self):
        self.records = []
        self.closed = False

    def write(self, record):
        self.records.append(record)

    def close(self):
        self.closed = True


class TestFlightRecorder:
    def test_slow_query_capture(self):
        sink = _ListSink()
        conn = repro.connect(  # everything is "slow"
            buffer_capacity=128, slow_query_ms=0.0001, flight_sink=sink
        )
        build_parts(conn.db)
        conn.execute("select * from P where COLOR = 3")
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["reasons"] == ["slow"]
        assert record["sql"] == "select * from P where COLOR = 3"
        assert record["outcome"] == "done"
        assert record["latency_ms"] > 0
        json.dumps(record)
        assert conn.metrics.flight_records == 1

    def test_regret_capture_carries_spans_and_decisions(self):
        sink = _ListSink()
        conn = repro.connect(
            buffer_capacity=128, regret_threshold=0.001, flight_sink=sink
        )
        build_parts(conn.db)
        conn.execute(UNSELECTIVE)  # no replay, no regret: not captured
        assert sink.records == []
        conn.execute(f"explain compete {UNSELECTIVE}")  # positive regret
        assert len(sink.records) == 1
        record = sink.records[0]
        assert record["reasons"] == ["regret"]
        assert record["spans"]["name"] == "query"
        decisions = record["decisions"]["retrievals"][0]["decisions"]
        assert any(d.get("regret", 0) > 0 for d in decisions)

    def test_no_sink_or_no_threshold_captures_nothing(self):
        sink = _ListSink()
        conn = repro.connect(buffer_capacity=128, flight_sink=sink)
        build_parts(conn.db)
        conn.execute("select * from P where COLOR = 3")
        assert sink.records == []  # thresholds default to 0 = disabled

    def test_connection_close_shuts_down_sinks(self):
        trace_sink = _ListSink()
        flight_sink = _ListSink()
        conn = repro.connect(buffer_capacity=128, trace_sink=trace_sink,
                             flight_sink=flight_sink)
        build_parts(conn.db)
        handle = conn.submit("select * from P where COLOR = 3")
        conn.close()  # in-flight query cancelled, sinks closed
        assert handle.done
        assert trace_sink.closed and flight_sink.closed


# -- lazy input capture ------------------------------------------------------


class TestLazyDecisionRecord:
    """Decision records are built only when something reads the log; a
    record's inputs are the decision's own numbers."""

    def test_owned_inputs_pass_through(self):
        record = DecisionRecord(
            DecisionKind.TACTIC_SELECTION, "jscan", inputs={"a": 1}
        )
        assert record.inputs == {"a": 1}

    def test_no_inputs_is_empty_dict(self):
        record = DecisionRecord(DecisionKind.GOAL_INFERENCE, "total-time")
        assert record.inputs == {}

    def test_to_dict_includes_lazy_inputs(self):
        record = DecisionRecord(
            DecisionKind.SHORTCUT, "empty", inputs={"reason": "contradiction"}
        )
        payload = record.to_dict()
        assert payload["inputs"] == {"reason": "contradiction"}

    def test_observe_event_records_stay_equivalent(self):
        """The event-derived records carry the event's payload minus the
        chosen-value key."""
        trace = RetrievalTrace(table="T")
        trace.emit(
            EventKind.STRATEGY_SWITCH, to="tscan", sunk_cost=2.0, reason="crossover"
        )
        result = RetrievalResult([], [], trace, "", Goal.TOTAL_TIME)
        audit = AuditLog.of([result])
        switches = [
            record
            for retrieval in audit.retrievals
            for record in retrieval.decisions
            if record.kind is DecisionKind.STRATEGY_SWITCH
        ]
        assert switches and switches[-1].chosen == "tscan"
        assert "to" not in switches[-1].inputs
        assert switches[-1].inputs["sunk_cost"] == 2.0
        assert trace.events[0].detail["to"] == "tscan"  # the event is untouched
