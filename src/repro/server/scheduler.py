"""The multi-query scheduler: N concurrent sessions, one buffer pool.

The paper's Section 3(c) uncertainty — "the pattern of caching the disk
pages is influenced by many asynchronous processes totally unrelated to a
given retrieval" — presumes a server where retrievals never run alone.
:class:`QueryServer` is that server in cooperative form: it admits
statements from many sessions and interleaves their execution over the
*shared* buffer pool. Cache interference between queries therefore emerges
from real concurrent Tscans and Jscans instead of being injected by
``Database.interference_tick``.

The scheduling unit is a *quantum*: one resumption of the query's step
generator, which executes up to ``config.batch_size`` engine steps in a
tight loop before yielding back (inside a quantum, a retrieval's own
foreground/background processes still interleave step by step — batching
changes scheduler granularity, not competition granularity). With the
default ``batch_size=64`` this is ~64× fewer generator suspensions per
query than one-yield-per-step scheduling; setting ``batch_size=1`` in the
engine config restores exact per-step interleaving.

Scheduling lifts Section 3's proportional-speed scheduling of competing
plans (modelled over synthetic processes in ``benchmarks/paper/``) to whole
queries: ``round-robin`` steps admitted queries in rotation, ``weighted``
steps the query with the smallest virtual time ``steps / weight`` where the
weight comes from its optimization goal (fast-first queries are
latency-sensitive browsers, so they get a larger share, mirroring
[Ant91B]'s "proportional speed" rule).

Everything is deterministic: admission is FIFO, tie-breaks use submission
tickets, and no wall clock is consulted — deadlines are budgets of
scheduling quanta. Cancellation closes the query's step generator, which propagates
into the engine as ``GeneratorExit``: active scans are abandoned, spilled
temp structures released, and the trace records ``SCAN_ABANDONED`` /
``CONSUMER_STOPPED``.
"""

from __future__ import annotations

import enum
import itertools
import time
from collections import deque
from typing import Any, Callable, Generator, Mapping

from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.errors import QueryCancelledError, ServerError
from repro.obs.audit import AuditLog
from repro.obs.health import HealthReport
from repro.obs.regret import REPLAY_BUDGET_STEPS
from repro.obs.trace import Span, Tracer, should_sample
from repro.result import Result
from repro.server.metrics import MetricsRegistry
from repro.sql.executor import (
    RetrievalInfo,
    execute_prepared_steps,
    execute_sql_steps,
    explain_kind,
)

#: default virtual-time weights per optimization goal (``weighted`` mode)
DEFAULT_GOAL_WEIGHTS: dict[OptimizationGoal, float] = {
    OptimizationGoal.FAST_FIRST: 2.0,
    OptimizationGoal.TOTAL_TIME: 1.0,
    OptimizationGoal.DEFAULT: 1.0,
}


class QueryState(enum.Enum):
    """Lifecycle of a submitted query."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"
    FAILED = "failed"


#: terminal state -> the outcome label metrics count it under
_OUTCOMES = {
    QueryState.DONE: "done",
    QueryState.CANCELLED: "cancelled",
    QueryState.FAILED: "failed",
}


class QueryHandle:
    """One submitted statement: its state, result, and per-query metrics."""

    def __init__(
        self,
        server: "QueryServer",
        session_id: str,
        sql: str,
        host_vars: Mapping[str, Any] | None,
        goal: OptimizationGoal,
        deadline: int | None,
        ticket: int,
        prepared: Any | None = None,
        replay_budget_steps: int = REPLAY_BUDGET_STEPS,
    ) -> None:
        if deadline is not None and deadline < 1:
            raise ServerError("deadline must be a positive step budget")
        self.server = server
        self.session_id = session_id
        self.sql = sql
        self.host_vars = dict(host_vars or {})
        self.goal = goal
        #: a :class:`repro.cache.CachedPlan` to execute directly, skipping
        #: the front end (set by :class:`repro.cache.PreparedStatement`)
        self.prepared = prepared
        #: engine-step cap of each replay an EXPLAIN COMPETE runs
        self.replay_budget_steps = replay_budget_steps
        #: budget of scheduling quanta (generator resumptions, each up to
        #: ``config.batch_size`` engine steps); exceeding it cancels the query
        self.deadline = deadline
        #: submission order — admission and tie-breaks are FIFO by ticket
        self.ticket = ticket
        self.state = QueryState.QUEUED
        self.cancel_reason: str | None = None
        self.error: BaseException | None = None
        #: scheduling quanta this query has consumed
        self.steps = 0
        #: buffer-pool accesses attributed to this query's steps
        self.cache_hits = 0
        self.cache_misses = 0
        #: per-retrieval info, appended as each retrieval takes its first
        #: step — populated even for queries later cancelled mid-flight
        self.retrievals: list[RetrievalInfo] = []
        #: server step count at which this query was admitted
        self.admitted_at: int | None = None
        #: server step count at submission (queue wait = admitted_at - this)
        self.submitted_at_steps = server.total_steps
        #: wall-clock admission time (latency measurement only — scheduling
        #: decisions never consult the clock)
        self.admitted_wall: float | None = None
        #: span timeline, present when this query was sampled for tracing
        #: (the server's ``trace_sample_rate``) or is an EXPLAIN ANALYZE
        self.tracer: Tracer | None = None
        self._wait_span: Span | None = None
        self._gen: Generator[Any, None, Any] | None = None
        self._result: Result | None = None

    # -- state -------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the query reached a terminal state."""
        return self.state in (QueryState.DONE, QueryState.CANCELLED, QueryState.FAILED)

    @property
    def result(self) -> Result:
        """The query's :class:`~repro.result.Result`; raises if it failed,
        was cancelled, or is still in flight."""
        if self.state is QueryState.FAILED:
            assert self.error is not None
            raise self.error
        if self.state is QueryState.CANCELLED:
            raise QueryCancelledError(
                f"query cancelled ({self.cancel_reason}): {self.sql!r}"
            )
        if self.state is not QueryState.DONE:
            raise ServerError(f"query not finished (state={self.state.value})")
        return self._result

    @property
    def cache_hit_ratio(self) -> float:
        """Per-query buffer-pool hit rate (the benchmark's headline)."""
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0

    def cancel(self, reason: str = "client-cancel") -> None:
        """Cancel the query; a running one abandons its scans mid-step."""
        self.server._cancel(self, reason)

    def wait(self) -> Result:
        """Drive the server until this query finishes; return its result."""
        return self.server.wait(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<QueryHandle #{self.ticket} {self.session_id} "
            f"{self.state.value} steps={self.steps} sql={self.sql[:40]!r}>"
        )


class ServerSession:
    """One client session: a submission identity for metrics and fairness."""

    def __init__(self, server: "QueryServer", session_id: str) -> None:
        self.server = server
        self.session_id = session_id

    def submit(
        self,
        sql: str,
        host_vars: Mapping[str, Any] | None = None,
        goal: OptimizationGoal = OptimizationGoal.DEFAULT,
        deadline: int | None = None,
        prepared: Any | None = None,
    ) -> QueryHandle:
        """Queue a statement for execution; returns immediately."""
        return self.server.submit(
            sql, host_vars, goal=goal, deadline=deadline, session=self,
            prepared=prepared,
        )

    def execute(
        self,
        sql: str,
        host_vars: Mapping[str, Any] | None = None,
        goal: OptimizationGoal = OptimizationGoal.DEFAULT,
        deadline: int | None = None,
    ) -> Result:
        """Submit and run to completion (cooperatively driving the server,
        so other admitted queries make proportional progress too)."""
        return self.submit(sql, host_vars, goal=goal, deadline=deadline).wait()

    def metrics(self):
        """This session's aggregated metrics."""
        return self.server.metrics.session(self.session_id)


class QueryServer:
    """Cooperative multi-query scheduler over one :class:`Database`.

    ``max_concurrency`` bounds how many queries are admitted (RUNNING) at
    once; excess submissions wait in a FIFO queue. ``scheduling`` is
    ``"round-robin"`` or ``"weighted"`` (virtual time by optimization
    goal).
    """

    def __init__(
        self,
        db: Database,
        max_concurrency: int = 4,
        scheduling: str = "round-robin",
        goal_weights: Mapping[OptimizationGoal, float] | None = None,
        trace_sink: Any | None = None,
        flight_sink: Any | None = None,
        clock: Callable[[], float] | None = None,
        trace_sample_rate: float = 0.0,
        slow_query_ms: float = 0.0,
        regret_threshold: float = 0.0,
        slo: Mapping[str, float] | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ServerError("max_concurrency must be >= 1")
        if scheduling not in ("round-robin", "weighted"):
            raise ServerError(
                f"unknown scheduling policy {scheduling!r} "
                "(expected 'round-robin' or 'weighted')"
            )
        self.db = db
        self.max_concurrency = max_concurrency
        self.scheduling = scheduling
        self.goal_weights = dict(goal_weights or DEFAULT_GOAL_WEIGHTS)
        #: monotonic clock for latency / monitoring intervals (injectable —
        #: tests drive a :class:`repro.obs.SteppingClock` instead of
        #: sleeping; scheduling decisions still never consult it)
        self.clock = clock if clock is not None else time.perf_counter
        #: fraction of queries traced with a full span timeline (0.0 = none,
        #: 1.0 = every query), sampled deterministically by ticket (see
        #: :func:`repro.obs.should_sample`); EXPLAIN ANALYZE / COMPETE are
        #: always traced
        self.trace_sample_rate = trace_sample_rate
        #: finished span trees of traced queries go here — anything with
        #: ``write(tree_dict)``, e.g. :class:`repro.obs.JsonlSink`
        self.trace_sink = trace_sink
        #: the flight recorder's sink: a query at least ``slow_query_ms``
        #: wall milliseconds slow, or whose replayed regret (EXPLAIN
        #: COMPETE) reaches ``regret_threshold``, dumps its span tree and
        #: decision log here, and so does every health incident (0 = that
        #: trigger off)
        self.flight_sink = flight_sink
        self.slow_query_ms = slow_query_ms
        self.regret_threshold = regret_threshold
        #: counters, histograms and the always-on monitor; ``slo`` arms the
        #: health monitor's SLO rules (keys in
        #: :data:`repro.obs.health.SLO_RULES`)
        self.metrics = MetricsRegistry(
            db,
            clock=self.clock,
            slo=slo,
            sinks={"trace": trace_sink, "flight": flight_sink},
        )
        #: set once by the first shutdown(); later calls are no-ops, so a
        #: Connection.close() racing an explicit server shutdown (or an
        #: atexit hook) never re-closes the sinks
        self._shutdown = False
        #: total scheduling quanta the server has executed (its logical clock)
        self.total_steps = 0
        self._running: list[QueryHandle] = []
        self._queue: deque[QueryHandle] = deque()
        self._rr = 0
        self._tickets = itertools.count(1)
        self._session_ids = itertools.count(1)

    # -- sessions ----------------------------------------------------------

    def session(self, name: str | None = None) -> ServerSession:
        """Open a session (auto-named ``s<N>`` unless ``name`` is given)."""
        return ServerSession(self, name or f"s{next(self._session_ids)}")

    # -- admission ---------------------------------------------------------

    def submit(
        self,
        sql: str,
        host_vars: Mapping[str, Any] | None = None,
        goal: OptimizationGoal = OptimizationGoal.DEFAULT,
        deadline: int | None = None,
        session: ServerSession | str | None = None,
        prepared: Any | None = None,
        replay_budget_steps: int = REPLAY_BUDGET_STEPS,
    ) -> QueryHandle:
        """Queue one statement; admits it immediately if a slot is free."""
        if isinstance(session, ServerSession):
            session_id = session.session_id
        else:
            session_id = session or "default"
        handle = QueryHandle(
            self, session_id, sql, host_vars, goal, deadline, next(self._tickets),
            prepared=prepared, replay_budget_steps=replay_budget_steps,
        )
        # deterministic sampling by submission ticket; EXPLAIN ANALYZE /
        # COMPETE are always traced (the rendered report *is* the span
        # timeline)
        if (
            should_sample(handle.ticket, self.trace_sample_rate)
            or explain_kind(sql) is not None
        ):
            handle.tracer = Tracer(
                "query",
                clock=self.clock,
                session=session_id,
                ticket=handle.ticket,
                sql=sql,
            )
            handle._wait_span = handle.tracer.open("admission-wait")
        self._queue.append(handle)
        self._admit()
        return handle

    def _admit(self) -> None:
        while self._queue and len(self._running) < self.max_concurrency:
            handle = self._queue.popleft()
            if handle.prepared is not None:
                handle._gen = execute_prepared_steps(
                    self.db,
                    handle.prepared,
                    handle.host_vars,
                    handle.goal,
                    retrievals=handle.retrievals,
                    tracer=handle.tracer,
                )
            else:
                handle._gen = execute_sql_steps(
                    self.db,
                    handle.sql,
                    handle.host_vars,
                    handle.goal,
                    retrievals=handle.retrievals,
                    tracer=handle.tracer,
                    replay_budget_steps=handle.replay_budget_steps,
                )
            handle.state = QueryState.RUNNING
            handle.admitted_at = self.total_steps
            handle.admitted_wall = self.clock()
            if handle._wait_span is not None:
                handle._wait_span.finish(
                    quanta=self.total_steps - handle.submitted_at_steps
                )
            self._running.append(handle)

    # -- the scheduling step ----------------------------------------------

    @property
    def running(self) -> list[QueryHandle]:
        """Currently admitted queries (copy)."""
        return list(self._running)

    @property
    def queued(self) -> list[QueryHandle]:
        """Queries waiting for admission (copy)."""
        return list(self._queue)

    @property
    def idle(self) -> bool:
        """True when nothing is running or queued."""
        return not self._running and not self._queue

    def _weight(self, handle: QueryHandle) -> float:
        return self.goal_weights.get(handle.goal, 1.0)

    def _pick(self) -> QueryHandle:
        if self.scheduling == "weighted":
            return min(
                self._running,
                key=lambda h: (h.steps / self._weight(h), h.ticket),
            )
        if self._rr >= len(self._running):
            self._rr = 0
        return self._running[self._rr]

    def step(self) -> bool:
        """Advance one scheduling quantum of one admitted query.

        A quantum resumes the query's step generator once, running up to
        ``config.batch_size`` engine steps. Returns False when the server is
        idle (nothing to step).
        """
        self._admit()
        if not self._running:
            return False
        handle = self._pick()
        self._step_handle(handle)
        if handle.state is QueryState.RUNNING:
            if self.scheduling == "round-robin":
                self._rr += 1
        elif handle in self._running:
            # deadline cancellation retires inside _step_handle already
            self._retire(handle)
        self._monitor_tick()
        return True

    def _step_handle(self, handle: QueryHandle) -> None:
        pool = self.db.buffer_pool
        stats = pool.stats_for(handle.session_id)
        hits_before, misses_before = stats.hits, stats.misses
        pool.current_owner = handle.session_id
        quantum_span = None
        if handle.tracer is not None and handle.tracer.enabled:
            # scheduler quanta overlap the engine's own span stack, so they
            # attach directly under the root, not under the current span
            quantum_span = handle.tracer.open(
                "quantum", parent=handle.tracer.root, seq=handle.steps
            )
        assert handle._gen is not None
        try:
            next(handle._gen)
        except StopIteration as stop:
            handle._result = stop.value
            handle.state = QueryState.DONE
        except Exception as error:  # noqa: BLE001 - failure belongs to the handle
            handle.error = error
            handle.state = QueryState.FAILED
        else:
            handle.steps += 1
            self.total_steps += 1
        finally:
            pool.current_owner = None
            hits = stats.hits - hits_before
            misses = stats.misses - misses_before
            handle.cache_hits += hits
            handle.cache_misses += misses
            if quantum_span is not None:
                quantum_span.finish(hits=hits, misses=misses)
        if handle.state is QueryState.RUNNING and (
            handle.deadline is not None and handle.steps >= handle.deadline
        ):
            self._cancel(handle, reason="deadline")

    def _retire(self, handle: QueryHandle) -> None:
        """Remove a terminal handle from the run list and record metrics."""
        index = self._running.index(handle)
        self._running.pop(index)
        if index < self._rr:
            self._rr -= 1
        outcome = _OUTCOMES[handle.state]
        assert handle.admitted_at is not None and handle.admitted_wall is not None
        latency = self.clock() - handle.admitted_wall
        result = handle._result
        compete = result.compete if result is not None else None
        self.metrics.record_completion(
            handle.session_id,
            outcome,
            latency,
            handle.admitted_at - handle.submitted_at_steps,
            handle.steps,
            cache_hits=handle.cache_hits,
            cache_misses=handle.cache_misses,
            retrievals=handle.retrievals,
            compete=compete,
            sql=handle.sql,
        )
        if handle.tracer is not None and handle.tracer.enabled:
            handle.tracer.finish(outcome=outcome, quanta=handle.steps)
            if self.trace_sink is not None:
                self.trace_sink.write(handle.tracer.to_dict())
        self._maybe_flight_record(handle, compete, outcome, latency)
        self._admit()

    def _maybe_flight_record(
        self,
        handle: QueryHandle,
        compete: Any,
        outcome: str,
        latency: float,
    ) -> None:
        """The slow-query flight recorder: one JSONL record per capture.

        Triggers on wall latency (``slow_query_ms``) or realized
        regret (``regret_threshold`` — populated by EXPLAIN
        COMPETE's replays, so regret captures fire for competed
        statements). The record carries everything a post-mortem needs:
        the full span tree and the decision log (the replayed one, regret
        and counterfactuals included, for an EXPLAIN COMPETE).
        """
        if self.flight_sink is None:
            return
        latency_ms = latency * 1e3
        reasons = []
        if self.slow_query_ms > 0 and latency_ms >= self.slow_query_ms:
            reasons.append("slow")
        if (
            self.regret_threshold > 0
            and compete is not None
            and compete.audit.max_regret() >= self.regret_threshold
        ):
            reasons.append("regret")
        if not reasons:
            return
        audit = compete.audit if compete is not None else AuditLog.of(handle.retrievals)
        self.metrics.flight_records += 1
        self.flight_sink.write(
            {
                "sql": handle.sql,
                "session": handle.session_id,
                "ticket": handle.ticket,
                "outcome": outcome,
                "latency_ms": round(latency_ms, 3),
                "reasons": reasons,
                "spans": (
                    handle.tracer.to_dict() if handle.tracer is not None else None
                ),
                "decisions": audit.to_dict(),
            }
        )

    # -- continuous monitoring ---------------------------------------------

    def _monitor_tick(self, force: bool = False) -> HealthReport | None:
        """Advance the monitor: sample if due (or forced), run the health
        rules on the new window, and write any incident bundle through the
        flight-recorder sink. The single path shared by the per-quantum
        hook, ``health()``, and shutdown's final flush."""
        window = self.metrics.monitor.tick(force=force)
        if window is None:
            return None
        report = self.metrics.health.observe(window)
        if report.incident is not None and self.flight_sink is not None:
            self.metrics.incidents += 1
            self.flight_sink.write(report.incident)
        return report

    def health(self) -> HealthReport:
        """Sample the monitor now and return the current health verdict."""
        report = self._monitor_tick(force=True)
        assert report is not None
        return report

    def shutdown(self) -> None:
        """Cancel everything in flight and flush/close the sinks.

        In-flight queries unwind through ``GeneratorExit`` (scans
        abandoned, temp pages released, pins dropped) and their partial
        traces are retired — then the sinks close, so no record is lost
        to an unflushed buffer. Idempotent: only the first call does any of
        this; later calls (a ``Connection.close()`` after an explicit
        shutdown, an atexit hook) return immediately rather than
        re-closing the sinks.
        """
        if self._shutdown:
            return
        self._shutdown = True
        for handle in list(self._queue) + list(self._running):
            self._cancel(handle, reason="server-shutdown")
        # final monitor flush while the flight sink is still open: the
        # last partial window is sampled and any incident it raises lands
        # in the sink before it closes
        self._monitor_tick(force=True)
        for sink in (self.trace_sink, self.flight_sink):
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # -- cancellation ------------------------------------------------------

    def _cancel(self, handle: QueryHandle, reason: str) -> None:
        if handle.done:
            return
        if handle.state is QueryState.QUEUED:
            self._queue.remove(handle)
            handle.state = QueryState.CANCELLED
            handle.cancel_reason = reason
            self.metrics.record_outcome(handle.session_id, "cancelled")
            self._admit()
            return
        # running: closing the generator raises GeneratorExit at the engine's
        # current yield point — scans are abandoned, temp structures released
        assert handle._gen is not None
        handle._gen.close()
        handle.state = QueryState.CANCELLED
        handle.cancel_reason = reason
        if handle in self._running:
            self._retire(handle)

    def cancel_session(self, session_id: str, reason: str = "session-closed") -> int:
        """Cancel every queued/running query of one session."""
        victims = [
            handle
            for handle in list(self._queue) + list(self._running)
            if handle.session_id == session_id
        ]
        for handle in victims:
            self._cancel(handle, reason)
        return len(victims)

    # -- driving -----------------------------------------------------------

    def run_until_idle(self, max_steps: int = 50_000_000) -> int:
        """Step until no query is running or queued; returns steps taken."""
        steps = 0
        while self.step():
            steps += 1
            if steps > max_steps:
                raise ServerError("run_until_idle exceeded max_steps — runaway query?")
        return steps

    def wait(self, handle: QueryHandle, max_steps: int = 50_000_000) -> Result:
        """Step the server until ``handle`` finishes; return its result.

        Other admitted queries keep making proportional progress while the
        caller waits — this is the cooperative equivalent of blocking.
        """
        steps = 0
        while not handle.done:
            if not self.step():
                raise ServerError("server went idle before the query finished")
            steps += 1
            if steps > max_steps:
                raise ServerError("wait exceeded max_steps — runaway query?")
        return handle.result
