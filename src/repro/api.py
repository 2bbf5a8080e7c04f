"""The connection API: ``repro.connect()``.

The one way to run a statement: a :class:`Connection` owns a
:class:`~repro.db.session.Database` and fronts it with a
:class:`~repro.server.QueryServer`, so *every* statement — including the
single-user ones — runs through the multi-query scheduler. With one
session and no concurrent work the step sequence is identical to direct
execution; open more sessions and their queries interleave over the shared
buffer pool, which is where the paper's Section 3(c) cache uncertainty
comes from.

Quick start::

    import repro

    conn = repro.connect(buffer_capacity=128)
    conn.execute("create table T (ID int, AGE int)")
    result = conn.execute("select * from T where AGE >= :A1",
                          {"A1": 60}, goal=repro.OptimizationGoal.FAST_FIRST)
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.obs.regret import REPLAY_BUDGET_STEPS
from repro.result import Result
from repro.server.scheduler import QueryHandle, QueryServer, ServerSession


class Connection:
    """A client connection: one database, one scheduler, many sessions.

    The connection's own :meth:`execute`/:meth:`explain` run on a default
    session named ``"main"``; :meth:`session` opens further concurrent
    sessions that share the buffer pool and compete for engine steps.
    ``server_options`` are :class:`~repro.server.QueryServer`'s (see
    :func:`connect`).
    """

    def __init__(self, db: Database, **server_options: Any) -> None:
        self.db = db
        self.server = QueryServer(db, **server_options)
        self._main = self.server.session("main")
        self._closed = False

    # -- statements --------------------------------------------------------

    def execute(
        self,
        sql: str,
        host_vars: Mapping[str, Any] | None = None,
        goal: OptimizationGoal = OptimizationGoal.DEFAULT,
        deadline: int | None = None,
    ) -> Result:
        """Run one statement to completion through the scheduler.

        Returns the :class:`~repro.result.Result` — ``rows``, ``columns``,
        ``rowcount``, ``plan``, ``metrics`` regardless of the statement
        kind. ``deadline`` is a budget of scheduling quanta (each up to
        ``config.batch_size`` engine steps); exceeding it cancels the
        query and raises :class:`~repro.errors.QueryCancelledError`.
        """
        self._check_open()
        return self._main.execute(sql, host_vars, goal=goal, deadline=deadline)

    def submit(
        self,
        sql: str,
        host_vars: Mapping[str, Any] | None = None,
        goal: OptimizationGoal = OptimizationGoal.DEFAULT,
        deadline: int | None = None,
    ) -> QueryHandle:
        """Queue a statement without driving it; pair with ``handle.wait()``
        or ``connection.server.run_until_idle()``."""
        self._check_open()
        return self._main.submit(sql, host_vars, goal=goal, deadline=deadline)

    def prepare(self, sql: str) -> "PreparedStatement":
        """Parse and bind a SELECT once; returns a reusable
        :class:`~repro.cache.PreparedStatement`.

        Use ``?`` placeholders (bound positionally) or ``:name`` host
        variables (bound by mapping)::

            stmt = conn.prepare("select * from T where AGE >= ?")
            young = stmt.execute([30])
            old = stmt.execute([60])

        The compiled plan lives in the server-wide plan cache (when
        enabled), shared with every session and with ad-hoc executions of
        the same normalized SQL; DDL invalidates it and the next execution
        transparently re-prepares (or fails safe with a binding error).
        """
        self._check_open()
        from repro.cache.prepared import PreparedStatement

        return PreparedStatement(self._main, sql)

    def explain(
        self,
        sql: str,
        host_vars: Mapping[str, Any] | None = None,
        analyze: bool = False,
    ) -> Result:
        """Render the logical plan with inferred per-retrieval goals.

        Returns a :class:`~repro.result.Result` of kind ``"explain"`` whose
        ``text`` carries the report (``str(result)`` gives the same) — the
        API form of ``EXPLAIN <sql>``. With ``analyze=True`` the statement
        is *executed* under a forced tracer and the plan is rendered next
        to the recorded span timeline (actual rows, fetches, switches,
        abandons, per-strategy time) — ``EXPLAIN ANALYZE <sql>``.
        """
        self._check_open()
        verb = "explain analyze" if analyze else "explain"
        return self._main.execute(f"{verb} {sql}", host_vars)

    def audit(
        self,
        sql: str,
        host_vars: Mapping[str, Any] | None = None,
        budget_steps: int = REPLAY_BUDGET_STEPS,
    ):
        """Execute one SELECT and counterfactually replay the strategies
        its decision log rejected — the API form of
        ``EXPLAIN COMPETE <sql>``.

        Returns the :class:`~repro.obs.regret.CompeteReport`: per-decision
        realized regret, per-retrieval chosen-vs-rejected replay costs, and
        the statement's complete decision log (``report.audit``). Replays
        run on shadow buffer pools, off the scheduler's hot path, each
        capped at ``budget_steps`` engine steps (a truncated replay's cost
        is a lower bound; 0 = unbounded).
        """
        self._check_open()
        handle = self.server.submit(
            f"explain compete {sql}", host_vars, session=self._main,
            replay_budget_steps=budget_steps,
        )
        return handle.wait().compete

    # -- sessions & metrics ------------------------------------------------

    def session(self, name: str | None = None) -> ServerSession:
        """Open an additional concurrent session on this connection."""
        self._check_open()
        return self.server.session(name)

    @property
    def metrics(self):
        """The server-wide :class:`~repro.server.MetricsRegistry`."""
        return self.server.metrics

    def health(self):
        """Sample the continuous monitor now and return the current
        :class:`~repro.obs.health.HealthReport` (status, findings, latest
        window). Monitoring is always on: the server samples its metrics
        every 0.25 s of its clock, and the drift rules plus any SLO armed
        by ``connect(slo=...)`` judge each window."""
        self._check_open()
        return self.server.health()

    # -- catalog passthroughs ----------------------------------------------

    def table(self, name: str):
        """Look up a table by name (catalog passthrough)."""
        return self.db.table(name)

    def create_table(self, name: str, columns, **kwargs):
        """Create a table (catalog passthrough)."""
        return self.db.create_table(name, columns, **kwargs)

    def drop_table(self, name: str) -> None:
        """Drop a table, releasing its cached and on-disk pages."""
        self.db.drop_table(name)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Cancel any in-flight queries, flush and close the trace/flight
        sinks, and refuse further statements."""
        if self._closed:
            return
        self.server.shutdown()
        self._closed = True

    def _check_open(self) -> None:
        if self._closed:
            from repro.errors import ServerError

            raise ServerError("connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    buffer_capacity: int = 256,
    config: EngineConfig = DEFAULT_CONFIG,
    max_concurrency: int = 4,
    scheduling: str = "round-robin",
    db: Database | None = None,
    trace_sink: Any | None = None,
    flight_sink: Any | None = None,
    clock: Any | None = None,
    trace_sample_rate: float = 0.0,
    slow_query_ms: float = 0.0,
    regret_threshold: float = 0.0,
    slo: Mapping[str, float] | None = None,
) -> Connection:
    """Open a :class:`Connection` — the package's front door.

    Creates a fresh in-memory :class:`~repro.db.session.Database` (or wraps
    the one passed via ``db``) and fronts it with a multi-query scheduler.
    ``config`` tunes the engine; the other arguments set up the server and
    its telemetry:

    * ``max_concurrency`` bounds the admitted statements; ``scheduling``
      is ``"round-robin"`` or ``"weighted"``.
    * ``trace_sink`` receives the finished span tree of every traced query
      (anything with ``write(tree_dict)``, e.g. :class:`repro.obs.JsonlSink`).
      A query is traced when ``trace_sample_rate`` (0.0 = none, 1.0 = all,
      sampled deterministically by submission ticket) picks it, and always
      under EXPLAIN ANALYZE / COMPETE.
    * ``flight_sink`` receives the flight recorder's captures — one record
      (span tree + decision log) per query at least ``slow_query_ms`` wall
      milliseconds slow or whose replayed regret reaches
      ``regret_threshold`` (0 turns either trigger off) — plus the health
      monitor's incident bundles.
    * ``slo`` arms the health monitor's SLO rules, e.g.
      ``{"p95_latency_ms": 50, "min_hit_rate": 0.8}``; the keys are
      :data:`repro.obs.health.SLO_RULES`'s (``p95_latency_ms``,
      ``min_hit_rate``, ``max_queue_wait_p95``, ``regret_mass``).
    * ``clock`` injects a monotonic clock (default ``time.perf_counter``)
      for latency measurement and monitor intervals — tests pass a
      :class:`repro.obs.SteppingClock` to make time-dependent behaviour
      deterministic.
    """
    if db is None:
        db = Database(buffer_capacity=buffer_capacity, config=config)
    return Connection(
        db,
        max_concurrency=max_concurrency,
        scheduling=scheduling,
        trace_sink=trace_sink,
        flight_sink=flight_sink,
        clock=clock,
        trace_sample_rate=trace_sample_rate,
        slow_query_ms=slow_query_ms,
        regret_threshold=regret_threshold,
        slo=slo,
    )
