"""Server-wide aggregation of dynamic execution metrics.

Every retrieval produces a :class:`~repro.engine.metrics.RetrievalTrace`;
the paper exposes those per-retrieval "dynamic execution metrics" to the
user. Once many sessions run concurrently, the interesting questions become
engine-wide — how many scans did the whole server abandon, how often did
strategies switch, what is each session's cache hit rate under contention —
so the :class:`MetricsRegistry` folds every trace's counters into queryable
totals and per-session breakdowns. The registry is pure accounting: it
never touches the engine, and its totals reconcile exactly with the sum of
the individual traces it recorded (asserted by tests and the concurrency
benchmark).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.engine.metrics import RetrievalCounters, RetrievalTrace
from repro.obs.audit import DecisionMetrics
from repro.obs.export import PrometheusText, _format_labels, _format_value
from repro.obs.health import HealthMonitor
from repro.obs.hist import LogHistogram
from repro.obs.timeseries import TimeSeriesRegistry

#: numeric rendering of a health report's status for the gauge surface
_HEALTH_STATUS_VALUE = {"ok": 0, "warn": 1, "critical": 2}


#: the counter field names, in declaration order
_COUNTER_FIELDS = tuple(spec.name for spec in fields(RetrievalCounters))


def add_counters(into: RetrievalCounters, other: RetrievalCounters) -> None:
    """Fold ``other``'s counters into ``into`` field by field."""
    for name in _COUNTER_FIELDS:
        setattr(into, name, getattr(into, name) + getattr(other, name))


@dataclass
class SessionMetrics:
    """Aggregated metrics of one session (or of the whole server)."""

    session_id: str
    queries_completed: int = 0
    queries_cancelled: int = 0
    queries_failed: int = 0
    #: retrievals whose traces were folded in (a statement may run several)
    retrievals: int = 0
    counters: RetrievalCounters = field(default_factory=RetrievalCounters)
    #: buffer-pool accesses attributed to this session's query steps
    cache_hits: int = 0
    cache_misses: int = 0
    #: scheduling quanta consumed by this session's retired queries; the
    #: :attr:`steps_per_query` histogram's ``sum`` reconciles exactly with it
    quanta: int = 0
    #: wall-clock latency (admission → retirement) per retired query, seconds
    latency: LogHistogram = field(
        default_factory=lambda: LogHistogram("query_latency_seconds")
    )
    #: scheduling quanta spent waiting in the admission queue per query
    queue_wait: LogHistogram = field(
        default_factory=lambda: LogHistogram("queue_wait_quanta")
    )
    #: scheduling quanta executed per retired query
    steps_per_query: LogHistogram = field(
        default_factory=lambda: LogHistogram("steps_per_query")
    )

    @property
    def queries(self) -> int:
        """All queries that reached a terminal state."""
        return self.queries_completed + self.queries_cancelled + self.queries_failed

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of attributed pool accesses served from cache."""
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0

    def count_outcome(self, outcome: str) -> None:
        """Count one query reaching a terminal state
        (``done``/``cancelled``/``failed``)."""
        if outcome == "done":
            self.queries_completed += 1
        elif outcome == "cancelled":
            self.queries_cancelled += 1
        elif outcome == "failed":
            self.queries_failed += 1
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown outcome {outcome!r}")

    def observe_completion(
        self, latency_seconds: float, queue_wait_quanta: int, quanta: int
    ) -> None:
        """Record one retired query's latency/wait/step distributions.

        ``quanta`` is both added to the flat counter and recorded in the
        steps-per-query histogram, so the histogram's ``sum`` reconciles
        exactly with the counter total.
        """
        self.quanta += quanta
        self.latency.record(latency_seconds)
        self.queue_wait.record(queue_wait_quanta)
        self.steps_per_query.record(quanta)

    def merge(self, other: "SessionMetrics") -> None:
        """Fold another session's metrics into this aggregate."""
        self.queries_completed += other.queries_completed
        self.queries_cancelled += other.queries_cancelled
        self.queries_failed += other.queries_failed
        self.retrievals += other.retrievals
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.quanta += other.quanta
        add_counters(self.counters, other.counters)
        self.latency.merge(other.latency)
        self.queue_wait.merge(other.queue_wait)
        self.steps_per_query.merge(other.steps_per_query)

    def snapshot(self) -> "SessionMetrics":
        """An independent deep copy — safe to hold across later queries."""
        copy = SessionMetrics(self.session_id)
        copy.merge(self)
        return copy


class MetricsRegistry:
    """Queryable totals and per-session breakdowns of engine activity.

    ``db`` is the served :class:`~repro.db.session.Database`: its shared
    pool reports read-ahead runs here, and its plan cache, feedback store,
    estimator and partition stats are exposed by every scrape. The
    registry owns the server's continuous monitor — the
    :class:`~repro.obs.timeseries.TimeSeriesRegistry` sampling it on
    ``clock`` and the :class:`~repro.obs.health.HealthMonitor` judging
    each window against the drift rules and the ``slo`` limits.
    """

    def __init__(
        self,
        db: Any | None = None,
        clock: Callable[[], float] = time.perf_counter,
        slo: Mapping[str, float] | None = None,
        sinks: Mapping[str, Any] | None = None,
    ) -> None:
        self._sessions: dict[str, SessionMetrics] = {}
        #: server-wide buffer-pool read-ahead run lengths (pages loaded per
        #: prefetch call); its ``sum`` reconciles with ``pool.prefetched``
        self.fetch_runs = LogHistogram("fetch_run_length")
        #: the database's shared plan cache / feedback store
        self.plan_cache = None
        self.feedback = None
        #: the database's estimation-quality subsystem
        #: (:class:`repro.estimate.Estimator`): q-error/confidence counters
        self.estimator = None
        #: the database's scatter-gather aggregates
        #: (:class:`repro.partition.stats.PartitionStats`)
        self.partitions = None
        if db is not None:
            db.buffer_pool.run_hist = self.fetch_runs
            self.plan_cache = db.plan_cache
            self.feedback = db.feedback
            self.estimator = getattr(db, "estimator", None)
            self.partitions = getattr(db, "partition_stats", None)
        #: server-wide decision accounting: per-kind decision counts,
        #: per-tactic win rates, regret / estimate-error / retrieval-cost
        #: distributions (the live Figure 2.1/2.2 L-shapes)
        self.decisions = DecisionMetrics()
        #: queries captured by the slow-query flight recorder
        self.flight_records = 0
        #: the server's JSONL sinks by role (``trace`` / ``flight``), so
        #: scrapes expose record and rotation counters per sink
        self.sinks: dict[str, Any] = dict(sinks or {})
        #: incident bundles written through the flight-recorder path
        self.incidents = 0
        #: the continuous time series, sampled from the cumulative totals
        #: above (built last: its first sample reads them)
        self.monitor = TimeSeriesRegistry(self, clock=clock)
        #: the health rules over the monitor's windows
        self.health = HealthMonitor(self.monitor, slo)

    def session(self, session_id: str) -> SessionMetrics:
        """The metrics of one session (created on demand)."""
        metrics = self._sessions.get(session_id)
        if metrics is None:
            metrics = self._sessions[session_id] = SessionMetrics(session_id)
        return metrics

    def per_session(self) -> dict[str, SessionMetrics]:
        """Breakdown by session id, as independent deep snapshots.

        Earlier revisions handed out the live mutable objects, so a caller
        holding the dict across later queries silently saw its numbers
        drift. Callers needing the live object use :meth:`session`.
        """
        return self.snapshot()

    def snapshot(self) -> dict[str, SessionMetrics]:
        """Deep point-in-time copies of every session's metrics."""
        return {
            session_id: metrics.snapshot()
            for session_id, metrics in self._sessions.items()
        }

    # -- recording (called by the QueryServer) -----------------------------
    # A retired query is recorded by one record_completion call; a query
    # cancelled before admission, by record_outcome. The server calls
    # neither record_trace nor record_cache; they stay because
    # benchmarks/e2e/layers.py looks all four up by name (ROADMAP item 1).

    def record_trace(self, session_id: str, trace: RetrievalTrace) -> None:
        """Fold one retrieval's counters into the session's aggregate."""
        metrics = self.session(session_id)
        metrics.retrievals += 1
        add_counters(metrics.counters, trace.counters)

    def record_cache(self, session_id: str, hits: int, misses: int) -> None:
        """Credit pool accesses a finished query caused to its session."""
        metrics = self.session(session_id)
        metrics.cache_hits += hits
        metrics.cache_misses += misses

    def record_outcome(self, session_id: str, outcome: str) -> None:
        """Count one query reaching a terminal state
        (``done``/``cancelled``/``failed``)."""
        self.session(session_id).count_outcome(outcome)

    def record_completion(
        self,
        session_id: str,
        outcome: str,
        latency_seconds: float,
        queue_wait_quanta: int,
        quanta: int,
        cache_hits: int = 0,
        cache_misses: int = 0,
        retrievals: Sequence[Any] = (),
        compete: Any | None = None,
        sql: str = "",
    ) -> None:
        """Everything one retired query contributes, in one call with one
        session lookup: its outcome, the pool accesses it caused, its
        latency / queue-wait / quanta distributions, each retrieval's
        counters and realized cost (the live L-shape), its decisions, an
        EXPLAIN COMPETE's replays (``compete``, a
        :class:`~repro.obs.regret.CompeteReport`) and its entry in the
        monitor's recent-query ring. ``retrievals`` are the query's
        :class:`~repro.sql.executor.RetrievalInfo` records.
        """
        metrics = self.session(session_id)
        metrics.count_outcome(outcome)
        metrics.cache_hits += cache_hits
        metrics.cache_misses += cache_misses
        metrics.observe_completion(latency_seconds, queue_wait_quanta, quanta)
        total_cost = 0.0
        for info in retrievals:
            result = info.result
            metrics.retrievals += 1
            add_counters(metrics.counters, result.trace.counters)
            cost = result.total_cost
            self.decisions.observe_cost(cost)
            total_cost += cost
        self.monitor.note_query(sql, session_id, latency_seconds, total_cost)
        self.decisions.absorb(retrievals)
        if compete is not None:
            self.decisions.absorb_compete(compete)

    # -- querying ----------------------------------------------------------

    def totals(self) -> SessionMetrics:
        """Server-wide aggregate across every session (a fresh snapshot)."""
        total = SessionMetrics("<all>")
        for metrics in self._sessions.values():
            total.merge(metrics)
        return total

    def scalar_samples(self) -> Iterator[tuple[str, str, str, dict | None, float]]:
        """Every scalar (non-histogram) sample as
        ``(name, kind, help, labels, value)``, in exposition order.

        The single source of truth shared by :meth:`format` (the shell's
        ``counters:`` block) and :meth:`expose_text` (Prometheus), so the
        two surfaces cannot drift — the parity test diffs them.
        """
        everyone = [self.totals()] + sorted(
            self._sessions.values(), key=lambda m: m.session_id
        )
        for metrics in everyone:
            base = {"session": metrics.session_id}
            for outcome, value in (
                ("done", metrics.queries_completed),
                ("cancelled", metrics.queries_cancelled),
                ("failed", metrics.queries_failed),
            ):
                yield (
                    "queries_total", "counter",
                    "Queries retired, by terminal state.",
                    dict(base, outcome=outcome), value,
                )
            yield (
                "retrievals_total", "counter",
                "Engine retrievals whose traces were recorded.",
                base, metrics.retrievals,
            )
            yield (
                "query_quanta_total", "counter",
                "Scheduling quanta consumed by retired queries.",
                base, metrics.quanta,
            )
            yield (
                "cache_hits_total", "counter",
                "Buffer-pool hits attributed to the session.",
                base, metrics.cache_hits,
            )
            yield (
                "cache_misses_total", "counter",
                "Buffer-pool misses attributed to the session.",
                base, metrics.cache_misses,
            )
            for spec in fields(RetrievalCounters):
                yield (
                    f"engine_{spec.name}_total", "counter",
                    f"Engine counter: {spec.name.replace('_', ' ')}.",
                    base, getattr(metrics.counters, spec.name),
                )
        if self.plan_cache is not None:
            cache = self.plan_cache
            yield (
                "plan_cache_hits_total", "counter",
                "Plan-cache lookups served without parsing.", None, cache.hits,
            )
            yield (
                "plan_cache_misses_total", "counter",
                "Plan-cache lookups that parsed and bound the statement.",
                None, cache.misses,
            )
            yield (
                "plan_cache_evictions_total", "counter",
                "Cached plans dropped by LRU capacity pressure.",
                None, cache.evictions,
            )
            yield (
                "plan_cache_invalidations_total", "counter",
                "Cached plans dropped by DDL schema changes.",
                None, cache.invalidations,
            )
            yield (
                "plan_cache_size", "gauge",
                "Cached plans currently held.", None, cache.size,
            )
            yield (
                "plan_cache_capacity", "gauge",
                "Plan-cache capacity (0 = caching disabled).",
                None, cache.capacity,
            )
        if self.feedback is not None:
            feedback = self.feedback
            yield (
                "feedback_records_total", "counter",
                "Estimated-vs-actual cardinality observations recorded.",
                None, feedback.records,
            )
            yield (
                "feedback_adjustments_total", "counter",
                "Initial estimates sharpened from recorded feedback.",
                None, feedback.adjustments,
            )
            yield (
                "feedback_entries", "gauge",
                "Live (table, index, predicate-signature) feedback entries.",
                None, feedback.size,
            )
            yield (
                "feedback_evictions_total", "counter",
                "Feedback entries dropped by LRU capacity pressure.",
                None, feedback.evictions,
            )
        if self.estimator is not None:
            estimator = self.estimator
            yield (
                "estimator_observations_total", "counter",
                "Q-error observations folded into signature statistics.",
                None, estimator.observations,
            )
            yield (
                "estimator_evictions_total", "counter",
                "Signature statistics dropped by LRU capacity pressure.",
                None, estimator.evictions,
            )
            yield (
                "competitions_skipped_total", "counter",
                "Competitions skipped because estimate confidence cleared "
                "the variance gate.",
                None, estimator.trusted,
            )
            yield (
                "competitions_run_total", "counter",
                "Gate consultations that fell back to running the race.",
                None, estimator.competed,
            )
            yield (
                "estimator_signatures", "gauge",
                "Live (table, index, predicate-signature) q-error entries.",
                None, len(estimator),
            )
        if self.partitions is not None:
            partitions = self.partitions
            yield (
                "partition_scatters_total", "counter",
                "Scatter-gather retrievals executed over partitioned tables.",
                None, partitions.scatters,
            )
            yield (
                "partition_merge_rows_total", "counter",
                "Rows delivered by gather merges (reconciles exactly with "
                "partitioned retrievals' row counts).",
                None, partitions.merge_rows,
            )
            yield (
                "partition_fetches_total", "counter",
                "Per-partition fetches executed by scatters.",
                None, partitions.partitions_fetched,
            )
            yield (
                "partition_pruned_total", "counter",
                "Partitions pruned before fetching (restriction analysis).",
                None, partitions.partitions_pruned,
            )
            yield (
                "partition_ordered_merges_total", "counter",
                "Scatters gathered with an ordered k-way merge.",
                None, partitions.ordered_merges,
            )
        decisions = self.decisions
        for kind, count in sorted(decisions.decisions.items()):
            yield (
                "audit_decisions_total", "counter",
                "Optimizer decisions recorded, by decision kind.",
                {"kind": kind.value}, count,
            )
        for tactic, count in sorted(decisions.tactic_selected.items()):
            yield (
                "tactic_selected_total", "counter",
                "Tactic-selection decisions, by chosen strategy.",
                {"tactic": tactic}, count,
            )
        for tactic, count in sorted(decisions.tactic_wins.items()):
            yield (
                "tactic_wins_total", "counter",
                "Counterfactual replays the chosen tactic won (or tied).",
                {"tactic": tactic}, count,
            )
        for tactic, count in sorted(decisions.tactic_losses.items()):
            yield (
                "tactic_losses_total", "counter",
                "Counterfactual replays a rejected alternative won.",
                {"tactic": tactic}, count,
            )
        yield (
            "replays_total", "counter",
            "Counterfactual strategy replays executed.", None, decisions.replays,
        )
        yield (
            "replay_truncated_total", "counter",
            "Counterfactual replays truncated by the step budget.",
            None, decisions.replay_truncated,
        )
        yield (
            "competition_cost_total", "counter",
            "Summed replayed cost of the chosen strategies.",
            None, decisions.competition_cost,
        )
        yield (
            "rejected_cost_total", "counter",
            "Summed replayed cost of the best rejected alternatives.",
            None, decisions.rejected_cost,
        )
        yield (
            "flight_records_total", "counter",
            "Queries captured by the slow-query flight recorder.",
            None, self.flight_records,
        )
        for role in sorted(self.sinks):
            sink = self.sinks[role]
            if sink is None:
                continue
            yield (
                "sink_records_total", "counter",
                "JSONL records written, by sink role.",
                {"sink": role}, sink.written,
            )
            yield (
                "sink_rotations_total", "counter",
                "Size-capped JSONL sink rotations, by sink role.",
                {"sink": role}, sink.rotations,
            )
        yield (
            "incidents_total", "counter",
            "Incident bundles written through the flight-recorder path.",
            None, self.incidents,
        )
        yield (
            "monitor_samples_total", "counter",
            "Time-series interval samples taken.",
            None, self.monitor.samples_taken,
        )
        latest = self.monitor.latest()
        if latest is not None:
            window_gauges = (
                ("window_queries", latest.queries,
                 "Queries retired in the latest monitor window."),
                ("window_queries_per_sec", latest.queries_per_sec,
                 "Throughput over the latest monitor window."),
                ("window_p50_latency_seconds", latest.p50_latency,
                 "Median query latency over the latest monitor window."),
                ("window_p95_latency_seconds", latest.p95_latency,
                 "P95 query latency over the latest monitor window."),
                ("window_cache_hit_rate", latest.cache_hit_rate,
                 "Buffer-pool hit rate over the latest monitor window."),
                ("window_plan_cache_hit_rate", latest.plan_cache_hit_rate,
                 "Plan-cache hit rate over the latest monitor window."),
                ("window_competition_skip_ratio",
                 latest.competition_skip_ratio,
                 "Variance-gate skip ratio over the latest monitor window."),
                ("window_qerror_p50", latest.qerror_p50,
                 "Median estimation q-error over the latest monitor window."),
                ("window_qerror_p95", latest.qerror_p95,
                 "P95 estimation q-error over the latest monitor window."),
                ("window_regret_mass", latest.regret_mass,
                 "Realized regret accumulated in the latest monitor window."),
                ("window_queue_wait_p95_quanta", latest.queue_wait_p95,
                 "P95 admission queue wait over the latest monitor window."),
            )
            for name, value, help_text in window_gauges:
                if value is None:
                    continue
                yield (name, "gauge", help_text, None, value)
        yield (
            "health_status", "gauge",
            "Current health verdict (0 ok, 1 warn, 2 critical).",
            None, _HEALTH_STATUS_VALUE[self.health.report().status],
        )
        for rule in sorted(self.health.breaches):
            yield (
                "health_rule_breaches_total", "counter",
                "Health-rule breaches observed, by rule.",
                {"rule": rule}, self.health.breaches[rule],
            )

    def format(self) -> str:
        """Multi-line human-readable rendering (shell ``\\metrics``)."""
        lines = []
        for metrics in [self.totals()] + sorted(
            self._sessions.values(), key=lambda m: m.session_id
        ):
            counters = metrics.counters
            lines.append(
                f"{metrics.session_id}: {metrics.queries} queries "
                f"({metrics.queries_completed} done, "
                f"{metrics.queries_cancelled} cancelled, "
                f"{metrics.queries_failed} failed), "
                f"{metrics.retrievals} retrievals, "
                f"{counters.records_fetched} fetched, "
                f"{counters.scans_abandoned} abandons, "
                f"{counters.strategy_switches} switches, "
                f"cache hit rate {metrics.cache_hit_ratio:.0%}"
            )
        if self.plan_cache is not None:
            cache = self.plan_cache
            lines.append(
                f"plan cache: {cache.size}/{cache.capacity} entries, "
                f"{cache.hits} hits, {cache.misses} misses, "
                f"{cache.evictions} evictions, "
                f"{cache.invalidations} invalidations"
            )
        if self.feedback is not None:
            feedback = self.feedback
            lines.append(
                f"feedback: {feedback.size} entries, "
                f"{feedback.records} recorded, "
                f"{feedback.adjustments} adjustments applied, "
                f"{feedback.evictions} evictions"
            )
        if self.estimator is not None:
            estimator = self.estimator
            lines.append(
                f"estimator: {len(estimator)} signatures, "
                f"{estimator.observations} observations, "
                f"{estimator.evictions} evictions, "
                f"gate: {estimator.trusted} trusted / "
                f"{estimator.competed} competed"
            )
        if self.partitions is not None and self.partitions.scatters:
            lines.append(self.partitions.format())
        for role in sorted(self.sinks):
            sink = self.sinks[role]
            if sink is None:
                continue
            lines.append(
                f"{role} sink: {sink.written} records, "
                f"{sink.rotations} rotations"
            )
        lines.append(
            f"monitor: {self.monitor.samples_taken} samples, "
            f"{self.incidents} incidents"
        )
        lines.append(f"health: {self.health.report().status}")
        # every server-wide scalar, rendered with the exact strings the
        # Prometheus exposition uses (per-session duplicates elided) — the
        # parity test diffs this block against expose_text()
        lines.append("counters:")
        for name, _kind, _help, labels, value in self.scalar_samples():
            if labels and labels.get("session") not in (None, "<all>"):
                continue
            lines.append(
                f"  repro_{name}{_format_labels(labels)} {_format_value(value)}"
            )
        return "\n".join(lines)

    def expose_text(self) -> str:
        """The full Prometheus text-format scrape payload.

        Counters are labelled per session; the latency / queue-wait /
        steps-per-query histograms are exposed per session *and* merged
        server-wide (``session="<all>"``) with p50/p95/p99 quantile gauges,
        and the buffer-pool fetch-run-length histogram is server-wide.
        """
        out = PrometheusText()
        for name, kind, help_text, labels, value in self.scalar_samples():
            emit = out.counter if kind == "counter" else out.gauge
            emit(name, value, help_text, labels)
        everyone = [self.totals()] + sorted(
            self._sessions.values(), key=lambda m: m.session_id
        )
        for metrics in everyone:
            base = {"session": metrics.session_id}
            out.histogram(
                "query_latency_seconds", metrics.latency,
                "Wall-clock latency from admission to retirement.", base,
            )
            out.quantiles(
                "query_latency_seconds_quantile", metrics.latency,
                "Query latency percentile (bucket upper bound).", base,
            )
            out.histogram(
                "queue_wait_quanta", metrics.queue_wait,
                "Scheduling quanta spent waiting for admission.", base,
            )
            out.quantiles(
                "queue_wait_quanta_quantile", metrics.queue_wait,
                "Queue wait percentile (bucket upper bound).", base,
            )
            out.histogram(
                "steps_per_query", metrics.steps_per_query,
                "Scheduling quanta executed per retired query.", base,
            )
            out.quantiles(
                "steps_per_query_quantile", metrics.steps_per_query,
                "Steps-per-query percentile (bucket upper bound).", base,
            )
        out.histogram(
            "fetch_run_length", self.fetch_runs,
            "Pages loaded per buffer-pool read-ahead run.",
        )
        if self.partitions is not None:
            partitions = self.partitions
            out.histogram(
                "partition_fetch_rows", partitions.fetch_rows_hist,
                "Rows delivered per partition fetch.",
            )
            out.quantiles(
                "partition_fetch_rows_quantile", partitions.fetch_rows_hist,
                "Partition-fetch row-count percentile (bucket upper bound).",
            )
            out.histogram(
                "partition_fetch_cost", partitions.fetch_cost_hist,
                "Cost (page-I/O units) per partition fetch.",
            )
            out.quantiles(
                "partition_fetch_cost_quantile", partitions.fetch_cost_hist,
                "Partition-fetch cost percentile (bucket upper bound).",
            )
        decisions = self.decisions
        out.histogram(
            "decision_regret_cost", decisions.regret_hist,
            "Realized regret per replayed decision (cost units).",
        )
        out.quantiles(
            "decision_regret_cost_quantile", decisions.regret_hist,
            "Decision-regret percentile (bucket upper bound).",
        )
        out.histogram(
            "estimate_error_ratio", decisions.estimate_error_hist,
            "Observed/estimated cardinality ratio per completed scan.",
        )
        out.quantiles(
            "estimate_error_ratio_quantile", decisions.estimate_error_hist,
            "Estimate-error percentile (bucket upper bound).",
        )
        out.histogram(
            "estimate_qerror", decisions.qerror_hist,
            "Symmetric relative estimation error max(est/act, act/est) "
            "per completed scan.",
        )
        out.quantiles(
            "estimate_qerror_quantile", decisions.qerror_hist,
            "Q-error percentile (bucket upper bound).",
        )
        out.histogram(
            "retrieval_cost", decisions.retrieval_cost_hist,
            "Execution cost per retired retrieval (the Figure 2.1/2.2 "
            "L-shape, from live traffic).",
        )
        out.quantiles(
            "retrieval_cost_quantile", decisions.retrieval_cost_hist,
            "Retrieval-cost percentile (bucket upper bound).",
        )
        return out.render()
