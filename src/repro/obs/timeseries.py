"""Continuous time-series monitoring: the engine watching itself run.

The paper's thesis is that an optimizer should *observe its own execution*
and change course; the spans, audit log, and q-error tracker capture
point-in-time snapshots of that self-observation, but none of them has a
time axis — nothing could answer "is p95 latency getting worse?" or "did
estimation quality drift after the data changed?". The
:class:`TimeSeriesRegistry` adds the time dimension: on a configurable
wall-clock interval it snapshots the server's *cumulative* counters
(:class:`~repro.server.metrics.MetricsRegistry` totals, the decision
metrics, the estimator, partition/scatter stats) and diffs consecutive
snapshots into one :class:`WindowStats` per interval — queries/sec,
p50/p95 latency, buffer and plan-cache hit rates, competition skip ratio,
median/p95 q-error, regret mass, queue-wait p95.
Windows live in a fixed ring (``MONITOR_WINDOW`` entries), so always-on
monitoring holds a bounded amount of history.

Sampling is driven from the scheduler's quantum/retire hooks and must be
nearly free: each quantum pays one integer stride check, the wall clock is
consulted only every :attr:`TimeSeriesRegistry.check_every` quanta, and a
full snapshot runs only when the interval has actually elapsed
(``benchmarks/bench_monitor_overhead.py`` gates monitoring-on at <=2%
throughput vs off). The clock is injectable — tests drive a
:class:`SteppingClock` forward manually instead of sleeping.

Interval percentiles come from *bucket deltas*: two cumulative
:class:`~repro.obs.hist.LogHistogram` snapshots diff into the interval's
own histogram, so a window's p95 latency reflects only the queries retired
inside it. The clamp uses the cumulative maximum (the per-interval maximum
is not tracked), which can only round a percentile up to a value some
earlier query actually reached.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Iterable

from repro.obs.hist import BUCKETS, bucket_upper_bound

__all__ = [
    "MetricSample",
    "SteppingClock",
    "TimeSeriesRegistry",
    "WindowStats",
    "delta_percentile",
    "sparkline",
]

#: glyph ramp for :func:`sparkline` (space = no data in that window)
_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

#: ring capacity of retained interval windows (240 x 0.25s = one minute
#: of history for ``\\top`` sparklines and incident bundles)
MONITOR_WINDOW = 240


class SteppingClock:
    """A deterministic monotonic clock for tests and benchmarks.

    Every call advances by ``auto`` (so latency measurements are a count
    of clock consultations, not wall time), and :meth:`advance` jumps the
    clock forward explicitly — the test's replacement for ``time.sleep``.
    """

    def __init__(self, start: float = 0.0, auto: float = 0.0) -> None:
        self.now = start
        self.auto = auto

    def __call__(self) -> float:
        self.now += self.auto
        return self.now

    def advance(self, seconds: float) -> None:
        """Jump the clock forward (the deterministic ``sleep``)."""
        self.now += seconds


def delta_percentile(
    newer: list[int],
    older: list[int] | None,
    fraction: float,
    clamp: float,
) -> float | None:
    """Percentile of the observations recorded *between* two cumulative
    bucket snapshots; None when the interval recorded nothing.

    ``clamp`` bounds the reported value (the cumulative maximum — see the
    module docstring). Negative deltas (a counter reset mid-interval) are
    treated as empty buckets rather than corrupting the total.
    """
    if older is None:
        older = [0] * BUCKETS
    deltas = [max(0, new - old) for new, old in zip(newer, older)]
    total = sum(deltas)
    if total <= 0:
        return None
    threshold = fraction * total
    cumulative = 0
    for index, count in enumerate(deltas):
        cumulative += count
        if cumulative >= threshold and count:
            return min(bucket_upper_bound(index), clamp)
    return clamp  # pragma: no cover - unreachable (cumulative == total)


def _ratio(numerator: float, denominator: float) -> float | None:
    """numerator/denominator, or None when the interval had no traffic."""
    return numerator / denominator if denominator > 0 else None


def sparkline(values: Iterable[float | None], width: int = 32) -> str:
    """Render a series as Unicode block glyphs (newest right).

    ``None`` entries (windows with no data for the series) render as
    spaces; all values are scaled against the series maximum.
    """
    series = list(values)[-width:]
    present = [value for value in series if value is not None]
    if not present:
        return ""
    top = max(present)
    out = []
    for value in series:
        if value is None:
            out.append(" ")
        elif top <= 0:
            out.append(_SPARK_GLYPHS[0])
        else:
            rank = int(value / top * (len(_SPARK_GLYPHS) - 1) + 0.5)
            out.append(_SPARK_GLYPHS[max(0, min(len(_SPARK_GLYPHS) - 1, rank))])
    return "".join(out)


class MetricSample:
    """One cumulative snapshot of every monitored counter.

    Plain data: capturing copies a handful of ints/floats and four
    52-element bucket lists; no engine object is retained, so a sample can
    never keep a table or pool alive.
    """

    __slots__ = (
        "wall",
        "queries_done",
        "queries_cancelled",
        "queries_failed",
        "retrievals",
        "quanta",
        "cache_hits",
        "cache_misses",
        "latency_counts",
        "latency_max",
        "queue_counts",
        "queue_max",
        "plan_hits",
        "plan_misses",
        "qerror_counts",
        "qerror_max",
        "trusted",
        "competed",
        "regret_sum",
        "flight_records",
    )

    def __init__(self, wall: float, metrics: Any) -> None:
        self.wall = wall
        totals = metrics.totals()
        self.queries_done = totals.queries_completed
        self.queries_cancelled = totals.queries_cancelled
        self.queries_failed = totals.queries_failed
        self.retrievals = totals.retrievals
        self.quanta = totals.quanta
        self.cache_hits = totals.cache_hits
        self.cache_misses = totals.cache_misses
        self.latency_counts = list(totals.latency.counts)
        self.latency_max = totals.latency.max
        self.queue_counts = list(totals.queue_wait.counts)
        self.queue_max = totals.queue_wait.max
        cache = metrics.plan_cache
        self.plan_hits = cache.hits if cache is not None else 0
        self.plan_misses = cache.misses if cache is not None else 0
        estimator = metrics.estimator
        if estimator is not None:
            estimator.flush()  # materialize ring-buffered records first
            hist = estimator.qerror_hist
            self.qerror_counts = list(hist.counts)
            self.qerror_max = hist.max
            self.trusted = estimator.trusted
            self.competed = estimator.competed
        else:
            self.qerror_counts = [0] * BUCKETS
            self.qerror_max = 0.0
            self.trusted = 0
            self.competed = 0
        self.regret_sum = metrics.decisions.regret_hist.sum
        self.flight_records = metrics.flight_records


class WindowStats:
    """Per-interval rates derived from two consecutive samples.

    Rate fields are ``None`` when the interval carried no traffic for
    them (no retired query, no pool access, no gate consultation …) —
    downstream consumers (health rules, sparklines, gauges) skip None
    rather than mistaking "no data" for "zero".
    """

    __slots__ = (
        "index",
        "start",
        "end",
        "interval",
        "queries",
        "failures",
        "cancellations",
        "retrievals",
        "quanta",
        "queries_per_sec",
        "p50_latency",
        "p95_latency",
        "cache_hit_rate",
        "plan_cache_hit_rate",
        "competition_skip_ratio",
        "qerror_p50",
        "qerror_p95",
        "qerror_observations",
        "regret_mass",
        "queue_wait_p95",
        "flight_records",
    )

    def __init__(self, index: int, older: MetricSample, newer: MetricSample) -> None:
        self.index = index
        self.start = older.wall
        self.end = newer.wall
        self.interval = max(newer.wall - older.wall, 1e-9)
        self.queries = (
            (newer.queries_done - older.queries_done)
            + (newer.queries_cancelled - older.queries_cancelled)
            + (newer.queries_failed - older.queries_failed)
        )
        self.failures = newer.queries_failed - older.queries_failed
        self.cancellations = newer.queries_cancelled - older.queries_cancelled
        self.retrievals = newer.retrievals - older.retrievals
        self.quanta = newer.quanta - older.quanta
        self.queries_per_sec = self.queries / self.interval
        self.p50_latency = delta_percentile(
            newer.latency_counts, older.latency_counts, 0.50, newer.latency_max
        )
        self.p95_latency = delta_percentile(
            newer.latency_counts, older.latency_counts, 0.95, newer.latency_max
        )
        self.cache_hit_rate = _ratio(
            newer.cache_hits - older.cache_hits,
            (newer.cache_hits - older.cache_hits)
            + (newer.cache_misses - older.cache_misses),
        )
        self.plan_cache_hit_rate = _ratio(
            newer.plan_hits - older.plan_hits,
            (newer.plan_hits - older.plan_hits)
            + (newer.plan_misses - older.plan_misses),
        )
        self.competition_skip_ratio = _ratio(
            newer.trusted - older.trusted,
            (newer.trusted - older.trusted) + (newer.competed - older.competed),
        )
        self.qerror_p50 = delta_percentile(
            newer.qerror_counts, older.qerror_counts, 0.50, newer.qerror_max
        )
        self.qerror_p95 = delta_percentile(
            newer.qerror_counts, older.qerror_counts, 0.95, newer.qerror_max
        )
        self.qerror_observations = max(
            0, sum(newer.qerror_counts) - sum(older.qerror_counts)
        )
        self.regret_mass = max(0.0, newer.regret_sum - older.regret_sum)
        self.queue_wait_p95 = delta_percentile(
            newer.queue_counts, older.queue_counts, 0.95, newer.queue_max
        )
        self.flight_records = newer.flight_records - older.flight_records

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready rendering (incident bundles, exports)."""
        out: dict[str, Any] = {}
        for name in self.__slots__:
            value = getattr(self, name)
            out[name] = round(value, 6) if isinstance(value, float) else value
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WindowStats #{self.index} {self.interval:.3f}s "
            f"queries={self.queries} qps={self.queries_per_sec:.1f}>"
        )


class TimeSeriesRegistry:
    """Ring-buffered interval sampling over one server's metrics.

    Owned by the :class:`~repro.server.scheduler.QueryServer` (created
    when ``config.monitor_interval > 0``). The
    scheduler calls :meth:`tick` once per quantum and per retirement;
    :meth:`note_query` feeds the bounded recent-query ring that incident
    bundles mine for top offenders.
    """

    def __init__(
        self,
        metrics: Any,
        interval: float = 0.25,
        window: int = MONITOR_WINDOW,
        clock: Callable[[], float] = time.perf_counter,
        check_every: int = 32,
    ) -> None:
        self.metrics = metrics
        self.interval = interval
        self.clock = clock
        #: quanta between wall-clock consultations (the per-quantum cost
        #: of monitoring is one integer compare ``check_every - 1`` times
        #: out of ``check_every``)
        self.check_every = max(1, check_every)
        self._ticks = 0
        #: samples taken so far (== windows produced)
        self.samples_taken = 0
        self._windows: deque[WindowStats] = deque(maxlen=max(1, window))
        #: recently retired queries: (sql, session, latency_s, cost)
        self.recent_queries: deque[tuple[str, str, float, float]] = deque(maxlen=64)
        now = clock()
        self._last = MetricSample(now, metrics)
        self._next_due = now + interval

    # -- sampling ------------------------------------------------------------

    def tick(self, force: bool = False) -> WindowStats | None:
        """The scheduler's per-quantum hook: sample iff the interval
        elapsed (``force=True`` samples unconditionally — ``\\top``,
        ``server.health()``, shutdown's final flush)."""
        if not force:
            self._ticks += 1
            if self._ticks < self.check_every:
                return None
            self._ticks = 0
            now = self.clock()
            if now < self._next_due:
                return None
        else:
            now = self.clock()
        return self._sample(now)

    def sample_now(self) -> WindowStats:
        """Take a sample immediately regardless of the interval."""
        return self._sample(self.clock())

    def _sample(self, now: float) -> WindowStats:
        current = MetricSample(now, self.metrics)
        window = WindowStats(self.samples_taken, self._last, current)
        self._last = current
        self.samples_taken += 1
        self._next_due = now + self.interval
        self._windows.append(window)
        return window

    def note_query(
        self, sql: str, session_id: str, latency_s: float, cost: float
    ) -> None:
        """Record one retired query for the incident bundle's offender list."""
        self.recent_queries.append((sql, session_id, latency_s, cost))

    # -- consumers ------------------------------------------------------------

    def windows(self) -> list[WindowStats]:
        """The retained interval windows, oldest first."""
        return list(self._windows)

    def latest(self) -> WindowStats | None:
        """The most recent window (None before the first sample)."""
        return self._windows[-1] if self._windows else None

    def series(self, name: str) -> list[float | None]:
        """One named field across the retained windows, oldest first."""
        return [getattr(window, name) for window in self._windows]

    def top_queries(self, limit: int = 5) -> list[dict[str, Any]]:
        """Slowest recently retired queries (the incident's offenders)."""
        ranked = sorted(self.recent_queries, key=lambda item: -item[2])
        return [
            {
                "sql": sql,
                "session": session_id,
                "latency_ms": round(latency * 1e3, 3),
                "cost": round(cost, 2),
            }
            for sql, session_id, latency, cost in ranked[:limit]
        ]

    # -- rendering -------------------------------------------------------------

    def format_top(self, health: Any | None = None) -> str:
        """The live operator dashboard (shell ``\\top``).

        Pure text over the retained ring — renders identically with or
        without a terminal attached.
        """
        span = len(self._windows)
        header = (
            f"monitor: {self.samples_taken} samples, interval {self.interval}s, "
            f"showing {span}/{self._windows.maxlen} windows"
        )
        lines = [header]
        latest = self.latest()
        if latest is None:
            lines.append("  (no samples yet)")
            return "\n".join(lines)

        def fmt(value: float | None, scale: float = 1.0, pct: bool = False) -> str:
            if value is None:
                return "-"
            if pct:
                return f"{value:.0%}"
            return f"{value * scale:.2f}"

        rows = [
            ("queries/sec", fmt(latest.queries_per_sec), "queries_per_sec"),
            ("p50 latency ms", fmt(latest.p50_latency, 1e3), "p50_latency"),
            ("p95 latency ms", fmt(latest.p95_latency, 1e3), "p95_latency"),
            ("cache hit rate", fmt(latest.cache_hit_rate, pct=True), "cache_hit_rate"),
            (
                "plan-cache hits",
                fmt(latest.plan_cache_hit_rate, pct=True),
                "plan_cache_hit_rate",
            ),
            (
                "competition skips",
                fmt(latest.competition_skip_ratio, pct=True),
                "competition_skip_ratio",
            ),
            ("q-error p50", fmt(latest.qerror_p50), "qerror_p50"),
            ("q-error p95", fmt(latest.qerror_p95), "qerror_p95"),
            ("regret mass", fmt(latest.regret_mass), "regret_mass"),
            ("queue p95 quanta", fmt(latest.queue_wait_p95), "queue_wait_p95"),
        ]
        for label, value, field in rows:
            lines.append(
                f"  {label:<18} {value:>9}  {sparkline(self.series(field))}"
            )
        if health is not None:
            lines.append(f"  health: {health.format_line()}")
        offenders = self.top_queries(3)
        if offenders:
            lines.append("  slowest recent queries:")
            for entry in offenders:
                sql = entry["sql"]
                if len(sql) > 60:
                    sql = sql[:57] + "..."
                lines.append(
                    f"    {entry['latency_ms']:>9.2f}ms  {entry['session']:<8} {sql}"
                )
        return "\n".join(lines)
