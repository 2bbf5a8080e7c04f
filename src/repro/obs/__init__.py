"""Observability: span tracing, log2 histograms, metrics exposition.

The paper notes that its "dynamic execution metrics have been available to
the user community since version 4.0" — observability of the competition's
decisions is part of the artifact. This package provides the three
surfaces layered on top of the flat per-retrieval counters:

* :mod:`repro.obs.trace` — the span timeline (query → retrieval → tactic →
  scan / final-stage / strategy-switch), its JSON export, sampling, and the
  :class:`JsonlSink`;
* :mod:`repro.obs.hist` — fixed-bucket log2 histograms with exact sums and
  p50/p95/p99 accessors;
* :mod:`repro.obs.export` — Prometheus-text-format rendering used by
  :meth:`repro.server.MetricsRegistry.expose_text`;
* :mod:`repro.obs.explain` — the EXPLAIN ANALYZE report combining plan,
  estimate-vs-actual, and the span tree;
* :mod:`repro.obs.audit` — structured decision records (what the optimizer
  chose, over what, and why), read off every retrieval's trace, and their
  server-wide aggregation (:class:`DecisionMetrics`);
* :mod:`repro.obs.regret` — counterfactual replay of rejected strategies
  on shadow buffer pools, turning decisions into realized regret
  (``EXPLAIN COMPETE`` / ``Connection.audit()``);
* :mod:`repro.obs.timeseries` — continuous interval sampling of the
  server's metrics into ring-buffered :class:`WindowStats` (the ``\\top``
  dashboard's data);
* :mod:`repro.obs.health` — SLO and EWMA-drift rules over those windows,
  producing :class:`HealthReport` verdicts and flight-recorder incident
  bundles.
"""

from repro.obs.audit import (
    AuditLog,
    DecisionKind,
    DecisionMetrics,
    DecisionRecord,
    RetrievalAudit,
)
from repro.obs.health import (
    DriftRule,
    HealthFinding,
    HealthMonitor,
    HealthReport,
    ThresholdRule,
)
from repro.obs.hist import LogHistogram
from repro.obs.timeseries import (
    MetricSample,
    SteppingClock,
    TimeSeriesRegistry,
    WindowStats,
    delta_percentile,
    sparkline,
)
from repro.obs.regret import (
    CompeteReport,
    ReplayOutcome,
    RetrievalCompete,
    replay_strategy,
    run_compete,
)
from repro.obs.trace import (
    NULL_TRACER,
    JsonlSink,
    NullTracer,
    Span,
    Tracer,
    should_sample,
)

__all__ = [
    "AuditLog",
    "CompeteReport",
    "DecisionKind",
    "DecisionMetrics",
    "DecisionRecord",
    "DriftRule",
    "HealthFinding",
    "HealthMonitor",
    "HealthReport",
    "JsonlSink",
    "LogHistogram",
    "MetricSample",
    "NULL_TRACER",
    "NullTracer",
    "ReplayOutcome",
    "RetrievalAudit",
    "RetrievalCompete",
    "Span",
    "SteppingClock",
    "ThresholdRule",
    "TimeSeriesRegistry",
    "Tracer",
    "WindowStats",
    "delta_percentile",
    "should_sample",
    "sparkline",
    "replay_strategy",
    "run_compete",
]
