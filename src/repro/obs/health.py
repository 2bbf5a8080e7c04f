"""Health evaluation over the monitor's time series: SLOs + drift.

"Adaptive Cardinality Estimation" (PAPERS.md) motivates this layer
directly: learned estimates drift as the data changes, so drift must be
*detected*, not assumed away. Two rule families run over every
:class:`~repro.obs.timeseries.WindowStats` the registry produces:

* :class:`ThresholdRule` — SLO checks against absolute limits set by the
  server's ``slo=`` mapping (window p95 latency, minimum buffer hit rate,
  queue-wait saturation, per-window regret mass; see :data:`SLO_RULES`).
  Breaches are ``critical``.
* :class:`DriftRule` — EWMA-baseline detectors: each window's value
  updates a baseline with ``DRIFT_BASELINE_ALPHA``; a window landing
  ``DRIFT_FACTOR`` away from the baseline (above for q-error, regret,
  and queue wait; below for the hit rates) is a ``warn`` finding. The
  baseline keeps adapting after a breach, so a persistent regime change
  alarms on the transition and then becomes the new normal — drift
  detection is transition detection, exactly the paper's "react to the
  competition in-flight" stance lifted to the time axis.

The :class:`HealthMonitor` aggregates rule findings into a
:class:`HealthReport` per window and, on a *rising edge* (a rule newly
breached), assembles an incident bundle — the recent window ring, the top
offending queries, and the decision-metrics summary — which the scheduler
writes through the existing flight-recorder JSONL path.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

__all__ = [
    "DriftRule",
    "HealthFinding",
    "HealthMonitor",
    "HealthReport",
    "SLO_RULES",
    "ThresholdRule",
]

#: severity ordering for the report's overall status
_SEVERITY_RANK = {"ok": 0, "warn": 1, "critical": 2}

#: a drift detector fires when its series moves this factor away from the
#: EWMA baseline (q-error/regret/queue-wait grow above ``baseline *
#: factor``; hit rates collapse below ``baseline / factor``)
DRIFT_FACTOR = 2.0
#: EWMA weight of the newest window when updating a drift detector's
#: baseline (small = long memory, slow to forgive a regime change)
DRIFT_BASELINE_ALPHA = 0.2

#: the SLO rules an ``slo=`` mapping may arm, by key: (rule name, the
#: window value it reads, which side of the limit breaches, unit). A
#: breach is a critical finding.
SLO_RULES: dict[str, tuple[str, Callable[[Any], float | None], str, str]] = {
    # window p95 latency at or above this many wall milliseconds
    "p95_latency_ms": (
        "slo-p95-latency",
        lambda w: w.p95_latency * 1e3 if w.p95_latency is not None else None,
        "above",
        "ms",
    ),
    # window buffer-pool hit rate below this fraction
    "min_hit_rate": ("slo-hit-rate", lambda w: w.cache_hit_rate, "below", ""),
    # window p95 admission queue wait (scheduling quanta) at or above this
    "max_queue_wait_p95": (
        "slo-queue-wait", lambda w: w.queue_wait_p95, "above", ""
    ),
    # realized regret mass (cost units) within one window at or above this
    "regret_mass": (
        "slo-regret-mass",
        lambda w: w.regret_mass if w.regret_mass > 0 else None,
        "above",
        "",
    ),
}


class HealthFinding:
    """One rule breach: what fired, on what value, against what reference."""

    __slots__ = ("rule", "severity", "value", "reference", "message")

    def __init__(
        self, rule: str, severity: str, value: float, reference: float, message: str
    ) -> None:
        self.rule = rule
        self.severity = severity
        self.value = value
        self.reference = reference
        self.message = message

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "value": round(self.value, 6),
            "reference": round(self.reference, 6),
            "message": self.message,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HealthFinding {self.rule} {self.severity}: {self.message}>"


class HealthReport:
    """The health verdict for one window."""

    def __init__(
        self, findings: list[HealthFinding], window: Any | None = None
    ) -> None:
        self.findings = findings
        self.window = window
        #: set by the monitor when this report's rising-edge breaches
        #: warrant an incident bundle (the scheduler writes it)
        self.incident: dict[str, Any] | None = None

    @property
    def status(self) -> str:
        """``ok``/``warn``/``critical``: the worst finding's severity."""
        worst = "ok"
        for finding in self.findings:
            if _SEVERITY_RANK[finding.severity] > _SEVERITY_RANK[worst]:
                worst = finding.severity
        return worst

    def to_dict(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "findings": [finding.to_dict() for finding in self.findings],
            "window": self.window.to_dict() if self.window is not None else None,
        }

    def format_line(self) -> str:
        """One-line summary (the dashboard's footer)."""
        if not self.findings:
            return "OK"
        return f"{self.status.upper()} — " + "; ".join(
            finding.message for finding in self.findings
        )

    def format(self) -> str:
        """Multi-line rendering (shell ``\\health``)."""
        lines = [f"health: {self.status}"]
        for finding in self.findings:
            lines.append(f"  [{finding.severity}] {finding.rule}: {finding.message}")
        if not self.findings:
            lines.append("  (no findings)")
        return "\n".join(lines)


class ThresholdRule:
    """An SLO check: fire when the series crosses an absolute limit."""

    severity = "critical"

    def __init__(
        self,
        name: str,
        extract: Callable[[Any], float | None],
        threshold: float,
        direction: str = "above",
        unit: str = "",
    ) -> None:
        self.name = name
        self.extract = extract
        self.threshold = threshold
        self.direction = direction
        self.unit = unit

    def evaluate(self, window: Any) -> HealthFinding | None:
        value = self.extract(window)
        if value is None:
            return None
        breached = (
            value >= self.threshold
            if self.direction == "above"
            else value < self.threshold
        )
        if not breached:
            return None
        relation = ">=" if self.direction == "above" else "<"
        return HealthFinding(
            self.name,
            self.severity,
            value,
            self.threshold,
            f"{self.name} {value:.3f}{self.unit} {relation} "
            f"SLO {self.threshold:.3f}{self.unit}",
        )

    observe = evaluate  # threshold rules carry no state to update


class DriftRule:
    """An EWMA-baseline drift detector over one window series.

    ``direction="up"`` fires when the value exceeds ``baseline * factor``
    (q-error, regret, queue wait); ``direction="down"`` fires when it
    falls below ``baseline / factor`` (hit-rate collapse). The first
    ``warmup`` observed windows only feed the baseline. ``floor`` mutes
    breaches whose absolute value is still too small to matter (a q-error
    "tripling" from 1.0 to 1.05 is noise, not drift).
    """

    severity = "warn"

    def __init__(
        self,
        name: str,
        extract: Callable[[Any], float | None],
        factor: float = DRIFT_FACTOR,
        alpha: float = DRIFT_BASELINE_ALPHA,
        warmup: int = 3,
        direction: str = "up",
        floor: float = 0.0,
    ) -> None:
        self.name = name
        self.extract = extract
        self.factor = max(1.0 + 1e-9, factor)
        self.alpha = alpha
        self.warmup = max(1, warmup)
        self.direction = direction
        self.floor = floor
        self.baseline: float | None = None
        #: windows that contributed a value (None windows don't count)
        self.observed = 0
        self.breaches = 0

    def _breach(self, value: float) -> HealthFinding | None:
        assert self.baseline is not None
        if self.direction == "up":
            limit = self.baseline * self.factor
            if value > limit and value > self.floor:
                return HealthFinding(
                    self.name,
                    self.severity,
                    value,
                    self.baseline,
                    f"{self.name} {value:.3f} drifted above "
                    f"{self.factor:.1f}x baseline {self.baseline:.3f}",
                )
        else:
            limit = self.baseline / self.factor
            if value < limit and (self.floor <= 0.0 or value < self.floor):
                return HealthFinding(
                    self.name,
                    self.severity,
                    value,
                    self.baseline,
                    f"{self.name} {value:.3f} collapsed below "
                    f"1/{self.factor:.1f}x baseline {self.baseline:.3f}",
                )
        return None

    def evaluate(self, window: Any) -> HealthFinding | None:
        """Stateless check against the current baseline (``report()``
        peeks without polluting detector state)."""
        value = self.extract(window)
        if value is None or self.baseline is None or self.observed < self.warmup:
            return None
        return self._breach(value)

    def observe(self, window: Any) -> HealthFinding | None:
        """Stateful per-window update: check, then fold the value into
        the EWMA baseline (breaching values too — see the module
        docstring's transition-detection stance)."""
        value = self.extract(window)
        if value is None:
            return None
        finding = None
        if self.baseline is None:
            self.baseline = value
        else:
            if self.observed >= self.warmup:
                finding = self._breach(value)
            self.baseline += self.alpha * (value - self.baseline)
        self.observed += 1
        if finding is not None:
            self.breaches += 1
        return finding


class HealthMonitor:
    """Runs every rule over each sampled window; builds incident bundles.

    ``slo`` arms the SLO rules, one limit per :data:`SLO_RULES` key
    (a missing key or a limit of 0 leaves that rule off); the drift
    detectors always run.
    """

    def __init__(
        self, timeseries: Any, slo: Mapping[str, float] | None = None
    ) -> None:
        self.timeseries = timeseries
        slo = dict(slo or {})
        unknown = sorted(set(slo) - set(SLO_RULES))
        if unknown:
            raise ValueError(
                f"unknown SLO {', '.join(unknown)} "
                f"(expected one of {', '.join(SLO_RULES)})"
            )
        #: the drift detectors, ISSUE order: q-error drift, hit-rate
        #: collapse, regret spikes, queue-wait saturation
        self.drift_rules: list[DriftRule] = [
            DriftRule("qerror-drift", lambda w: w.qerror_p50, floor=1.2),
            DriftRule(
                "hit-rate-collapse", lambda w: w.cache_hit_rate, direction="down"
            ),
            DriftRule("regret-spike", lambda w: w.regret_mass, floor=1.0),
            DriftRule(
                "queue-wait-saturation", lambda w: w.queue_wait_p95, floor=1.0
            ),
        ]
        self.slo_rules: list[ThresholdRule] = [
            ThresholdRule(name, extract, slo[key], direction, unit)
            for key, (name, extract, direction, unit) in SLO_RULES.items()
            if slo.get(key, 0) > 0
        ]
        #: per-rule breach counts (exposed as labeled Prometheus counters)
        self.breaches: dict[str, int] = {}
        #: incident bundles assembled (== flight-recorder incident writes
        #: when a flight sink is attached)
        self.incidents = 0
        #: rules breached in the previous window (rising-edge dedup: a
        #: rule must clear before it can open a new incident)
        self._active: set[str] = set()
        self._last_report: HealthReport | None = None

    # -- evaluation -----------------------------------------------------------

    def observe(self, window: Any) -> HealthReport:
        """Evaluate one freshly sampled window (the scheduler's hook).

        Updates drift baselines and breach counters; on a rising edge,
        attaches an incident bundle to the returned report for the
        scheduler to write through the flight-recorder sink.
        """
        findings: list[HealthFinding] = []
        for rule in self.drift_rules + self.slo_rules:
            finding = rule.observe(window)
            if finding is not None:
                findings.append(finding)
                self.breaches[finding.rule] = self.breaches.get(finding.rule, 0) + 1
        report = HealthReport(findings, window)
        breached_now = {finding.rule for finding in findings}
        new_breaches = breached_now - self._active
        self._active = breached_now
        if new_breaches:
            self.incidents += 1
            report.incident = self._bundle(report, sorted(new_breaches))
        self._last_report = report
        return report

    def report(self) -> HealthReport:
        """The latest verdict without touching detector state.

        Re-evaluates the newest window against current baselines when no
        report exists yet (e.g. ``server.health()`` before any periodic
        sample fired).
        """
        if self._last_report is not None:
            return self._last_report
        window = self.timeseries.latest()
        if window is None:
            return HealthReport([], None)
        findings = [
            finding
            for rule in self.drift_rules + self.slo_rules
            if (finding := rule.evaluate(window)) is not None
        ]
        return HealthReport(findings, window)

    # -- incidents ------------------------------------------------------------

    def _bundle(self, report: HealthReport, new_rules: list[str]) -> dict[str, Any]:
        """The incident record: everything a post-mortem needs, one JSONL
        line through the flight-recorder path."""
        decisions = self.timeseries.metrics.decisions
        return {
            "kind": "incident",
            "rules": new_rules,
            "status": report.status,
            "findings": [finding.to_dict() for finding in report.findings],
            "window": report.window.to_dict() if report.window is not None else None,
            "recent_windows": [
                window.to_dict() for window in self.timeseries.windows()[-12:]
            ],
            "top_queries": self.timeseries.top_queries(),
            "decisions": {
                "counts": {
                    kind.value: count for kind, count in decisions.decisions.items()
                },
                "regret": {
                    "count": decisions.regret_hist.count,
                    "sum": round(decisions.regret_hist.sum, 3),
                    "p95": round(decisions.regret_hist.p95, 3),
                },
                "qerror_p95": round(decisions.qerror_hist.p95, 3),
            },
        }
