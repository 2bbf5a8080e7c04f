"""Q-error tracking and estimate-confidence scoring.

The competition model of the paper pays a pilot race on every retrieval
because descent estimates (Section 5) are untrusted. This module measures
how untrusted they actually are: every retired retrieval records the
q-error ``max(est/actual, actual/est)`` of its *effective* (feedback-
corrected) estimate, keyed by (table, index, predicate signature). Once a
signature's q-errors are consistently near 1 — high observation count,
mean log-q near zero, low variance — the estimate is demonstrably
trustworthy and the engine may skip the race entirely (the variance gate
of "Least Expected Cost Query Optimization": weigh plan choice by
estimate *uncertainty*, not just estimate value).

Hot-path discipline: :meth:`Estimator.record` appends a preallocated-ring
tuple and returns — no dict construction, no signature hashing, no float
math. Signatures, q-errors, and histogram refinement are all deferred to
:meth:`Estimator._drain`, which runs when a consumer (the confidence gate,
the shell, metrics export) actually looks, or when the ring fills.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator

from repro.cache.feedback import FEEDBACK_ALPHA, predicate_signature
from repro.estimate.histogram import SelfTuningHistogram
from repro.obs.hist import LogHistogram

__all__ = [
    "q_error",
    "SignatureStats",
    "ConfidenceVerdict",
    "Estimator",
]

#: LRU capacity of the per-signature q-error map
ESTIMATOR_CAPACITY = 1024
#: bucket budget of each per-(table, index) self-tuning histogram;
#: refinement splits the worst-q-error bucket and merges cold neighbors to
#: stay within it
HISTOGRAM_BUDGET = 32
#: confidence score in [0, 1] a signature must reach before its estimate is
#: trusted without a race (from the EWMA mean and variance of ln(q-error)
#: plus the observation count)
COMPETITION_CONFIDENCE = 0.75
#: minimum observations of a signature before the gate may trust it — below
#: this, compete regardless of how accurate the estimates look
CONFIDENCE_MIN_OBSERVATIONS = 4


def q_error(estimated: float, actual: float) -> float:
    """The symmetric relative estimation error, floored at 1.0.

    ``q = max(est/actual, actual/est)`` with both sides floored at one
    row, so a perfect estimate scores 1.0 and an estimate off by 10x in
    either direction scores 10.0.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return est / act if est >= act else act / est


class SignatureStats:
    """Running q-error statistics for one (table, index, signature).

    Tracks an EWMA mean/variance of ``ln q`` rather than Welford totals:
    a regime change (data drift, stale correction) *decays* confidence
    instead of being averaged away by a long accurate history.
    """

    __slots__ = ("count", "mean_log_q", "var_log_q", "max_q", "hist")

    def __init__(self) -> None:
        self.count = 0
        #: EWMA of ln(q) — 0.0 means perfect estimates
        self.mean_log_q = 0.0
        #: EWMA variance of ln(q) — instability of the error
        self.var_log_q = 0.0
        self.max_q = 1.0
        self.hist = LogHistogram("qerror")

    def observe(self, q: float, alpha: float) -> None:
        log_q = math.log(q)
        if self.count == 0:
            self.mean_log_q = log_q
            self.var_log_q = 0.0
        else:
            delta = log_q - self.mean_log_q
            self.mean_log_q += alpha * delta
            self.var_log_q = (1.0 - alpha) * (self.var_log_q + alpha * delta * delta)
        self.count += 1
        if q > self.max_q:
            self.max_q = q
        self.hist.record(q)

    @property
    def p95(self) -> float:
        return self.hist.p95

    def confidence(self, min_observations: int) -> float:
        """Score in [0, 1]: how much to trust this signature's estimates.

        Three multiplicative factors — evidence (observation count against
        the configured minimum), accuracy (mean log-q near zero), and
        stability (low log-q variance). A cold signature scores near 0; a
        signature whose corrected estimates repeatedly land within a few
        percent of the truth approaches 1.
        """
        evidence = min(1.0, self.count / max(1, min_observations))
        return evidence * math.exp(-(self.mean_log_q + self.var_log_q))

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "mean_log_q": round(self.mean_log_q, 4),
            "var_log_q": round(self.var_log_q, 4),
            "max_q": round(self.max_q, 3),
            "p95_q": round(self.p95, 3),
        }


@dataclass(frozen=True)
class ConfidenceVerdict:
    """One gate consultation: the score, its inputs, and the decision."""

    trust: bool
    score: float
    count: int
    mean_log_q: float
    var_log_q: float
    threshold: float

    def inputs(self) -> dict[str, Any]:
        """Audit payload — the confidence inputs the decision was made on."""
        return {
            "confidence": round(self.score, 4),
            "observations": self.count,
            "mean_log_q": round(self.mean_log_q, 4),
            "var_log_q": round(self.var_log_q, 4),
            "threshold": self.threshold,
        }


#: cold-signature verdict: never trust, zero evidence
_COLD = ConfidenceVerdict(
    trust=False, score=0.0, count=0, mean_log_q=0.0, var_log_q=0.0, threshold=1.0
)


class Estimator:
    """The estimation-quality subsystem for one database.

    Owns per-(table, index, predicate-signature) :class:`SignatureStats`
    under LRU discipline, one :class:`SelfTuningHistogram` per
    (table, index) refined from observed scan feedback, and the
    ring-buffered capture path that keeps retirement-time recording off
    the hot path.
    """

    def __init__(
        self,
        capacity: int = ESTIMATOR_CAPACITY,
        histogram_budget: int = HISTOGRAM_BUDGET,
        alpha: float = FEEDBACK_ALPHA,
        min_observations: int = CONFIDENCE_MIN_OBSERVATIONS,
        confidence_threshold: float = COMPETITION_CONFIDENCE,
        ring_size: int = 256,
    ) -> None:
        self.capacity = max(1, capacity)
        self.histogram_budget = histogram_budget
        self.alpha = alpha
        self.min_observations = max(1, min_observations)
        self.confidence_threshold = confidence_threshold
        self._stats: OrderedDict[tuple[str, str, str], SignatureStats] = OrderedDict()
        self._histograms: dict[tuple[str, str], SelfTuningHistogram] = {}
        #: cumulative q-error distribution across every signature — the
        #: continuous monitor diffs its buckets between samples to get
        #: per-interval median/p95 q-error without draining ``_recent``
        #: (which benchmarks own)
        self.qerror_hist = LogHistogram("estimate_qerror")
        # preallocated ring: record() writes tuples, _drain() materializes
        self._ring: list[tuple | None] = [None] * max(1, ring_size)
        self._ring_len = 0
        #: q-errors since the last :meth:`take_recent` (bounded)
        self._recent: list[float] = []
        self.observations = 0
        self.evictions = 0
        #: gate consultations that decided to skip a competition
        self.trusted = 0
        #: gate consultations that fell back to competing
        self.competed = 0

    # -- hot path ------------------------------------------------------------

    def record(
        self,
        table: str,
        index: str,
        restriction: Any,
        estimated: float,
        actual: int,
        lo: Any = None,
        hi: Any = None,
    ) -> None:
        """Capture one estimated-vs-actual pair (deferred materialization).

        ``restriction`` may be an expression (signature computed at drain
        time) or an already-computed signature string (join edges).
        ``lo``/``hi`` optionally carry the scanned key range so the
        per-index self-tuning histogram can refine itself.
        """
        n = self._ring_len
        if n == len(self._ring):
            self._drain()
            n = 0
        self._ring[n] = (table, index, restriction, estimated, actual, lo, hi)
        self._ring_len = n + 1

    # -- deferred materialization ---------------------------------------------

    def _drain(self) -> None:
        ring = self._ring
        for position in range(self._ring_len):
            entry = ring[position]
            ring[position] = None
            assert entry is not None
            table, index, restriction, estimated, actual, lo, hi = entry
            signature = (
                restriction
                if isinstance(restriction, str)
                else predicate_signature(restriction)
            )
            self._observe(table, index, signature, estimated, actual)
            if lo is not None or hi is not None:
                self._histogram(table, index).observe(lo, hi, actual)
        self._ring_len = 0

    def _observe(
        self, table: str, index: str, signature: str, estimated: float, actual: int
    ) -> None:
        key = (table, index, signature)
        stats = self._stats.get(key)
        if stats is None:
            while len(self._stats) >= self.capacity:
                self._stats.popitem(last=False)
                self.evictions += 1
            stats = SignatureStats()
            self._stats[key] = stats
        else:
            self._stats.move_to_end(key)
        q = q_error(estimated, actual)
        stats.observe(q, self.alpha)
        self.qerror_hist.record(q)
        if len(self._recent) < 4096:
            self._recent.append(q)
        self.observations += 1

    def _histogram(self, table: str, index: str) -> SelfTuningHistogram:
        hist = self._histograms.get((table, index))
        if hist is None:
            hist = SelfTuningHistogram(budget=self.histogram_budget)
            self._histograms[(table, index)] = hist
        return hist

    # -- consumers ------------------------------------------------------------

    def stats_for(self, table: str, index: str, restriction: Any) -> SignatureStats | None:
        """The stats entry for one signature, draining pending records first."""
        if self._ring_len:
            self._drain()
        signature = (
            restriction
            if isinstance(restriction, str)
            else predicate_signature(restriction)
        )
        return self._stats.get((table, index, signature))

    def verdict(self, table: str, index: str, restriction: Any) -> ConfidenceVerdict:
        """Gate consultation: should the engine trust this estimate?

        ``trust`` requires both the configured minimum observation count
        and a confidence score at or above the threshold. The verdict
        carries its inputs so the skip decision can be audited.
        """
        stats = self.stats_for(table, index, restriction)
        if stats is None:
            return _COLD
        score = stats.confidence(self.min_observations)
        return ConfidenceVerdict(
            trust=(
                stats.count >= self.min_observations
                and score >= self.confidence_threshold
            ),
            score=score,
            count=stats.count,
            mean_log_q=stats.mean_log_q,
            var_log_q=stats.var_log_q,
            threshold=self.confidence_threshold,
        )

    def combined_verdict(
        self, pairs: list[tuple[str, str, Any]]
    ) -> ConfidenceVerdict:
        """Weakest-link verdict over several signatures (join edges):
        trust only when every signature individually trusts, reporting the
        lowest score's inputs."""
        if not pairs:
            return _COLD
        worst: ConfidenceVerdict | None = None
        for table, index, restriction in pairs:
            verdict = self.verdict(table, index, restriction)
            if worst is None or verdict.score < worst.score:
                worst = verdict
            if not verdict.trust:
                # keep scanning for the true minimum score, but the
                # combined verdict is already a non-trust
                worst = ConfidenceVerdict(
                    trust=False,
                    score=min(worst.score, verdict.score),
                    count=verdict.count,
                    mean_log_q=verdict.mean_log_q,
                    var_log_q=verdict.var_log_q,
                    threshold=verdict.threshold,
                )
        assert worst is not None
        return worst

    def estimate_range(
        self, table: str, index: str, lo: Any, hi: Any
    ) -> float | None:
        """Histogram-corrected cardinality for a key range, or None when
        the (table, index) histogram has no refined evidence yet."""
        if self._ring_len:
            self._drain()
        hist = self._histograms.get((table, index))
        if hist is None:
            return None
        return hist.estimate(lo, hi)

    def histogram_snapshot(self, table: str) -> dict[str, SelfTuningHistogram]:
        """Frozen {index: histogram copy} for one table.

        Scatter-gather hands this to partition fetches so every fetch of
        one statement consults the same learned range cardinalities while
        the live histograms keep refining."""
        if self._ring_len:
            self._drain()
        return {
            index: hist.copy()
            for (owner, index), hist in self._histograms.items()
            if owner == table
        }

    def flush(self) -> None:
        """Materialize any ring-buffered records now.

        The continuous monitor calls this before reading
        :attr:`qerror_hist` so a sample reflects every retrieval retired
        before it, not just those some other consumer happened to drain."""
        if self._ring_len:
            self._drain()

    def take_recent(self) -> list[float]:
        """Return-and-clear the q-errors observed since the last call.

        Benchmarks use this to compute per-refinement-round medians
        without re-walking the full history."""
        if self._ring_len:
            self._drain()
        recent = self._recent
        self._recent = []
        return recent

    # -- maintenance ----------------------------------------------------------

    def invalidate_table(self, table: str) -> None:
        """Drop learned state for one table (schema/data change)."""
        if self._ring_len:
            # drop pending ring entries for the table rather than learning
            # from a world that no longer exists
            kept = [
                entry
                for entry in self._ring[: self._ring_len]
                if entry is not None and entry[0] != table
            ]
            for position in range(len(self._ring)):
                self._ring[position] = kept[position] if position < len(kept) else None
            self._ring_len = len(kept)
            self._drain()
        for key in [k for k in self._stats if k[0] == table]:
            del self._stats[key]
        for key in [k for k in self._histograms if k[0] == table]:
            del self._histograms[key]

    def clear(self) -> None:
        for position in range(len(self._ring)):
            self._ring[position] = None
        self._ring_len = 0
        self._recent.clear()
        self._stats.clear()
        self._histograms.clear()

    # -- reporting ------------------------------------------------------------

    def __len__(self) -> int:
        if self._ring_len:
            self._drain()
        return len(self._stats)

    def entries(self) -> Iterator[tuple[tuple[str, str, str], SignatureStats]]:
        if self._ring_len:
            self._drain()
        return iter(self._stats.items())

    def snapshot(self) -> dict[str, Any]:
        if self._ring_len:
            self._drain()
        return {
            "signatures": len(self._stats),
            "observations": self.observations,
            "evictions": self.evictions,
            "trusted": self.trusted,
            "competed": self.competed,
            "histograms": {
                f"{table}.{index}": hist.to_dict()
                for (table, index), hist in sorted(self._histograms.items())
            },
        }

    def format(self) -> str:
        """Human-readable per-signature report (the shell's ``\\estimates``)."""
        if self._ring_len:
            self._drain()
        lines = [
            f"estimator: {len(self._stats)} signatures, "
            f"{self.observations} observations, {self.evictions} evictions, "
            f"gate: {self.trusted} trusted / {self.competed} competed"
        ]
        if not self._stats:
            lines.append("  (no observations yet)")
            return "\n".join(lines)
        header = (
            f"  {'signature':<56} {'obs':>5} {'p95 q':>8} "
            f"{'max q':>8} {'conf':>6}  verdict"
        )
        lines.append(header)
        ranked = sorted(
            self._stats.items(), key=lambda item: -item[1].count
        )
        for (table, index, signature), stats in ranked:
            score = stats.confidence(self.min_observations)
            trust = (
                stats.count >= self.min_observations
                and score >= self.confidence_threshold
            )
            label = f"{table}.{index} {signature}"
            if len(label) > 56:
                label = label[:53] + "..."
            lines.append(
                f"  {label:<56} {stats.count:>5} {stats.p95:>8.2f} "
                f"{stats.max_q:>8.2f} {score:>6.2f}  "
                + ("trust" if trust else "compete")
            )
        for (table, index), hist in sorted(self._histograms.items()):
            lines.append(f"  histogram {table}.{index}: {hist.describe()}")
        return "\n".join(lines)
