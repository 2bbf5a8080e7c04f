"""The estimation-quality program: q-error tracking, self-tuning
histograms, and the variance-gated competition.

Covers the histogram's edge cases (empty, single bucket, all-duplicate
keys, skewed Zipf refinement), the estimator's LRU/eviction discipline,
the confidence verdict, the accounting identity between recorded
q-errors and the audit log's estimate pairs, and the end-to-end gate:
a warm, trusted signature skips the index-only race and delivers
byte-identical rows.
"""

import math
import random

import pytest

from repro.competition.process import drain
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.engine.retrieval import RetrievalResult
from repro.estimate import Estimator, SelfTuningHistogram, q_error
from repro.expr.ast import col
from repro.obs.audit import AuditLog, DecisionMetrics
from repro.obs.hist import LogHistogram
from repro.obs.regret import run_compete
from repro.sql.executor import RetrievalInfo


# -- q-error ------------------------------------------------------------------


class TestQError:
    def test_perfect_estimate_scores_one(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(100, 10) == pytest.approx(10.0)
        assert q_error(10, 100) == pytest.approx(10.0)

    def test_floors_at_one_row(self):
        # estimating 0 when the truth is 0 is perfect, not undefined
        assert q_error(0, 0) == 1.0
        assert q_error(0, 5) == pytest.approx(5.0)
        assert q_error(5, 0) == pytest.approx(5.0)


# -- self-tuning histogram ----------------------------------------------------


class TestSelfTuningHistogram:
    def test_empty_table_no_evidence(self):
        hist = SelfTuningHistogram()
        assert hist.estimate(0, 100) is None
        assert hist.estimate(None, None) is None

    def test_single_bucket_full_scan(self):
        hist = SelfTuningHistogram()
        hist.observe(None, None, 100)
        assert hist.estimate(None, None) == pytest.approx(100.0)

    def test_all_duplicate_keys(self):
        # equality probes on one key: the zero-width range can't be
        # carved, the containing bucket blends toward the observation
        hist = SelfTuningHistogram(budget=4)
        for _ in range(10):
            hist.observe(7, 7, 500)
        assert hist.observations == 10
        assert len(hist.buckets) <= 4
        estimate = hist.estimate(7, 7)
        assert estimate is not None and estimate > 0

    def test_carve_learns_observed_range_exactly(self):
        hist = SelfTuningHistogram()
        hist.observe(None, None, 1000)
        hist.observe(10, 20, 600)
        assert hist.estimate(10, 20) == pytest.approx(600.0)

    def test_budget_bounds_bucket_count_under_zipf_skew(self):
        rng = random.Random(42)
        hist = SelfTuningHistogram(budget=8)
        keys = [int(1000 / (rank + 1)) for rank in range(200)]
        for _ in range(300):
            lo = rng.choice(keys)
            hi = lo + rng.randint(1, 50)
            hist.observe(lo, hi, (hi - lo) * 3)
            assert len(hist.buckets) <= 8
        assert hist.splits > 0
        assert hist.merges > 0
        # bucket spans stay ordered and non-degenerate
        for left, right in zip(hist.buckets, hist.buckets[1:]):
            assert left.hi is not None and right.lo is not None
            assert left.hi <= right.lo or left.hi == right.lo

    def test_skewed_refinement_improves_hot_range(self):
        hist = SelfTuningHistogram(budget=16)
        hist.observe(None, None, 10_000)  # wildly uniform prior
        for _ in range(5):
            hist.observe(100, 110, 7)  # the hot range is actually tiny
        assert hist.estimate(100, 110) == pytest.approx(7.0)

    def test_mixed_type_keys_are_skipped_not_fatal(self):
        hist = SelfTuningHistogram()
        hist.observe(0, 100, 50)
        before = hist.observations
        hist.observe("a", 5, 10)  # incomparable: skipped
        assert hist.observations == before
        assert hist.estimate(0, 100) is not None

    def test_copy_is_independent(self):
        hist = SelfTuningHistogram(budget=4)
        hist.observe(0, 10, 40)
        clone = hist.copy()
        hist.observe(10, 20, 99)
        assert clone.observations == 1
        assert clone.estimate(10, 20) != hist.estimate(10, 20)


# -- estimator ----------------------------------------------------------------


class TestEstimator:
    def test_cold_signature_never_trusts(self):
        est = Estimator()
        verdict = est.verdict("T", "IX", col("A").eq(1))
        assert not verdict.trust
        assert verdict.score == 0.0

    def test_warm_accurate_signature_trusts(self):
        est = Estimator(min_observations=4, confidence_threshold=0.75)
        where = col("A").eq(1)
        for _ in range(5):
            est.record("T", "IX", where, 100, 100)
        verdict = est.verdict("T", "IX", where)
        assert verdict.trust
        assert verdict.score == pytest.approx(1.0)
        assert verdict.count == 5

    def test_noisy_signature_does_not_trust(self):
        est = Estimator(min_observations=4, confidence_threshold=0.75)
        where = col("A").eq(1)
        for actual in (10, 1000, 10, 1000, 10, 1000):
            est.record("T", "IX", where, 100, actual)
        assert not est.verdict("T", "IX", where).trust

    def test_combined_verdict_is_weakest_link(self):
        est = Estimator(min_observations=4)
        warm, cold = col("A").eq(1), col("B").eq(2)
        for _ in range(5):
            est.record("T", "IX1", warm, 50, 50)
        combined = est.combined_verdict(
            [("T", "IX1", warm), ("T", "IX2", cold)]
        )
        assert not combined.trust
        assert combined.score == 0.0

    def test_lru_eviction_counts(self):
        est = Estimator(capacity=2)
        for column in ("A", "B", "C"):
            est.record("T", "IX", col(column).eq(1), 10, 10)
        assert len(est) == 2
        assert est.evictions == 1

    def test_invalidate_table_drops_state_and_pending_ring(self):
        est = Estimator()
        est.record("T", "IX", col("A").eq(1), 10, 10, lo=1, hi=5)
        est.record("U", "IX", col("A").eq(1), 10, 10)
        est.invalidate_table("T")
        assert est.stats_for("T", "IX", col("A").eq(1)) is None
        assert est.stats_for("U", "IX", col("A").eq(1)) is not None
        assert est.estimate_range("T", "IX", 1, 5) is None

    def test_take_recent_returns_and_clears(self):
        est = Estimator()
        est.record("T", "IX", col("A").eq(1), 10, 20)
        recent = est.take_recent()
        assert recent == [pytest.approx(2.0)]
        assert est.take_recent() == []

    def test_histogram_snapshot_is_frozen(self):
        est = Estimator()
        est.record("T", "IX", col("A") < 5, 10, 40, lo=0, hi=5)
        frozen = est.histogram_snapshot("T")
        assert frozen["IX"].estimate(0, 5) == pytest.approx(40.0)
        est.record("T", "IX", col("A") < 5, 10, 900, lo=0, hi=5)
        assert frozen["IX"].estimate(0, 5) == pytest.approx(40.0)


# -- q-error accounting identity ----------------------------------------------


class TestQErrorAccountingIdentity:
    def test_qerror_hist_reconciles_with_audit_estimate_pairs(self):
        """Every (estimated, actual) pair a retrieval records lands in the
        q-error histogram exactly once, with the exact q-error value."""
        trace = RetrievalTrace()
        pairs = [(10.0, 20), (100.0, 10), (7.0, 7), (0.5, 3)]
        for estimated, actual in pairs:
            trace.estimates.append(("IX", estimated, actual))
        result = RetrievalResult([], [], trace, "", OptimizationGoal.TOTAL_TIME)

        metrics = DecisionMetrics()
        metrics.absorb([RetrievalInfo("T", OptimizationGoal.TOTAL_TIME, result)])

        recorded = [p for p in pairs if p[0] > 0]
        assert metrics.qerror_hist.count == len(recorded)
        assert metrics.estimate_error_hist.count == len(recorded)
        expected = LogHistogram()
        for estimated, actual in recorded:
            expected.record(q_error(estimated, actual))
        assert metrics.qerror_hist.counts == expected.counts
        assert metrics.qerror_hist.sum == pytest.approx(expected.sum)

    def test_identity_holds_end_to_end(self):
        """Through the live engine: the metrics' q-error count equals the
        estimate-error count (same pairs, same filter)."""
        db = Database(buffer_capacity=128)
        table = db.create_table("T", [("A", "int"), ("B", "int")], rows_per_page=8)
        for i in range(300):
            table.insert((i, i % 20))
        table.create_index("IX_A", ["A"])
        table.create_index("IX_B", ["B"])

        metrics = DecisionMetrics()
        pairs = 0
        for lo in (0, 50, 100):
            result = drain(
                table.select_steps(
                    where=(col("A") >= lo) & (col("A") < lo + 40) & (col("B").eq(3)),
                )
            )
            assert result.rows is not None
            metrics.absorb([RetrievalInfo("T", result.goal, result)])
            pairs += sum(1 for _, estimated, _ in result.trace.estimates if estimated > 0)
        assert metrics.qerror_hist.count == metrics.estimate_error_hist.count == pairs
        assert metrics.qerror_hist.count > 0


# -- the variance gate, end to end --------------------------------------------


def _gate_table(db):
    table = db.create_table(
        "G", [("A", "int"), ("B", "int"), ("C", "int")], rows_per_page=8
    )
    for i in range(400):
        table.insert((i, i % 10, (i * 3) % 50))
    table.create_index("IX_AB", ["A", "B"])  # covering: the Sscan arm
    table.create_index("IX_A", ["A"])  # fetch-needed: the Jscan arms
    table.create_index("IX_B", ["B"])
    # the small-range shortcut leaves candidates unestimated, and an
    # unestimated arm always competes
    table.config = table.config.with_(shortcut_rid_count=0)
    return table


class TestVarianceGate:
    def test_cold_estimator_competes(self):
        db = Database(buffer_capacity=128)
        table = _gate_table(db)
        est = Estimator()
        result = drain(
            table.select_steps(
                where=(col("A") < 100) & (col("B").eq(3)),
                columns=("A", "B"),
                estimator=est,
            )
        )
        assert not result.trace.has(EventKind.COMPETITION_SKIPPED)
        assert est.competed == 1
        assert est.trusted == 0

    def test_warm_estimator_skips_competition_with_identical_rows(self):
        db = Database(buffer_capacity=128)
        table = _gate_table(db)
        where = (col("A") < 100) & (col("B").eq(3))

        # the competed baseline (no estimator at all)
        baseline = drain(table.select_steps(where=where, columns=("A", "B")))

        est = Estimator()
        # warm the loop with real executions until the gate trusts
        skipped = None
        for _ in range(8):
            outcome = drain(
                table.select_steps(where=where, columns=("A", "B"), estimator=est)
            )
            if outcome.trace.has(EventKind.COMPETITION_SKIPPED):
                skipped = outcome
                break
        assert skipped is not None, "gate never trusted a stable workload"
        assert est.trusted >= 1
        assert sorted(skipped.rows) == sorted(baseline.rows)
        # the audited skip carries its confidence inputs
        events = skipped.trace.of_kind(EventKind.COMPETITION_SKIPPED)
        assert events[0].detail["confidence"] >= 0.75

    def test_trusted_skip_is_a_replayable_tactic_selection(self):
        """The gate's skip is the retrieval's one tactic selection, with
        ``basis="trusted"``: EXPLAIN COMPETE replays the winner, the other
        arm and the race it skipped."""
        db = Database(buffer_capacity=128)
        table = _gate_table(db)
        where = (col("A") < 100) & (col("B").eq(3))
        est = Estimator()
        skipped = None
        for _ in range(8):
            outcome = drain(table.select_steps(
                where=where, columns=("A", "B"), estimator=est))
            if outcome.trace.has(EventKind.COMPETITION_SKIPPED):
                skipped = outcome
                break
        assert skipped is not None, "gate never trusted a stable workload"
        (winner,) = [event.detail["winner"] for event in
                     skipped.trace.of_kind(EventKind.COMPETITION_SKIPPED)]
        audit = AuditLog.of([skipped])
        selection = audit.retrievals[0].tactic_selection()
        assert selection.chosen == winner
        assert selection.inputs["basis"] == "trusted"
        assert "index-only" in selection.alternatives
        report = run_compete(db, audit, budget_steps=1_000_000)
        assert report.replays == 3
        assert selection.regret is not None

    def test_gate_disabled_by_config(self):
        db = Database(buffer_capacity=128)
        table = _gate_table(db)
        table.config = table.config.with_(competition_gate=False)
        where = (col("A") < 100) & (col("B").eq(3))
        est = Estimator()
        for _ in range(8):
            outcome = drain(
                table.select_steps(where=where, columns=("A", "B"), estimator=est)
            )
            assert not outcome.trace.has(EventKind.COMPETITION_SKIPPED)
        assert est.trusted == 0
