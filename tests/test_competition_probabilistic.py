"""Tests for the probabilistic (Bayesian) switch criterion, a comparator
of the paper's rule in ``benchmarks/paper/``."""

import pytest

from paper.probabilistic import BayesianSwitchCriterion, ScanEvidence, run_bayesian_jscan
from repro.competition.two_stage import SwitchDecision
from repro.db.session import Database
from repro.expr.ast import col
from repro.expr.eval import evaluate

CRITERION = BayesianSwitchCriterion(heap_pages=200, rows_per_page=8)


def test_zero_guaranteed_abandons():
    evidence = ScanEvidence(scanned=10, kept=5, estimated_total=100, scan_cost=1.0)
    assert CRITERION.evaluate(evidence, 0.0) is SwitchDecision.ABANDON_PROJECTED


def test_scan_cost_guard():
    evidence = ScanEvidence(scanned=10, kept=0, estimated_total=100, scan_cost=60.0)
    assert CRITERION.evaluate(evidence, 100.0) is SwitchDecision.ABANDON_SCAN_COST


def test_no_evidence_continues():
    evidence = ScanEvidence(scanned=0, kept=0, estimated_total=100, scan_cost=0.0)
    assert CRITERION.evaluate(evidence, 100.0) is SwitchDecision.CONTINUE


def test_early_scan_survives_noise():
    # 3 of 4 kept looks bad, but the posterior is wide: keep scanning
    evidence = ScanEvidence(scanned=4, kept=3, estimated_total=1000, scan_cost=0.2)
    assert CRITERION.evaluate(evidence, 100.0) is SwitchDecision.CONTINUE


def test_high_keep_rate_with_strong_evidence_abandons():
    # 900/1000 kept of 1000-entry range: final list ~ whole table; no savings
    evidence = ScanEvidence(scanned=1000, kept=900, estimated_total=1100, scan_cost=20.0)
    assert CRITERION.evaluate(evidence, 150.0) is SwitchDecision.ABANDON_PROJECTED


def test_low_keep_rate_continues():
    evidence = ScanEvidence(scanned=500, kept=10, estimated_total=1000, scan_cost=10.0)
    assert CRITERION.evaluate(evidence, 150.0) is SwitchDecision.CONTINUE


def test_savings_decrease_with_keep_rate():
    low = ScanEvidence(scanned=200, kept=10, estimated_total=1000, scan_cost=5.0)
    high = ScanEvidence(scanned=200, kept=150, estimated_total=1000, scan_cost=5.0)
    assert CRITERION.expected_savings(low, 150.0) > CRITERION.expected_savings(high, 150.0)


def test_remaining_investment_scales():
    early = ScanEvidence(scanned=100, kept=10, estimated_total=1000, scan_cost=5.0)
    late = ScanEvidence(scanned=900, kept=90, estimated_total=1000, scan_cost=45.0)
    assert CRITERION.remaining_investment(early) > CRITERION.remaining_investment(late)


def test_min_fraction_guard():
    criterion = BayesianSwitchCriterion(heap_pages=200, rows_per_page=8, min_fraction=0.5)
    evidence = ScanEvidence(scanned=10, kept=10, estimated_total=1000, scan_cost=1.0)
    assert criterion.evaluate(evidence, 50.0) is SwitchDecision.CONTINUE


# -- end-to-end through the Bayesian Jscan ------------------------------------------


def _build():
    db = Database(buffer_capacity=48)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int")], rows_per_page=8, index_order=8
    )
    for i in range(2000):
        table.insert((i % 50, (i * 7) % 500))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    return db, table


@pytest.mark.parametrize("expr_index", range(4))
def test_probabilistic_engine_matches_oracle(expr_index):
    expressions = [
        col("A").eq(7),
        (col("A").eq(7)) & (col("B") < 100),
        col("B") >= 0,
        (col("A") < 2) & (col("B") >= 450),
    ]
    expr = expressions[expr_index]
    db, table = _build()
    result = run_bayesian_jscan(table, expr)
    expected = sorted(
        row for _, row in table.heap.scan()
        if evaluate(expr, row, table.schema.position)
    )
    assert sorted(result.rows) == expected


def test_probabilistic_switches_to_tscan_on_unselective():
    db, table = _build()
    db.cold_cache()
    result = run_bayesian_jscan(table, col("B") >= 0)
    assert "tscan" in result.description


def test_probabilistic_costs_comparable_to_deterministic():
    expr = (col("A").eq(7)) & (col("B") < 100)
    db, table = _build()
    db.cold_cache()
    deterministic = table.select(where=expr).total_cost
    db, table = _build()
    db.cold_cache()
    bayesian = run_bayesian_jscan(table, expr).cost
    # neither rule should be wildly worse on a routine query
    assert bayesian < 3 * deterministic
    assert deterministic < 3 * bayesian
