"""Integration tests pinning the paper's headline claims (fast versions of
the benchmarks — each benchmark in benchmarks/ explores these in depth)."""

import numpy as np
import pytest

from paper.distribution.density import SelectivityDistribution
from paper.distribution.hyperbola import fit_truncated_hyperbola
from paper.distribution.operators import apply_chain
from paper.distribution.shapes import classify_shape
from repro.api import connect
from repro.competition.model import (
    LShapedCost,
    sequential_switch_expected_cost,
    simultaneous_expected_cost,
)
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.engine.retrieval import RetrievalRequest
from repro.engine.static_optimizer import StaticOptimizer
from repro.expr.ast import col, var
from repro.workloads.scenarios import build_families_table


def test_claim_section2_l_shape_dominance():
    """Intermediate selectivity distributions are predominantly L-shaped
    under AND/JOIN dominance, mirror-L under OR dominance."""
    uniform = SelectivityDistribution.uniform(200)
    assert classify_shape(apply_chain(uniform, "&&")) == "l-shape-left"
    assert classify_shape(apply_chain(uniform, "||")) == "l-shape-right"
    bell = SelectivityDistribution.bell(0.2, 0.005, 200)
    assert classify_shape(apply_chain(bell, "&&")) == "l-shape-left"


def test_claim_section2_half_mass_near_zero():
    """(B): ~50% of the distribution concentrates in a small area near zero
    when ANDs dominate."""
    uniform = SelectivityDistribution.uniform(200)
    anded = apply_chain(uniform, "&&")
    assert anded.mass_below(0.1) >= 0.5


def test_claim_section2_hyperbola_fits_improve():
    uniform = SelectivityDistribution.uniform(400)
    errors = [
        fit_truncated_hyperbola(apply_chain(uniform, "&" * n)).relative_error
        for n in (1, 2, 3)
    ]
    assert errors[0] > errors[1] > errors[2]


def test_claim_section3_competition_halves_cost():
    plan_1 = LShapedCost.from_c_and_mean(c=10, mean=100)
    plan_2 = LShapedCost.from_c_and_mean(c=8, mean=120)
    m2 = plan_2.conditional_mean_below(plan_2.median())
    sequential = sequential_switch_expected_cost(m2, plan_2.median(), plan_1.mean())
    assert sequential < 0.62 * plan_1.mean()
    assert simultaneous_expected_cost(plan_1, plan_2) < sequential


@pytest.fixture
def families_db():
    db = Database(buffer_capacity=48)
    table = build_families_table(db, rows=3000)
    return db, table


def test_claim_section4_host_variable_decimal_orders(families_db):
    """The motivating query: a frozen static plan loses by decimal orders on
    its mismatched binding; the dynamic engine adapts per run."""
    db, families = families_db
    expr = col("AGE") >= var("A1")

    optimizer = StaticOptimizer(families)
    static_plan = optimizer.compile(expr)

    costs = {}
    for binding in (0, 200):
        db.cold_cache()
        static_run = optimizer.execute(static_plan, expr, {"A1": binding})
        db.cold_cache()
        dynamic_run = families.select(where=expr, host_vars={"A1": binding})
        assert len(dynamic_run.rows) == len(static_run.rows)
        costs[binding] = (static_run.cost, dynamic_run.total_cost)

    # on at least one binding the static plan pays >10x the dynamic cost
    ratios = [static / max(dynamic, 0.5) for static, dynamic in costs.values()]
    assert max(ratios) > 10


def test_claim_section5_empty_range_is_free(families_db):
    db, families = families_db
    db.cold_cache()
    result = families.select(where=col("AGE") >= var("A1"), host_vars={"A1": 999})
    assert result.rows == []
    assert result.total_cost < 5


def test_claim_section6_jscan_vs_tscan_crossover(families_db):
    """Selective ranges win via RID list; unselective ranges end as Tscan —
    the two-stage competition finds the crossover without a correct prior
    estimate."""
    db, families = families_db
    expr = col("AGE") >= var("A1")
    db.cold_cache()
    # selective, but wider than the one quantum of leaves a short range is
    selective = families.select(where=expr, host_vars={"A1": 115})
    assert "final-stage" in selective.description
    db.cold_cache()
    unselective = families.select(where=expr, host_vars={"A1": 1})
    assert "tscan" in unselective.description
    assert selective.total_cost < unselective.total_cost


def test_claim_section5_short_range_costs_the_race_it_skips(families_db):
    """A range the descent bounds to one quantum of leaves is fetched
    directly, at exactly the cost of the Jscan and final stage it skips."""
    db, families = families_db
    expr = col("AGE") >= var("A1")
    db.cold_cache()
    short = families.select(where=expr, host_vars={"A1": 118})
    assert short.description == "short-range(IX_AGE)"
    db.cold_cache()
    raced = families.retrieval_engine().run(RetrievalRequest(
        restriction=expr, host_vars={"A1": 118}, force_strategy="background-only"))
    assert "final-stage" in raced.description
    assert short.rows == raced.rows
    assert short.total_cost == raced.total_cost
    assert short.execution_io == raced.execution_io


def test_claim_section7_fast_first_early_termination(families_db):
    """Fast-first with a LIMIT beats total-time on time-to-first-rows."""
    db, families = families_db
    expr = col("AGE") >= 60
    db.cold_cache()
    fast = families.select(
        where=expr, limit=5, optimize_for=OptimizationGoal.FAST_FIRST
    )
    db.cold_cache()
    total = families.select(where=expr, optimize_for=OptimizationGoal.TOTAL_TIME)
    assert len(fast.rows) == 5
    assert fast.total_cost < total.total_cost


def test_claim_section4_goal_inference_example(families_db):
    db, _ = families_db
    for name in "ABC":
        table = db.create_table(name, [("ID", "int"), (("XYZ")["ABC".index(name)], "int")])
        for i in range(50):
            table.insert((i, i % 7))
    result = connect(db=db).execute(
        "select * from A where A.X in ("
        " select distinct Y from B where B.Y in ("
        "  select Z from C limit to 2 rows))"
        " optimize for total time"
    )
    goals = {info.table: info.goal for info in result.retrievals}
    assert goals["C"] is OptimizationGoal.FAST_FIRST
    assert goals["B"] is OptimizationGoal.TOTAL_TIME
    assert goals["A"] is OptimizationGoal.TOTAL_TIME


def test_section6_sweep_check_catches_the_projection_rule_planted_out():
    """E7 must be able to fail without the rule it reproduces. With the
    projection rule planted out (a switch threshold no projection reaches),
    the unselective points sink both scans to the scan-cost limit, and the
    sweep-wide check (dynamic <= (1 + scan_cost_limit_fraction) x
    min([MoHa90], Tscan)) fails there. The selective check cannot see this
    plant: on a list that stays selective the rule never fires."""
    import bench_sec6_jscan as e7

    db, parts = e7.fresh_db()
    direct = 1 + parts.config.scan_cost_limit_fraction
    parts.config = parts.config.with_(switch_threshold=100.0)
    costs, _ = e7.sweep(db, parts, e7.frozen_fscan(parts))
    assert e7.points_lost(costs, direct) == [300, 600, 1000]
