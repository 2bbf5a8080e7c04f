"""Tests for the Section 5 initial stage."""

import pytest

from repro.config import EngineConfig
from repro.engine.initial import IterationContext, run_initial_stage
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.expr.ast import ALWAYS_TRUE, col, var
from repro.storage.buffer_pool import CostMeter


def run_stage(table, restriction, host_vars={}, needed=None, order_by=(),
              config=None, context=None):
    trace = RetrievalTrace()
    meter = CostMeter()
    arrangement = run_initial_stage(
        list(table.indexes.values()),
        restriction,
        host_vars,
        needed if needed is not None else frozenset(table.schema.names),
        order_by,
        meter,
        trace,
        config or table.config,
        context,
    )
    return arrangement, trace


@pytest.fixture
def parts(db):
    table = db.create_table(
        "P", [("PNO", "int"), ("COLOR", "int"), ("WEIGHT", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(400):
        table.insert((i, i % 10, i % 100))
    table.create_index("IX_COLOR", ["COLOR"])
    table.create_index("IX_WEIGHT", ["WEIGHT"])
    return table


def test_classifies_fetch_needed(parts):
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") < 10)
    arrangement, _ = run_stage(parts, expr)
    names = {c.index.name for c in arrangement.jscan_candidates}
    assert names == {"IX_COLOR", "IX_WEIGHT"}
    assert arrangement.best_sscan is None


def test_unmatched_index_excluded(parts):
    expr = col("COLOR").eq(3)
    arrangement, _ = run_stage(parts, expr)
    names = [c.index.name for c in arrangement.jscan_candidates]
    assert names == ["IX_COLOR"]


def test_ascending_estimate_order(parts):
    # WEIGHT < 8 hits ~32 rows; COLOR = 3 hits 40 rows; estimates should
    # put the smaller range first (both estimated, order by estimate)
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") < 8)
    arrangement, _ = run_stage(parts, expr)
    estimates = [c.estimate.rids for c in arrangement.jscan_candidates if c.estimate]
    assert estimates == sorted(estimates)


def test_empty_range_shortcut(parts):
    expr = col("COLOR").eq(99)  # no such color
    arrangement, trace = run_stage(parts, expr)
    assert arrangement.empty
    assert trace.has(EventKind.SHORTCUT_EMPTY)


def test_small_range_shortcut_skips_estimation(parts):
    config = parts.config.with_(shortcut_rid_count=100)
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") < 50)
    arrangement, trace = run_stage(parts, expr, config=config)
    assert arrangement.shortcut
    assert trace.has(EventKind.SHORTCUT_SMALL_RANGE)
    # at least one candidate was left unestimated
    assert any(c.estimate is None for c in arrangement.jscan_candidates) or (
        len(arrangement.jscan_candidates) == 1
    )


def test_self_sufficient_detection(parts):
    expr = col("COLOR").eq(3)
    arrangement, _ = run_stage(parts, expr, needed=frozenset({"COLOR"}))
    assert arrangement.best_sscan is not None
    assert arrangement.best_sscan.index.name == "IX_COLOR"


def test_order_index_detection(parts):
    arrangement, _ = run_stage(parts, ALWAYS_TRUE, order_by=("WEIGHT",))
    assert arrangement.order_index is not None
    assert arrangement.order_index.index.name == "IX_WEIGHT"


def test_no_order_index_for_unindexed_column(parts):
    arrangement, _ = run_stage(parts, ALWAYS_TRUE, order_by=("PNO",))
    assert arrangement.order_index is None


def test_host_vars_resolved_at_run_time(parts):
    expr = col("WEIGHT") >= var("W")
    unbound, _ = run_stage(parts, expr, host_vars={})
    assert not unbound.jscan_candidates  # range unknown without the variable
    bound, _ = run_stage(parts, expr, host_vars={"W": 90})
    assert len(bound.jscan_candidates) == 1


def _estimation_order(trace) -> list[str]:
    """The indexes in the order they were estimated: the prearranged order."""
    return [event.detail["index"] for event in trace.of_kind(EventKind.INITIAL_ESTIMATE)]


def test_context_preorder_used(parts):
    context = IterationContext()
    context.record(["IX_WEIGHT", "IX_COLOR"], {})
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") < 8)
    _, trace = run_stage(parts, expr, context=context)
    assert _estimation_order(trace) == ["IX_WEIGHT", "IX_COLOR"]
    _, fresh = run_stage(parts, expr)
    assert _estimation_order(fresh) == ["IX_COLOR", "IX_WEIGHT"]


def test_static_preorder_prefers_equality(parts):
    expr = (col("WEIGHT") < 90) & (col("COLOR").eq(3))
    _, trace = run_stage(parts, expr)
    # equality ranked before open range
    assert _estimation_order(trace) == ["IX_COLOR", "IX_WEIGHT"]


def test_estimation_cost_recorded(parts):
    db_pool = parts.buffer_pool
    db_pool.clear()
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") < 8)
    arrangement, _ = run_stage(parts, expr)
    assert arrangement.estimation_cost > 0


def test_events_emitted_in_order(parts):
    expr = (col("COLOR").eq(3)) & (col("WEIGHT") < 8)
    _, trace = run_stage(parts, expr)
    kinds = [event.kind for event in trace]
    assert kinds.count(EventKind.INITIAL_ESTIMATE) == 2
    assert kinds[-1] is EventKind.INDEXES_ORDERED
