"""Property: every engine configuration returns the same rows.

The dynamic optimizer's knobs (thresholds, buffer sizes, pair mode, the
bitmap filter, the scheduling quantum) may change *cost*, never *results*. This is the
load-bearing safety property of competition-based optimization: abandoning
a scan mid-run must be invisible to the consumer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import EngineConfig
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal as Goal
from repro.expr.ast import col

CONFIGS = [
    EngineConfig(),  # defaults
    EngineConfig(simultaneous_adjacent_scans=False),
    # spilled lists filtered through a bitmap small enough for false positives
    EngineConfig(static_rid_buffer_size=2, allocated_rid_buffer_size=8,
                 temp_rids_per_page=4, bitmap_bits=64),
    EngineConfig(switch_threshold=0.25),
    EngineConfig(switch_threshold=10.0, scan_cost_limit_fraction=100.0),
    EngineConfig(static_rid_buffer_size=2, allocated_rid_buffer_size=8),
    EngineConfig(shortcut_rid_count=0),
    EngineConfig(foreground_buffer_size=4),
    EngineConfig(batch_size=1),
]


def build(config):
    db = Database(buffer_capacity=32, config=config)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=6,
    )
    rng = np.random.default_rng(77)
    for _ in range(400):
        table.insert(
            (int(rng.integers(0, 40)), int(rng.integers(0, 120)), int(rng.integers(0, 8)))
        )
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    return db, table


PREDICATES = [
    col("A").eq(7),
    (col("A").eq(7)) & (col("B") < 40),
    (col("A") >= 35) & (col("B").between(20, 90)),
    col("B") >= 0,
    (col("A").eq(2)) | (col("B").eq(100)),
    col("A").in_([1, 5, 9]),
    (col("A").eq(999)) & (col("B") < 40),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"cfg{CONFIGS.index(c)}")
@pytest.mark.parametrize("index", range(len(PREDICATES)))
def test_rows_identical_across_configs(config, index):
    expr = PREDICATES[index]
    _, baseline_table = build(EngineConfig())
    baseline = sorted(baseline_table.select(where=expr).rows)
    _, table = build(config)
    for goal in (Goal.TOTAL_TIME, Goal.FAST_FIRST):
        assert sorted(table.select(where=expr, optimize_for=goal).rows) == baseline


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=5.0),
    st.integers(min_value=1, max_value=64),
    st.booleans(),
)
def test_random_configs_preserve_results(threshold, buffer_size, pair_mode):
    config = EngineConfig(
        switch_threshold=threshold,
        static_rid_buffer_size=buffer_size,
        allocated_rid_buffer_size=buffer_size * 4,
        foreground_buffer_size=buffer_size,
        simultaneous_adjacent_scans=pair_mode,
    )
    expr = (col("A").eq(7)) & (col("B") < 60)
    _, baseline_table = build(EngineConfig())
    baseline = sorted(baseline_table.select(where=expr).rows)
    _, table = build(config)
    assert sorted(table.select(where=expr).rows) == baseline
