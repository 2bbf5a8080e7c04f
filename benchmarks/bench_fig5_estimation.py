"""E6 — Figure 5: estimation by descent to a split node.

Reproduced:

* the worked example (split level l=2, k=1, fanout f=3 -> ~3 RIDs);
* accuracy sweep across range sizes, against the exact count and against a
  coarse compile-time histogram — the histogram "fails to detect small
  ranges falling below granularity", the descent detects them (empty
  ranges exactly);
* estimation cost: one root-to-split path of page reads (vs full rescans
  for histogram maintenance);
* Section 5 iteration-context reuse: the second execution of a query shape
  starts from the previous run's index order.
"""

import numpy as np

from _util import Report, run_once

from repro.btree.estimate import estimate_range
from repro.btree.tree import BTree, KeyRange
from repro.db.catalog import Histogram
from repro.db.session import Database
from repro.expr.ast import col
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.pager import Pager
from repro.storage.rid import make_rid


def experiment() -> dict:
    report = Report("fig5", "Figure 5 — descent-to-split-node estimation")

    # -- worked example: fanout-3-ish tree -------------------------------
    tree = BTree(BufferPool(Pager(), 512), "ix", order=4)
    for i in range(27):
        tree.insert(i, make_rid(i, 0))
    estimate = estimate_range(tree, KeyRange(lo=(7,), hi=(9,)))
    report.line(f"\nworked example (27 keys, order 4, height {tree.height}):")
    report.line(f"  range [7..9]: k={estimate.k}, split level l={estimate.split_level}, "
                f"f={estimate.fanout:.2f} -> estimate {estimate.rids:.1f} "
                f"(true 3){' [exact]' if estimate.exact else ''}")

    # -- accuracy sweep versus exact counts and a histogram ------------------
    rng = np.random.default_rng(5)
    values = sorted(int(v) for v in rng.integers(0, 100_000, size=20_000))
    big = BTree(BufferPool(Pager(), 4096), "big", order=32)
    for i, value in enumerate(values):
        big.insert(value, make_rid(i, 0))
    histogram = Histogram(values, buckets=10)

    report.line("\naccuracy sweep (20k uniform keys in [0, 100k), 10-bucket histogram):")
    rows = []
    errors = {"descent": [], "histogram": []}
    for width in (2, 20, 200, 2_000, 20_000, 60_000):
        lo = 37_000
        hi = lo + width
        true = big.count_range_exact(KeyRange(lo=(lo,), hi=(hi,)))
        descent = estimate_range(big, KeyRange(lo=(lo,), hi=(hi,))).rids
        hist = histogram.selectivity_range(lo, hi) * len(values)
        for kind, guess in (("descent", descent), ("histogram", hist)):
            if true > 0:
                errors[kind].append(max(guess, 0.5) / true if guess >= true
                                    else true / max(guess, 0.5))
        rows.append([
            width, true, f"{descent:.0f}", f"{hist:.0f}",
            f"{_ratio(descent, true)}", f"{_ratio(hist, true)}",
        ])
    report.table(
        ["range width", "true RIDs", "descent", "histogram", "descent err", "hist err"],
        rows,
    )
    descent_small = errors["descent"][0]
    hist_small = errors["histogram"][0]
    report.line(f"\nsmallest range: descent off by {descent_small:.1f}x, "
                f"histogram off by {hist_small:.1f}x")
    report.line("(Section 5: 'histograms fail to detect small ranges falling below")
    report.line(" granularity, though the smallest ranges must be detected first')")

    # -- empty-range detection ------------------------------------------------
    gap_tree = BTree(BufferPool(Pager(), 512), "gap", order=16)
    for i in range(0, 5000, 10):  # keys 0, 10, 20, ... gaps in between
        gap_tree.insert(i, make_rid(i, 0))
    empty = estimate_range(gap_tree, KeyRange(lo=(101,), hi=(105,)))
    hist_gap = Histogram([i for i in range(0, 5000, 10)], 10)
    hist_guess = hist_gap.selectivity_range(101, 105) * 500
    report.line(f"\nempty range [101..105] in a gapped key space:")
    report.line(f"  descent: {empty.rids:.0f} RIDs (exact={empty.exact}) -> retrieval cancelled")
    report.line(f"  histogram: {hist_guess:.2f} RIDs (cannot prove emptiness)")
    assert empty.is_empty and hist_guess > 0

    # -- estimation cost ---------------------------------------------------------
    big.buffer_pool.clear()
    meter = CostMeter()
    estimate_range(big, KeyRange(lo=(500,), hi=(700,)), meter)
    report.line(f"\nestimation cost (cold): {meter.io_reads} page reads "
                f"(tree height {big.height}); histogram maintenance needs a full rescan")
    assert meter.io_reads <= big.height

    # -- iteration-context reuse ----------------------------------------------
    db = Database(buffer_capacity=64)
    table = db.create_table("T", [("A", "int"), ("B", "int")], rows_per_page=8)
    for i in range(2000):
        table.insert((int(rng.integers(0, 50)), int(rng.integers(0, 2000))))
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    expr = (col("A").eq(7)) & (col("B") < 100)
    first = table.select(where=expr, context_key="shape")
    context = table.context_for("shape")
    order_after_first = list(context.last_order)
    second = table.select(where=expr, context_key="shape")
    report.line(f"\niteration context: first-run order {order_after_first} "
                f"reused on run 2 (executions={context.executions})")
    assert context.executions == 2
    assert sorted(first.rows) == sorted(second.rows)

    report.save()
    return {"descent_small_error": descent_small, "hist_small_error": hist_small}


def _ratio(guess: float, true: int) -> str:
    if true == 0:
        return "exact" if guess == 0 else "inf"
    worse = max(guess, 0.5) / true if guess >= true else true / max(guess, 0.5)
    return f"{worse:.1f}x"


def test_fig5_estimation(benchmark):
    results = run_once(benchmark, experiment)
    # the descent must beat the histogram on the smallest range
    assert results["descent_small_error"] <= results["hist_small_error"]
