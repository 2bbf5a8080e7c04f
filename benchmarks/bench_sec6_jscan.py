"""E7 — Section 6: Jscan against its alternatives, across a selectivity sweep.

Reproduced claims:

* Jscan with two-stage competition tracks the per-point best of
  {Fscan-style indexed retrieval, Tscan}: selective restrictions produce a
  short RID list, unselective ones switch to Tscan (no cliff);
* the statically-thresholded Jscan of [MoHa90] "misses an opportunity to
  readjust" — a single fixed threshold loses somewhere in the sweep;
* the index-scan stage is typically 10-100x cheaper than the fetch stage;
* per sweep point, which of dynamic, [MoHa90], Tscan and Fscan is cheapest,
  and where dynamic loses to [MoHa90] or Tscan (reported, not gated:
  ROADMAP item 16 adds the gate with its fix);
* ablations: the 95% switch threshold and the adjacent simultaneous-scan
  reordering.
"""

from _util import Report, run_once

from paper.mohan_jscan import run_static_jscan
from repro.db.session import Database
from repro.engine.static_optimizer import StaticOptimizer, StaticPlan
from repro.expr.ast import col, var
from repro.workloads.scenarios import build_parts_table


def fresh_db():
    db = Database(buffer_capacity=48)
    return db, build_parts_table(db, rows=6000)


def experiment() -> dict:
    report = Report("sec6_jscan", "Section 6 — Jscan vs Fscan vs Tscan vs static Jscan")
    db, parts = fresh_db()
    query = (col("WEIGHT") <= var("W")) & (col("SIZE") <= var("S"))
    optimizer = StaticOptimizer(parts)
    # freeze the plan for a highly selective representative binding so it
    # really is an indexed (Fscan) plan — the paper's problematic case
    fscan_plan = optimizer.compile((col("WEIGHT") <= 5) & (col("SIZE") <= 5))
    tscan_cost = parts.heap.page_count
    report.line(f"\nPARTS: {parts.row_count} rows / {tscan_cost} pages; "
                f"restriction WEIGHT <= :W AND SIZE <= :S (sweep both)")
    report.line(f"frozen indexed plan: {fscan_plan.describe()}")
    tscan_plan = StaticPlan("tscan", None, 1.0, float(tscan_cost))

    rows = []
    costs = {}
    dynamic_worst = 0.0
    for bound in (5, 15, 50, 120, 300, 600, 1000):
        bindings = {"W": bound, "S": bound}
        db.cold_cache()
        fscan = optimizer.execute(fscan_plan, query, bindings)
        db.cold_cache()
        mohan = run_static_jscan(parts, query, bindings, threshold_fraction=0.10)
        db.cold_cache()
        dynamic = parts.select(where=query, host_vars=bindings)
        db.cold_cache()
        tscan = optimizer.execute(tscan_plan, query, bindings)
        assert len(dynamic.rows) == len(fscan.rows) == len(mohan.rows) == len(tscan.rows)
        costs[bound] = {"dynamic": dynamic.total_cost, "MoHa90": mohan.cost,
                        "tscan": tscan.cost, "fscan": fscan.cost}
        best = min(fscan.io, tscan_cost)
        dynamic_worst = max(dynamic_worst, dynamic.total_cost / max(best, 1))
        rows.append([
            bound, len(dynamic.rows), tscan_cost, fscan.io, mohan.io,
            f"{dynamic.total_cost:.0f}",
            dynamic.description.split(" -> ")[-1][:24],
        ])
    report.line()
    report.table(
        ["W=S", "rows", "tscan", "fscan", "MoHa90", "dynamic", "dynamic ending"],
        rows,
    )
    report.line(f"\ndynamic cost stays within {dynamic_worst:.2f}x of the per-point best")
    report.line("of (fscan, tscan); the frozen fscan explodes at high selectivity and")
    report.line("tscan wastes at low selectivity — the crossover is found at run time.")

    # -- the cheapest strategy per point, all in the cost unit ------------------
    # the paper's rule hands over at ``switch_threshold`` of the guaranteed
    # best, so it concedes up to 1/0.95 of it by design; beyond that margin
    # it loses the point
    margin = 1 / parts.config.switch_threshold
    report.line("\ncost per point in the cost unit (I/O plus CPU), and the cheapest:")
    rows, losses = [], []
    for bound, point in costs.items():
        rival = min(point["MoHa90"], point["tscan"])
        ratio = point["dynamic"] / rival
        if ratio > margin:
            losses.append(str(bound))
        rows.append([bound, *(f"{cost:.2f}" for cost in point.values()),
                     min(point, key=point.get), f"{ratio:.2f}"])
    report.table(["W=S", "dynamic", "MoHa90", "tscan", "fscan", "cheapest",
                  "dynamic / min(MoHa90, tscan)"], rows)
    report.line(f"dynamic loses to MoHa90 or tscan (by more than 1/{parts.config.switch_threshold})"
                f" at W=S = {', '.join(losses) or 'none'}")

    # -- stage-cost ratio ---------------------------------------------------------
    db2, parts2 = fresh_db()
    db2.cold_cache()
    result = parts2.select(
        where=(col("WEIGHT") <= 40) & (col("SIZE") <= 120),
        host_vars={},
    )
    from repro.engine.metrics import EventKind

    scans = result.trace.of_kind(EventKind.SCAN_COMPLETE)
    final = result.trace.of_kind(EventKind.FINAL_STAGE_START)
    if scans and final:
        report.line(f"\nstage costs for W<=40, S<=120: index scans handled "
                    f"{sum(e.detail['scanned'] for e in scans)} entries; final stage "
                    f"fetched {final[0].detail['rids']} records")
    report.line("(Section 6: each index scan is 'typically 10-100 times cheaper than")
    report.line(" the second stage' — entry reads are sequential leaf pages, fetches")
    report.line(" are random heap pages)")

    # -- ablation: switch threshold --------------------------------------------
    report.line("\nablation — switch threshold (paper picks ~95%):")
    rows = []
    for threshold in (0.25, 0.5, 0.75, 0.95, 1.5, 10.0):
        db3, parts3 = fresh_db()
        parts3.config = parts3.config.with_(switch_threshold=threshold)
        total = 0.0
        for bound in (15, 120, 1000):
            db3.cold_cache()
            run = parts3.select(where=query, host_vars={"W": bound, "S": bound})
            total += run.total_cost
        rows.append([f"{threshold:.2f}", f"{total:.0f}"])
    report.table(["threshold", "total cost (3 bindings)"], rows)
    report.line("(too low: gives up on productive scans; too high: drags")
    report.line(" unproductive scans to completion)")

    # -- ablation: adjacent simultaneous scans -----------------------------------
    report.line("\nablation — simultaneous adjacent scans (dynamic reorder):")
    rows = []
    for simultaneous in (True, False):
        db4, parts4 = fresh_db()
        parts4.config = parts4.config.with_(simultaneous_adjacent_scans=simultaneous)
        db4.cold_cache()
        # an order the initial estimates get wrong: SIZE range is far
        # smaller than WEIGHT's but both estimate coarsely
        run = parts4.select(
            where=(col("WEIGHT") <= 500) & (col("SIZE") <= 25), host_vars={}
        )
        rows.append(["on" if simultaneous else "off", f"{run.total_cost:.0f}",
                     run.trace.counters.scans_abandoned])
    report.table(["pair mode", "cost", "scans abandoned"], rows)

    report.save()
    return {"dynamic_worst": dynamic_worst, "dynamic_loses_at": losses}


def test_sec6_jscan_sweep(benchmark):
    results = run_once(benchmark, experiment)
    assert results["dynamic_worst"] < 3.0
