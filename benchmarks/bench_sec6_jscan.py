"""E7 — Section 6: Jscan against its alternatives, across a selectivity sweep.

Reproduced claims:

* Jscan with two-stage competition tracks the per-point best of
  {Fscan-style indexed retrieval, Tscan}: selective restrictions produce a
  short RID list, unselective ones switch to Tscan (no cliff);
* the statically-thresholded Jscan of [MoHa90] "misses an opportunity to
  readjust" — a single fixed threshold loses somewhere in the sweep;
* the index-scan stage is typically 10-100x cheaper than the fetch stage;
* per sweep point, which of dynamic, [MoHa90], Tscan and Fscan is cheapest,
  and where dynamic loses to [MoHa90] or Tscan. Two checks bound the loss:
  where the RID lists stay selective (W=S <= 50) dynamic concedes at most
  its own margin, 1 / ``switch_threshold``; and at every point at most the
  direct criterion's 1 + ``scan_cost_limit_fraction``. The second fails with
  the projection rule planted out (``tests/test_paper_claims.py``); the
  first cannot see that plant, as the rule never fires on a selective
  list. Dynamic still loses at 120 and 300 by more than the first margin;
  that is reported, not gated: ROADMAP item 16 adds the gate with its fix;
* ablations: the 95% switch threshold and the adjacent simultaneous-scan
  reordering.
"""

from _util import Report, run_once

from paper.mohan_jscan import run_static_jscan
from repro.db.session import Database
from repro.engine.static_optimizer import StaticOptimizer, StaticPlan
from repro.expr.ast import col, var
from repro.workloads.scenarios import build_parts_table


#: the sweep's W=S points, and the last of them where the lists stay selective
BOUNDS = (5, 15, 50, 120, 300, 600, 1000)
SELECTIVE = 50

QUERY = (col("WEIGHT") <= var("W")) & (col("SIZE") <= var("S"))


def fresh_db():
    db = Database(buffer_capacity=48)
    return db, build_parts_table(db, rows=6000)


def sweep(db, parts, fscan_plan: StaticPlan) -> tuple[dict, list]:
    """Run the frozen Fscan plan, [MoHa90], the dynamic engine and Tscan at
    every sweep point from a cold cache. Returns each point's costs in the
    cost unit and the report's rows: W=S, result rows, the I/O of Tscan,
    Fscan and [MoHa90], dynamic's cost and how it ended."""
    optimizer = StaticOptimizer(parts)
    tscan_cost = parts.heap.page_count
    tscan_plan = StaticPlan("tscan", None, 1.0, float(tscan_cost))
    rows = []
    costs = {}
    for bound in BOUNDS:
        bindings = {"W": bound, "S": bound}
        db.cold_cache()
        fscan = optimizer.execute(fscan_plan, QUERY, bindings)
        db.cold_cache()
        mohan = run_static_jscan(parts, QUERY, bindings, threshold_fraction=0.10)
        db.cold_cache()
        dynamic = parts.select(where=QUERY, host_vars=bindings)
        db.cold_cache()
        tscan = optimizer.execute(tscan_plan, QUERY, bindings)
        assert len(dynamic.rows) == len(fscan.rows) == len(mohan.rows) == len(tscan.rows)
        costs[bound] = {"dynamic": dynamic.total_cost, "MoHa90": mohan.cost,
                        "tscan": tscan.cost, "fscan": fscan.cost}
        rows.append([
            bound, len(dynamic.rows), tscan_cost, fscan.io, mohan.io,
            f"{dynamic.total_cost:.0f}",
            dynamic.description.split(" -> ")[-1][:24],
        ])
    return costs, rows


def frozen_fscan(parts) -> StaticPlan:
    """The plan frozen for a highly selective representative binding, so it
    really is an indexed (Fscan) plan — the paper's problematic case."""
    return StaticOptimizer(parts).compile((col("WEIGHT") <= 5) & (col("SIZE") <= 5))


def points_lost(costs: dict, margin: float, upto: float = float("inf")) -> list[int]:
    """The sweep points up to W=S = ``upto`` where dynamic costs more than
    ``margin`` times the cheaper of [MoHa90] and Tscan."""
    return [
        bound for bound, point in costs.items()
        if bound <= upto and point["dynamic"] > margin * min(point["MoHa90"], point["tscan"])
    ]


def experiment() -> dict:
    report = Report("sec6_jscan", "Section 6 — Jscan vs Fscan vs Tscan vs static Jscan")
    db, parts = fresh_db()
    tscan_cost = parts.heap.page_count
    fscan_plan = frozen_fscan(parts)
    report.line(f"\nPARTS: {parts.row_count} rows / {tscan_cost} pages; "
                f"restriction WEIGHT <= :W AND SIZE <= :S (sweep both)")
    report.line(f"frozen indexed plan: {fscan_plan.describe()}")
    costs, rows = sweep(db, parts, fscan_plan)
    dynamic_worst = max(
        costs[bound]["dynamic"] / max(min(fscan_io, tscan_cost), 1)
        for bound, _, _, fscan_io, *_ in rows
    )
    report.line()
    report.table(
        ["W=S", "rows", "tscan I/O", "fscan I/O", "MoHa90 I/O", "dynamic cost",
         "dynamic ending"],
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
    rows = []
    for bound, point in costs.items():
        ratio = point["dynamic"] / min(point["MoHa90"], point["tscan"])
        rows.append([bound, *(f"{cost:.2f}" for cost in point.values()),
                     min(point, key=point.get), f"{ratio:.2f}"])
    report.table(["W=S", "dynamic", "MoHa90", "tscan", "fscan", "cheapest",
                  "dynamic / min(MoHa90, tscan)"], rows)
    losses = points_lost(costs, margin)
    report.line(f"dynamic loses to MoHa90 or tscan (by more than 1/{parts.config.switch_threshold})"
                f" at W=S = {', '.join(map(str, losses)) or 'none'}")
    selective_losses = points_lost(costs, margin, upto=SELECTIVE)
    report.line(f"checked: by no more than that at W=S <= {SELECTIVE}, where the lists stay"
                f" selective (lost at: {', '.join(map(str, selective_losses)) or 'none'})")
    direct = 1 + parts.config.scan_cost_limit_fraction
    direct_losses = points_lost(costs, direct)
    report.line(f"checked: by no more than {direct:g}x (1 + scan_cost_limit_fraction) at any"
                f" point (lost at: {', '.join(map(str, direct_losses)) or 'none'})")

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
            run = parts3.select(where=QUERY, host_vars={"W": bound, "S": bound})
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
    return {"dynamic_worst": dynamic_worst, "dynamic_loses_at": losses,
            "selective_losses": selective_losses, "direct_losses": direct_losses}


def test_sec6_jscan_sweep(benchmark):
    results = run_once(benchmark, experiment)
    assert results["dynamic_worst"] < 3.0
    assert results["selective_losses"] == []
    assert results["direct_losses"] == []
