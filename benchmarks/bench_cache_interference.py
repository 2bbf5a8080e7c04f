"""E12 — Section 3(c): cache interference makes fetch costs unpredictable.

    "Even if a single column selectivity is estimated with good precision
    and inexpensively, the actual cost of index scan and data record
    fetches measured in physical I/Os is often unpredictable because the
    pattern of caching the disk pages is influenced by many asynchronous
    processes totally unrelated to a given retrieval."

Reproduced: the same retrieval's physical I/O under interference levels
0 .. 80% varies by multiples (the paper admits this uncertainty is "only
partially solved"); the dynamic engine's *strategy choice* stays correct
across interference because the competition measures real costs as it runs.
"""

import numpy as np

from _util import Report, run_once

from repro.db.session import Database
from repro.expr.ast import col, var
from repro.workloads.scenarios import build_families_table

REPEATS = 6


def experiment() -> dict:
    report = Report("cache_interference", "Section 3(c) — cache interference")
    db = Database(buffer_capacity=96)
    families = build_families_table(db, rows=4000)
    query = col("AGE") >= var("A1")

    report.line(f"\ntable: {families.row_count} rows / {families.heap.page_count} pages;"
                f" buffer pool {db.buffer_pool.capacity} pages")
    report.line("workload: AGE >= 110 repeated with random evictions between runs\n")

    rows = []
    spreads = {}
    for rate in (0.0, 0.2, 0.5, 0.8):
        db.interference_rate = rate
        # warm once, then measure repeats with interference ticks
        families.select(where=query, host_vars={"A1": 110})
        ios = []
        for _ in range(REPEATS):
            db.interference_tick()
            run = families.select(where=query, host_vars={"A1": 110})
            ios.append(run.execution_io)
        spreads[rate] = (min(ios), max(ios))
        rows.append([
            f"{rate:.0%}", min(ios), max(ios), f"{np.mean(ios):.0f}",
            max(ios) - min(ios),
        ])
    report.table(["interference", "min I/O", "max I/O", "mean", "spread"], rows)
    quiet_max = spreads[0.0][1]
    noisy_max = spreads[0.8][1]
    report.line(f"\nwarm-cache cost is flat at {quiet_max} I/O; at 80% interference the"
                f"\nsame retrieval costs up to {noisy_max} I/O — the per-run cost is")
    report.line("unpredictable even with a perfect selectivity estimate.")
    assert noisy_max > quiet_max

    # strategy robustness: choices stay correct under heavy interference
    db.interference_rate = 0.8
    report.line("\nstrategy choice under 80% interference:")
    rows = []
    correct = True
    # AGE >= 118 is a range the Figure 5 descent bounds to one leaf run: it
    # is fetched directly (short-range), which is the background-only
    # final-stage run without the race
    for binding, expected in ((1, "tscan"), (118, "short-range"), (200, "empty")):
        db.interference_tick()
        run = families.select(where=query, host_vars={"A1": binding})
        ending = run.description.split(" -> ")[-1]
        ok = expected in run.description or expected in ending or (
            expected == "empty" and not run.rows and "shortcut" in run.description
        )
        correct &= ok
        rows.append([binding, len(run.rows), ending[:32], "ok" if ok else "WRONG"])
    report.table(["A1", "rows", "ending", "check"], rows)
    assert correct
    report.line("\n(the competition observes actual costs mid-run, so cache chaos")
    report.line(" shifts costs but not correctness of the strategy decisions)")
    report.save()
    return {"quiet_max": quiet_max, "noisy_max": noisy_max}


def test_cache_interference(benchmark):
    results = run_once(benchmark, experiment)
    assert results["noisy_max"] > results["quiet_max"]
