"""E15 (extension) — probabilistic vs deterministic switch rules.

Section 3's two-stage competition switches "based on some probabilistic
cost model" ([Ant91B]); the shipped Section 6 criterion is the
deterministic 95% threshold. This ablation races the two rules across a
selectivity sweep: the Bayesian rule should match the threshold on easy
cases and waste less on borderline ones, where the posterior's width
captures how trustworthy the projection actually is.
"""

from _util import Report, run_once

from repro.db.session import Database
from repro.expr.ast import col, var
from repro.workloads.scenarios import build_parts_table


def build(probabilistic: bool):
    db = Database(buffer_capacity=48)
    table = build_parts_table(db, rows=6000)
    table.config = table.config.with_(probabilistic_switch=probabilistic)
    return db, table


def experiment() -> dict:
    report = Report(
        "probabilistic_switch",
        "Extension — Bayesian vs deterministic scan-abandonment rules",
    )
    query = (col("WEIGHT") <= var("W")) & (col("SIZE") <= var("S"))
    report.line("\nPARTS 6000 rows; WEIGHT <= :W AND SIZE <= :S sweep; costs per rule:\n")

    rows = []
    totals = {False: 0.0, True: 0.0}
    verdicts = {"cheaper": [], "dearer": [], "tied": []}
    for bound in (5, 15, 50, 120, 300, 600, 1000):
        line = [bound]
        costs = {}
        for probabilistic in (False, True):
            db, table = build(probabilistic)
            db.cold_cache()
            run = table.select(where=query, host_vars={"W": bound, "S": bound})
            totals[probabilistic] += run.total_cost
            costs[probabilistic] = round(run.total_cost)
            line.append(f"{run.total_cost:.0f}")
            if probabilistic:
                line.append(run.description.split(" -> ")[-1][:22])
        rows.append(line)
        deterministic, bayesian = costs[False], costs[True]
        if bayesian == deterministic:
            verdicts["tied"].append(str(bound))
        else:
            verdict = "cheaper" if bayesian < deterministic else "dearer"
            verdicts[verdict].append(f"{bound} ({bayesian} vs {deterministic})")
    report.table(["W=S", "deterministic", "bayesian", "bayesian ending"], rows)
    report.line(f"\nsweep totals: deterministic {totals[False]:.0f}, "
                f"bayesian {totals[True]:.0f}")
    # the verdict is read off the rows above, so it cannot contradict them
    for verdict in ("cheaper", "dearer", "tied"):
        where = ", ".join(verdicts[verdict]) or "none"
        report.line(f"bayesian {verdict} at W=S = {where}")
    report.line("(the posterior rule needs no hand-picked threshold)")

    # robustness: a misleading early sample (first entries all survive the
    # filter) must not fool either rule into premature abandonment
    for probabilistic in (False, True):
        db, table = build(probabilistic)
        db.cold_cache()
        run = table.select(
            where=(col("COLOR").eq(7)) & (col("WEIGHT") <= 150), host_vars={}
        )
        expected = sum(
            1 for _, row in table.heap.scan() if row[1] == 7 and row[2] <= 150
        )
        assert len(run.rows) == expected
    report.line("\nboth rules return exact results on the misleading-prefix query")
    report.save()
    return {"deterministic": totals[False], "bayesian": totals[True]}


def test_probabilistic_switch_ablation(benchmark):
    results = run_once(benchmark, experiment)
    assert results["bayesian"] < 1.5 * results["deterministic"]
