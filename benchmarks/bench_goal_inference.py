"""E10 — Section 4: optimization-goal inference over a plan tree.

The paper's example:

    select * from A where A.X in (
        select distinct Y from B where B.Y in (
            select Z from C limit to 2 rows))
    optimize for total time;

must infer fast-first for C (LIMIT TO), total-time for B (the SORT behind
DISTINCT), total-time for A (the explicit request). The benchmark also
measures why this matters: C's retrieval under fast-first costs a fraction
of the same retrieval forced to total-time.
"""

import numpy as np

from _util import Report, run_once

import repro
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal as Goal

SQL = (
    "select * from A where A.X in ("
    " select distinct Y from B where B.Y in ("
    "  select Z from C limit to 2 rows))"
    " optimize for total time"
)


def build(db: Database) -> None:
    rng = np.random.default_rng(3)
    for name, column in (("A", "X"), ("B", "Y"), ("C", "Z")):
        table = db.create_table(name, [("ID", "int"), (column, "int")],
                                rows_per_page=8, index_order=8)
        for i in range(4000):
            table.insert((i, int(rng.integers(0, 200))))
        table.create_index(f"IX_{column}", [column])


def experiment() -> dict:
    report = Report("goal_inference", "Section 4 — goal inference (nested query)")
    db = Database(buffer_capacity=64)
    build(db)

    conn = repro.connect(db=db)
    report.line("\n" + SQL)
    report.line("\ninferred plan:")
    report.line(conn.explain(SQL).text)

    db.cold_cache()
    result = conn.execute(SQL)
    goals = {info.table: info.goal for info in result.retrievals}
    rows = [
        ["C", "limit to 2 rows", "fast-first", goals["C"].value],
        ["B", "sort behind distinct", "total-time", goals["B"].value],
        ["A", "explicit request", "total-time", goals["A"].value],
    ]
    report.line()
    report.table(["table", "controlling node", "paper says", "inferred"], rows)
    assert goals["C"] is Goal.FAST_FIRST
    assert goals["B"] is Goal.TOTAL_TIME
    assert goals["A"] is Goal.TOTAL_TIME

    # why it matters: a restricted LIMIT-2 retrieval like C's under each
    # forced goal — fast-first stops after two deliveries, total-time
    # builds the complete RID list first
    from repro.expr.ast import col

    costs = {}
    for goal in (Goal.FAST_FIRST, Goal.TOTAL_TIME):
        db2 = Database(buffer_capacity=64)
        build(db2)
        db2.cold_cache()
        c_run = db2.table("C").select(
            where=col("Z") < 60, limit=2, optimize_for=goal
        )
        costs[goal] = c_run.total_cost
        report.line(f"\nC-like retrieval (Z < 60, LIMIT 2) forced to "
                    f"{goal.value}: cost {c_run.total_cost:.1f}")
    report.line("\n(the inference routes C to the cheap fast-first path automatically)")

    report.save()
    return {goal.value: cost for goal, cost in costs.items()}


def test_goal_inference(benchmark):
    results = run_once(benchmark, experiment)
    assert results["fast-first"] <= results["total-time"] * 1.2
