"""Join-order competition benchmark: racing beats freezing an order.

Builds a 3-table star with Zipf-skewed fan-in (ORDERS → CUSTOMERS,
ORDERS → ITEMS), then measures every candidate join order forced
statically (cold cache each) against the competition picking an order at
runtime with pilot races and mid-flight switching. Two gates:

* **competitive** — the competition's total realized cost (sunk pilot
  work included) must be <= 1.05x the *best* static order and below the
  *worst*. Freezing the wrong left-deep order is the join-level version
  of the paper's frozen Tscan-vs-Fscan cliff; the race must stay out of
  that hole while paying only bounded pilot overhead. (Measured against
  the best order because a ratio to the worst alone fails whenever the
  worst order gets cheaper while the competition sits on the best one.)
* **io identity** — EXPLAIN COMPETE's cold-for-cold shadow replay of the
  chosen order must report exactly the same physical I/O as forcing that
  order on a cold production cache: the counterfactual ledger measures
  the real engine, not an approximation of it.

Results land in ``BENCH_join_competition.json`` at the repository root.

Usage::

    python benchmarks/bench_join_competition.py          # full run
    python benchmarks/bench_join_competition.py --smoke  # smaller, CI gate
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import numpy as np

import repro
from repro.config import DEFAULT_CONFIG
from repro.engine.goals import OptimizationGoal
from repro.engine.join import JoinTableHandle, candidate_orders, run_join_steps
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.sql.plan import JoinPlan, walk
from repro.workloads.generators import uniform_ints, zipf_ints

SQL = (
    "select * from ORDERS as o "
    "join CUSTOMERS as c on o.CUST = c.CID "
    "join ITEMS as i on o.ITEM = i.IID "
    "where c.REGION = 1 and i.KIND <= 2"
)

GATE_COMPETITIVE = 1.05  # competition cost vs best static order

REQUIRED_KEYS = [
    "workload",
    "static_orders",
    "best_static",
    "worst_static",
    "competition",
    "competitive_ratio_vs_best",
    "competitive_ratio_vs_worst",
    "io_identity",
    "smoke",
]


def build_workload(conn: repro.Connection, orders: int, customers: int,
                   items: int, seed: int = 42) -> None:
    rng = np.random.default_rng(seed)
    db = conn.db
    customers_t = db.create_table("CUSTOMERS", [("CID", "int"), ("REGION", "int")])
    customers_t.insert_many((i, i % 8) for i in range(customers))
    customers_t.create_index("IX_CID", ["CID"], unique=True)
    items_t = db.create_table("ITEMS", [("IID", "int"), ("KIND", "int")])
    items_t.insert_many((i, i % 12) for i in range(items))
    items_t.create_index("IX_IID", ["IID"], unique=True)
    orders_t = db.create_table(
        "ORDERS", [("OID", "int"), ("CUST", "int"), ("ITEM", "int")]
    )
    custs = zipf_ints(rng, orders, customers, skew=1.3)
    its = uniform_ints(rng, orders, 0, items - 1)
    orders_t.insert_many((i, custs[i], its[i]) for i in range(orders))
    orders_t.create_index("IX_CUST", ["CUST"])
    for table in (customers_t, items_t, orders_t):
        table.analyze()


def join_node(db, sql: str) -> JoinPlan:
    parsed = parse(sql)
    bind(db, parsed.plan)
    for node in walk(parsed.plan):
        if isinstance(node, JoinPlan):
            return node
    raise AssertionError("no join node in plan")


def handles_for(db, node: JoinPlan) -> dict[str, JoinTableHandle]:
    out = {}
    for source in node.sources:
        table = db.table(source.table)
        out[source.alias] = JoinTableHandle(
            name=table.name,
            heap=table.heap,
            schema=table.schema,
            indexes=dict(table.indexes),
            buffer_pool=table.buffer_pool,
            stats=table.stats,
        )
    return out


def drain(generator):
    try:
        while True:
            next(generator)
    except StopIteration as stop:
        return stop.value


def forced_run(db, node, handles, order_key: str):
    db.cold_cache()
    return drain(
        run_join_steps(
            node, handles, {}, OptimizationGoal.TOTAL_TIME, db.config,
            force_order=order_key,
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller tables; same gates (CI mode)")
    args = parser.parse_args()

    orders, customers, items = (
        (800, 100, 50) if args.smoke else (4000, 250, 120)
    )
    # a generous replay budget so the io-identity replay never truncates
    config = DEFAULT_CONFIG.with_(replay_budget_steps=2_000_000)
    conn = repro.connect(buffer_capacity=128, config=config)
    build_workload(conn, orders, customers, items)
    db = conn.db

    node = join_node(db, SQL)
    handles = handles_for(db, node)

    # -- every static order, cold-for-cold --------------------------------
    static: dict[str, dict] = {}
    expected_rows = None
    for order in candidate_orders(node, handles, {}):
        result = forced_run(db, node, handles, order.key)
        rows = sorted(result.rows)
        if expected_rows is None:
            expected_rows = rows
        static[order.key] = {
            "cost": round(result.execution_cost, 2),
            "io": result.execution_io,
            "rows": len(rows),
            "rows_identical": rows == expected_rows,
        }
    best_key = min(static, key=lambda k: static[k]["cost"])
    worst_key = max(static, key=lambda k: static[k]["cost"])

    # -- the competition, same cold start ---------------------------------
    db.cold_cache()
    competed = drain(
        run_join_steps(node, handles, {}, OptimizationGoal.TOTAL_TIME, db.config)
    )
    competition_rows = sorted(competed.rows)
    ratio = competed.execution_cost / max(static[worst_key]["cost"], 1e-9)
    ratio_best = competed.execution_cost / max(static[best_key]["cost"], 1e-9)

    # -- io identity: COMPETE's shadow replay vs a forced production run --
    db.cold_cache()
    report = conn.audit(SQL)
    join_compete = next(
        (r for r in report.retrievals if r.chosen_outcome is not None), None
    )
    chosen = join_compete.chosen if join_compete else ""
    replay_io = join_compete.chosen_outcome.io if join_compete else -1
    truncated = bool(join_compete and join_compete.chosen_outcome.truncated)
    forced = forced_run(db, node, handles, chosen) if chosen else None
    forced_io = forced.execution_io if forced is not None else -2

    payload = {
        "workload": {
            "orders": orders, "customers": customers, "items": items,
            "skew": 1.3, "sql": SQL,
        },
        "static_orders": static,
        "best_static": {"order": best_key, **static[best_key]},
        "worst_static": {"order": worst_key, **static[worst_key]},
        "competition": {
            "winner": competed.description,
            "cost": round(competed.execution_cost, 2),
            "io": competed.execution_io,
            "rows": len(competition_rows),
            "rows_identical": competition_rows == expected_rows,
            "order_switches": conn.metrics.decisions.join_order_switches,
        },
        "competitive_ratio_vs_best": round(ratio_best, 4),
        "competitive_ratio_vs_worst": round(ratio, 4),
        "io_identity": {
            "chosen": chosen,
            "replay_io": replay_io,
            "forced_io": forced_io,
            "replay_truncated": truncated,
            "identical": replay_io == forced_io and not truncated,
        },
        "smoke": args.smoke,
    }

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..",
        "BENCH_join_competition.json",
    )
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)

    print(f"{len(static)} candidate orders over {orders} orders rows:")
    for key, entry in sorted(static.items(), key=lambda kv: kv[1]["cost"]):
        print(f"  {key:<40} cost {entry['cost']:>9.1f}  io {entry['io']:>6}")
    print(f"best static : {best_key} ({static[best_key]['cost']:.1f})")
    print(f"worst static: {worst_key} ({static[worst_key]['cost']:.1f})")
    print(f"competition : {competed.description} "
          f"(cost {competed.execution_cost:.1f}, "
          f"{payload['competition']['order_switches']} mid-flight switches)")
    print(f"competitive ratio vs best: {ratio_best:.3f} (gate <= {GATE_COMPETITIVE}), "
          f"vs worst: {ratio:.3f} (gate < 1)")
    print(f"io identity: replay {replay_io} vs forced {forced_io}")

    failures = []
    for key in REQUIRED_KEYS:
        if key not in payload:
            failures.append(f"missing key {key!r}")
    if not all(entry["rows_identical"] for entry in static.values()):
        failures.append("static orders disagreed on the join result")
    if not payload["competition"]["rows_identical"]:
        failures.append("competition rows differ from the static orders")
    if ratio_best > GATE_COMPETITIVE:
        failures.append(
            f"competition cost is {ratio_best:.3f}x the best static order "
            f"(gate <= {GATE_COMPETITIVE})"
        )
    if ratio >= 1.0:
        failures.append(
            f"competition cost is {ratio:.3f}x the worst static order (gate < 1)"
        )
    if not payload["io_identity"]["identical"]:
        failures.append(
            f"chosen-order replay io {replay_io} != forced run io {forced_io}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"PASS: competition <= {GATE_COMPETITIVE}x best static order and "
          "below the worst, replay io identical to a forced run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
