"""Prepared-statement benchmark: prepare-once / execute-many vs ad-hoc SQL.

Measures queries/sec for a repeated parameterized OLTP workload — covering
unique-index point lookups — executed two ways over the same data:

- **unprepared**: each execution interpolates a fresh literal into the SQL
  text, as ad-hoc client code does. Every statement is a distinct plan-cache
  key, so each one pays tokenize + normalize + parse + bind + cache store.
- **prepared**: one ``conn.prepare(... where ACCT = ? ...)`` statement,
  executed with changing parameters. The plan, inferred goals, and (via the
  per-plan predicate cache) compiled predicates are all reused.

Verifies on the way that the plan cache is accounting-transparent: the
summed per-query ``io_total`` is byte-identical between the prepared and
unprepared runs and between a default connection and one with
``plan_cache_size=0`` (caching disabled) on the same literal workload.

Results land in ``BENCH_prepare.json`` at the repository root.

Usage::

    python benchmarks/bench_prepare.py          # full run
    python benchmarks/bench_prepare.py --smoke  # smaller table, CI gate

Both modes exit non-zero if the JSON lacks required keys, if any io_total
differs, or if prepared execution is below 2x unprepared queries/sec at
repeat >= 16.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro
from _util import best_of
from repro.config import DEFAULT_CONFIG

REPEATS = [1, 4, 16, 32]
DISTINCT = 16
TRIALS = 3
GATE_REPEAT = 16
GATE_SPEEDUP = 2.0

TEMPLATE = (
    "select ACCT, BRANCH, BALANCE, STATUS, REGION from ACCOUNTS "
    "where ACCT = {a} and BRANCH >= 0 and BALANCE >= 0 "
    "and STATUS >= 0 and REGION >= 0"
)
PREPARED_SQL = TEMPLATE.replace("{a}", "?")

REQUIRED_KEYS = [
    "repeats",
    "distinct_params",
    "results",
    "speedup_at_repeat_16",
    "io_equivalent_prepared",
    "io_equivalent_cache_disabled",
    "plan_cache",
    "smoke",
]


def build_connection(rows: int, plan_cache_size: int | None = None) -> repro.Connection:
    config = DEFAULT_CONFIG
    if plan_cache_size is not None:
        config = config.with_(plan_cache_size=plan_cache_size)
    conn = repro.connect(buffer_capacity=128, config=config)
    table = conn.create_table(
        "ACCOUNTS",
        [("ACCT", "int"), ("BRANCH", "int"), ("BALANCE", "int"),
         ("STATUS", "int"), ("REGION", "int")],
        rows_per_page=32, index_order=32,
    )
    table.insert_many(
        (i, i % 97, (i * 7919) % 10_000, i % 3, i % 7) for i in range(rows)
    )
    # the index covers every referenced column: clear-case index-only
    # retrieval, the cheapest execution the parse overhead competes against
    table.create_index(
        "IX_COVER", ["ACCT", "BRANCH", "BALANCE", "STATUS", "REGION"], unique=True
    )
    table.analyze()
    return conn


def param_values(repeat: int, rows: int) -> list[int]:
    """One account per execution; ad-hoc literals never repeat exactly."""
    return [(k * 251 + r * 13) % rows for r in range(repeat) for k in range(DISTINCT)]


def run_unprepared(conn: repro.Connection, params: list[int]) -> dict:
    start = time.perf_counter()
    io_total = 0
    for account in params:
        result = conn.execute(TEMPLATE.format(a=account))
        assert len(result.rows) == 1
        io_total += result.total_io
    elapsed = time.perf_counter() - start
    return {"queries": len(params), "io_total": io_total, "wall_sec": elapsed,
            "qps": len(params) / elapsed}


def run_prepared(conn: repro.Connection, params: list[int]) -> dict:
    start = time.perf_counter()  # includes the one-time prepare() parse
    statement = conn.prepare(PREPARED_SQL)
    io_total = 0
    for account in params:
        result = statement.execute([account])
        assert len(result.rows) == 1
        io_total += result.total_io
    elapsed = time.perf_counter() - start
    return {"queries": len(params), "io_total": io_total, "wall_sec": elapsed,
            "qps": len(params) / elapsed}


def measure(rows: int, trials: int) -> dict:
    results = {}
    for repeat in REPEATS:
        params = param_values(repeat, rows)
        best = best_of({
            "unprepared": lambda: run_unprepared(build_connection(rows), params),
            "prepared": lambda: run_prepared(build_connection(rows), params),
        }, trials)
        unprepared, prepared = best["unprepared"], best["prepared"]
        results[str(repeat)] = {
            "queries": len(params),
            "unprepared_qps": round(unprepared["qps"], 1),
            "prepared_qps": round(prepared["qps"], 1),
            "speedup": round(prepared["qps"] / unprepared["qps"], 3),
            "io_unprepared": unprepared["io_total"],
            "io_prepared": prepared["io_total"],
        }
    return results


def io_equivalence_cache_disabled(rows: int, repeat: int) -> tuple[int, int]:
    """The same literal workload on a default vs a cache-disabled connection."""
    params = param_values(repeat, rows)
    with_cache = run_unprepared(build_connection(rows), params)
    without = run_unprepared(build_connection(rows, plan_cache_size=0), params)
    return with_cache["io_total"], without["io_total"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="smaller table; same gates (CI mode)")
    args = parser.parse_args()

    rows = 1000 if args.smoke else 4000
    trials = TRIALS

    results = measure(rows, trials)
    io_default, io_disabled = io_equivalence_cache_disabled(rows, GATE_REPEAT)

    # plan-cache counter snapshot from one instrumented workload
    conn = build_connection(rows)
    params = param_values(GATE_REPEAT, rows)
    statement = conn.prepare(PREPARED_SQL)
    for account in params:
        statement.execute([account])
    cache = conn.db.plan_cache
    plan_cache = {
        "hits": cache.hits, "misses": cache.misses,
        "size": cache.size, "capacity": cache.capacity,
        "predicate_hits": statement._entry.predicates.hits,
        "predicate_compiles": statement._entry.predicates.compiles,
    }

    payload = {
        "repeats": REPEATS,
        "distinct_params": DISTINCT,
        "results": results,
        "speedup_at_repeat_16": results[str(GATE_REPEAT)]["speedup"],
        "io_equivalent_prepared": all(
            r["io_unprepared"] == r["io_prepared"] for r in results.values()
        ),
        "io_equivalent_cache_disabled": io_default == io_disabled,
        "plan_cache": plan_cache,
        "smoke": args.smoke,
    }

    out_path = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_prepare.json"
    )
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)

    for repeat, entry in results.items():
        print(f"repeat={repeat:>3}: unprepared {entry['unprepared_qps']:>8.1f} q/s, "
              f"prepared {entry['prepared_qps']:>8.1f} q/s, "
              f"speedup {entry['speedup']:.2f}x, io {entry['io_unprepared']}")
    print(f"io equivalent (prepared vs unprepared): {payload['io_equivalent_prepared']}")
    print(f"io equivalent (cache on vs off):        {payload['io_equivalent_cache_disabled']}")
    print(f"plan cache: {plan_cache}")

    failures = []
    for key in REQUIRED_KEYS:
        if key not in payload:
            failures.append(f"missing key {key!r}")
    if not payload["io_equivalent_prepared"]:
        failures.append("io_total differs between prepared and unprepared runs")
    if not payload["io_equivalent_cache_disabled"]:
        failures.append("io_total differs between default and plan_cache_size=0")
    speedup = payload["speedup_at_repeat_16"]
    if speedup < GATE_SPEEDUP:
        failures.append(
            f"prepared speedup {speedup:.2f}x at repeat {GATE_REPEAT} "
            f"is below the {GATE_SPEEDUP}x gate"
        )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"PASS: prepared >= {GATE_SPEEDUP}x unprepared at repeat >= {GATE_REPEAT}, "
          "io byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
