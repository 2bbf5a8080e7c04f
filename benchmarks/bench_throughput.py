"""Throughput benchmark for batched execution with buffer-pool read-ahead.

Measures rows/sec and queries/sec through the full stack (SQL front end,
scheduler, dynamic optimizer, buffer pool) for a single-session and a
4-session workload at batch sizes {1, 8, 64, 256}, and verifies on the way
that batching is accounting-transparent: the summed ``CostMeter.io_total``
of every query is identical at every batch size. Also measures the
micro-level effect of ``slots=True`` on the hot ``CostMeter`` dataclass.

Results land in ``BENCH_throughput.json`` at the repository root.

Usage::

    python benchmarks/bench_throughput.py          # full run, asserts >=3x
    python benchmarks/bench_throughput.py --smoke  # tiny tables, CI gate

The smoke run exits non-zero if the JSON is missing required keys or if
batch 64 is slower than batch 1 on the 4-session workload; the full run
additionally enforces the >=3x rows/sec target at batch 64 vs 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro
from _util import best_of
from repro.config import DEFAULT_CONFIG
from repro.storage.buffer_pool import CostMeter

BATCH_SIZES = [1, 8, 64, 256]
N_SESSIONS = 4

REQUIRED_KEYS = [
    "batch_sizes",
    "single_session",
    "multi_session_4",
    "speedup_batch64_vs_1",
    "io_equivalent",
    "slots",
    "smoke",
]


def build_connection(batch_size: int, rows: int) -> repro.Connection:
    conn = repro.connect(
        buffer_capacity=128,
        config=DEFAULT_CONFIG.with_(batch_size=batch_size),
        max_concurrency=N_SESSIONS,
    )
    # realistic page geometry: a heap page holds 32 rows, a B-tree node
    # 32 keys (the SQL DDL defaults model tiny didactic pages instead)
    table = conn.create_table(
        "EVENTS", [("ID", "int"), ("V", "int")],
        rows_per_page=32, index_order=32,
    )
    table.insert_many((i, i % 97) for i in range(rows))
    table.create_index("IX_ID", ["ID"])
    table.analyze()
    return conn


def band_sql(band: int, rows: int, span: int) -> str:
    # index-only range retrieval: one engine step per index entry, which is
    # exactly the step granularity the scheduler pays a resumption for
    lo = (band * (rows // N_SESSIONS)) % max(rows - span, 1)
    return f"select ID from EVENTS where ID between {lo} and {lo + span - 1}"


def run_single_session(batch_size: int, rows: int, span: int, repeats: int) -> dict:
    conn = build_connection(batch_size, rows)
    conn.execute(band_sql(0, rows, span))  # warm-up (cache + code paths)
    delivered = queries = 0
    io_total = 0
    start = time.perf_counter()
    for repeat in range(repeats):
        result = conn.execute(band_sql(repeat % N_SESSIONS, rows, span))
        delivered += len(result.rows)
        queries += 1
        io_total += result.total_io
    elapsed = time.perf_counter() - start
    return _summary(delivered, queries, io_total, elapsed)


def run_multi_session(batch_size: int, rows: int, span: int, repeats: int) -> dict:
    conn = build_connection(batch_size, rows)
    sessions = [conn.session(f"s{i}") for i in range(N_SESSIONS)]
    for i, session in enumerate(sessions):  # warm-up
        session.submit(band_sql(i, rows, span))
    conn.server.run_until_idle()
    handles = []
    start = time.perf_counter()
    for repeat in range(repeats):
        for i, session in enumerate(sessions):
            handles.append(session.submit(band_sql(i, rows, span)))
    conn.server.run_until_idle()
    elapsed = time.perf_counter() - start
    delivered = sum(len(h.result.rows) for h in handles)
    io_total = sum(h.result.total_io for h in handles)
    return _summary(delivered, len(handles), io_total, elapsed)


def _summary(delivered: int, queries: int, io_total: int, elapsed: float) -> dict:
    return {
        "rows": delivered,
        "queries": queries,
        "io_total": io_total,
        "wall_sec": round(elapsed, 6),
        "rows_per_sec": round(delivered / elapsed, 1),
        "queries_per_sec": round(queries / elapsed, 2),
    }


def measure_slots_delta(iterations: int = 200_000) -> dict:
    """Time the hot charge path on the slotted CostMeter vs a __dict__ twin."""

    @dataclass
    class DictMeter:  # same fields as CostMeter, but with a __dict__
        name: str = ""
        io_reads: int = 0
        io_writes: int = 0
        buffer_hits: int = 0
        entries: int = 0
        records: int = 0

        def charge(self) -> None:
            self.buffer_hits += 1
            self.records += 1

    slotted = CostMeter(name="bench")
    dict_meter = DictMeter(name="bench")

    def time_charges(fn) -> float:
        start = time.perf_counter()
        for _ in range(iterations):
            fn()
        return time.perf_counter() - start

    def charge_slotted() -> None:
        slotted.charge_hit()
        slotted.charge_records(1)

    slotted_sec = time_charges(charge_slotted)
    dict_sec = time_charges(dict_meter.charge)
    has_dict = hasattr(slotted, "__dict__")
    return {
        "iterations": iterations,
        "slotted_ns_per_op": round(slotted_sec / iterations * 1e9, 1),
        "dict_ns_per_op": round(dict_sec / iterations * 1e9, 1),
        "cost_meter_has_dict": has_dict,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny tables and relaxed thresholds, for CI",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_throughput.json at repo root)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        rows, span, repeats, trials = 800, 120, 4, 2
    else:
        rows, span, repeats, trials = 6400, 1200, 8, 3

    single: dict[str, dict] = {}
    multi: dict[str, dict] = {}
    for batch_size in BATCH_SIZES:
        best = best_of({
            "single": lambda: run_single_session(batch_size, rows, span, repeats),
            "multi": lambda: run_multi_session(batch_size, rows, span, repeats),
        }, trials)
        single[str(batch_size)] = best["single"]
        multi[str(batch_size)] = best["multi"]
        print(
            f"batch {batch_size:4d}: "
            f"single {single[str(batch_size)]['rows_per_sec']:>10.1f} rows/s  "
            f"4-session {multi[str(batch_size)]['rows_per_sec']:>10.1f} rows/s"
        )

    io_equivalent = (
        len({result["io_total"] for result in single.values()}) == 1
        and len({result["io_total"] for result in multi.values()}) == 1
    )
    speedup = {
        "single_session": round(
            single["64"]["rows_per_sec"] / single["1"]["rows_per_sec"], 2
        ),
        "multi_session_4": round(
            multi["64"]["rows_per_sec"] / multi["1"]["rows_per_sec"], 2
        ),
    }
    report = {
        "batch_sizes": BATCH_SIZES,
        "workload": {
            "rows": rows, "span": span, "repeats": repeats, "trials": trials,
            "sessions": N_SESSIONS,
        },
        "single_session": single,
        "multi_session_4": multi,
        "speedup_batch64_vs_1": speedup,
        "io_equivalent": io_equivalent,
        "slots": measure_slots_delta(20_000 if args.smoke else 200_000),
        "smoke": args.smoke,
    }

    out_path = args.out or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_throughput.json"
    )
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"\nwrote {os.path.normpath(out_path)}")
    print(f"speedup at batch 64 vs 1: {speedup}")

    # -- gates ---------------------------------------------------------------
    failures = []
    written = json.load(open(out_path))
    for key in REQUIRED_KEYS:
        if key not in written:
            failures.append(f"missing key in JSON: {key}")
    if not io_equivalent:
        failures.append("io_total differs across batch sizes (accounting broke)")
    if speedup["multi_session_4"] < 1.0:
        failures.append("batch 64 slower than batch 1 on the 4-session workload")
    if not args.smoke and speedup["multi_session_4"] < 3.0:
        failures.append(
            f"4-session speedup {speedup['multi_session_4']}x below the 3x target"
        )
    if report["slots"]["cost_meter_has_dict"]:
        failures.append("CostMeter grew a __dict__ — slots=True regressed")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
