"""Tracing overhead budget: the disabled path must be (nearly) free.

Every span site in the engine now does one dynamic dispatch against
:data:`repro.obs.trace.NULL_TRACER` when tracing is off, and the scheduler
makes one sampling decision per submission. This benchmark holds that
instrumentation to a <2% throughput budget against the *uninstrumented*
baseline of ``bench_throughput.py`` — its 4-session batched scan mix at
``batch_size=64`` (:func:`bench_throughput.run_multi_session`), run here
as a third label of the same interleaved min-of-N rotation, so reference
and measurement share the machine's conditions instead of comparing with
figures another process wrote.

It also reports (without gating) the cost of tracing *everything*
(``trace_sample_rate=1.0``), which is allowed to be expensive: sampled
tracing exists precisely so the full price is paid only on the sampled
fraction.

Results land in ``BENCH_trace_overhead.json`` at the repository root.

Usage::

    python benchmarks/bench_trace_overhead.py          # full workload
    python benchmarks/bench_trace_overhead.py --smoke  # tiny tables, CI gate

Exit status is non-zero when the JSON lacks required keys or the rate-0
overhead exceeds the budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro
from _util import best_of
from bench_throughput import N_SESSIONS, band_sql, run_multi_session
from repro.config import DEFAULT_CONFIG

#: gate: disabled-path tracing may cost at most this fraction of throughput
OVERHEAD_BUDGET_PCT = 2.0
#: the throughput benchmark's batch size we compare against
REFERENCE_BATCH = 64

REQUIRED_KEYS = [
    "workload",
    "rate0",
    "rate1",
    "reference_rows_per_sec",
    "overhead_rate0_vs_reference_pct",
    "overhead_rate1_vs_rate0_pct",
    "budget_pct",
    "smoke",
]


def build_connection(sample_rate: float, rows: int) -> repro.Connection:
    """The bench_throughput connection, plus a trace sampling rate."""
    conn = repro.connect(
        buffer_capacity=128,
        config=DEFAULT_CONFIG.with_(batch_size=REFERENCE_BATCH),
        max_concurrency=N_SESSIONS,
        trace_sample_rate=sample_rate,
    )
    table = conn.create_table(
        "EVENTS", [("ID", "int"), ("V", "int")],
        rows_per_page=32, index_order=32,
    )
    table.insert_many((i, i % 97) for i in range(rows))
    table.create_index("IX_ID", ["ID"])
    table.analyze()
    return conn


def run_workload(sample_rate: float, rows: int, span: int, repeats: int) -> dict:
    """bench_throughput's 4-session workload under one sampling rate."""
    import time

    conn = build_connection(sample_rate, rows)
    sessions = [conn.session(f"s{i}") for i in range(N_SESSIONS)]
    for i, session in enumerate(sessions):  # warm-up (cache + code paths)
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
    traced = sum(1 for h in handles if h.tracer is not None)
    expected_traced = len(handles) if sample_rate >= 1.0 else 0
    assert traced == expected_traced, (traced, expected_traced)
    return {
        "rows": delivered,
        "queries": len(handles),
        "io_total": sum(h.result.total_io for h in handles),
        "traced_queries": traced,
        "wall_sec": round(elapsed, 6),
        "rows_per_sec": round(delivered / elapsed, 1),
        "queries_per_sec": round(len(handles) / elapsed, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny tables, for CI (workload matches bench_throughput --smoke)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_trace_overhead.json at repo root)",
    )
    args = parser.parse_args(argv)

    # identical to bench_throughput's parameters, so the reference run is
    # the same work; more trials than there because a 2% gate needs a
    # tight min-of-N floor
    if args.smoke:
        rows, span, repeats, trials = 800, 120, 4, 5
    else:
        rows, span, repeats, trials = 6400, 1200, 8, 5

    best = best_of({
        "reference": lambda: run_multi_session(REFERENCE_BATCH, rows, span, repeats),
        "rate0": lambda: run_workload(0.0, rows, span, repeats),
        "rate1": lambda: run_workload(1.0, rows, span, repeats),
    }, trials)
    rate0, rate1 = best["rate0"], best["rate1"]
    assert rate0["io_total"] == rate1["io_total"], "tracing changed I/O accounting"
    assert best["reference"]["io_total"] == rate0["io_total"], "not the reference's work"

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    reference = best["reference"]["rows_per_sec"]
    overhead_rate0 = round((1.0 - rate0["rows_per_sec"] / reference) * 100, 2)
    overhead_rate1 = round(
        (1.0 - rate1["rows_per_sec"] / rate0["rows_per_sec"]) * 100, 2
    )
    report = {
        "workload": {
            "rows": rows, "span": span, "repeats": repeats, "trials": trials,
            "sessions": N_SESSIONS, "batch_size": REFERENCE_BATCH,
        },
        "rate0": rate0,
        "rate1": rate1,
        "reference_rows_per_sec": reference,
        "overhead_rate0_vs_reference_pct": overhead_rate0,
        "overhead_rate1_vs_rate0_pct": overhead_rate1,
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "smoke": args.smoke,
    }

    out_path = args.out or os.path.join(root, "BENCH_trace_overhead.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"rate 0.0: {rate0['rows_per_sec']:>10.1f} rows/s")
    print(f"rate 1.0: {rate1['rows_per_sec']:>10.1f} rows/s "
          f"({overhead_rate1:+.2f}% vs rate 0)")
    print(f"reference (bench_throughput, batch {REFERENCE_BATCH}): "
          f"{reference:>10.1f} rows/s -> rate-0 overhead "
          f"{overhead_rate0:+.2f}% (budget {OVERHEAD_BUDGET_PCT}%)")
    print(f"wrote {os.path.normpath(out_path)}")

    failures = []
    written = json.load(open(out_path))
    for key in REQUIRED_KEYS:
        if key not in written:
            failures.append(f"missing key in JSON: {key}")
    if overhead_rate0 > OVERHEAD_BUDGET_PCT:
        failures.append(
            f"disabled-path tracing costs {overhead_rate0}% "
            f"(> {OVERHEAD_BUDGET_PCT}% budget)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
