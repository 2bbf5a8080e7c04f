"""Continuous-monitoring overhead budget: always-on telemetry must be cheap.

The time-series monitor (`repro.obs.timeseries`) hooks the scheduler's
quantum loop: one integer compare per quantum, a wall-clock read every
``check_every`` quanta, and a full counter snapshot only when the sampling
interval has actually elapsed. This benchmark holds that always-on path to
a <2% throughput budget against the identical workload with monitoring
disabled (``monitor_interval=0``), min-of-N wall clocks on both sides.

Methodology follows ``_util.best_of``: the off and on runs are
measured *in this process with trials interleaved* so machine-wide drift
(thermal throttling, noisy CI neighbors) hits both sides equally, and each
sweep times the monitoring-off workload twice — the spread between those
two identical runs is the runner's measurement noise with the true
overhead at exactly zero, and it widens the budget so a noisy runner
degrades sensitivity instead of flaking. When the gate still looks
breached, up to two more rounds of sweeps are folded into the minima
before failing. The monitoring-on run must deliver byte-identical rows
(SHA-256 over the full delivered row stream) with byte-identical total
I/O: the monitor is a pure observer.

The report also carries the drift-detector acceptance scenario end to end:
a steady workload whose histogram-corrected estimates converge (the
q-error drift detector must stay quiet), then a bulk data change behind
the learned statistics' back (the detector must fire). Both halves gate.

Results land in ``BENCH_monitor_overhead.json`` at the repository root.

Usage::

    python benchmarks/bench_monitor_overhead.py          # full workload
    python benchmarks/bench_monitor_overhead.py --smoke  # tiny, CI gate

Exit status is non-zero when the JSON lacks required keys, the
monitoring-on overhead exceeds the budget, rows or I/O differ between the
runs, or the drift detector misbehaves in either scenario half.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro
from _util import best_of
from bench_throughput import N_SESSIONS, band_sql
from bench_trace_overhead import REFERENCE_BATCH
from repro.config import DEFAULT_CONFIG
from repro.obs import SteppingClock

#: gate: always-on monitoring may cost at most this fraction of throughput
OVERHEAD_BUDGET_PCT = 2.0
#: the monitoring-on arm samples aggressively (every 20ms — 12.5x the
#: default 250ms) so the gate prices real snapshot work, not an idle
#: hook; a ~50us counter snapshot at 50 samples/sec is ~0.3% by
#: construction, and the gate catches any regression that breaks that
MONITOR_INTERVAL = 0.02

REQUIRED_KEYS = [
    "workload",
    "monitor_off",
    "monitor_on",
    "rows_identical",
    "io_identical",
    "overhead_pct",
    "measured_noise_pct",
    "budget_pct",
    "drift_detector",
    "smoke",
]


def run_workload(monitor_enabled: bool, rows: int, span: int, repeats: int) -> dict:
    """bench_throughput's 4-session workload, monitoring on or off."""
    conn = repro.connect(
        buffer_capacity=128,
        config=DEFAULT_CONFIG.with_(
            batch_size=REFERENCE_BATCH,
            monitor_interval=MONITOR_INTERVAL if monitor_enabled else 0,
        ),
        max_concurrency=N_SESSIONS,
    )
    table = conn.create_table(
        "EVENTS", [("ID", "int"), ("V", "int")],
        rows_per_page=32, index_order=32,
    )
    table.insert_many((i, i % 97) for i in range(rows))
    table.create_index("IX_ID", ["ID"])
    table.analyze()
    sessions = [conn.session(f"s{i}") for i in range(N_SESSIONS)]
    for i, session in enumerate(sessions):  # warm-up (cache + code paths)
        session.submit(band_sql(i, rows, span))
    conn.server.run_until_idle()
    handles = []
    start = time.perf_counter()
    for _ in range(repeats):
        for i, session in enumerate(sessions):
            handles.append(session.submit(band_sql(i, rows, span)))
    conn.server.run_until_idle()
    elapsed = time.perf_counter() - start
    delivered = 0
    digest = hashlib.sha256()
    for handle in handles:
        result_rows = handle.result.rows
        delivered += len(result_rows)
        digest.update(repr(result_rows).encode())
    samples = conn.server.monitor.samples_taken if monitor_enabled else 0
    if monitor_enabled:
        assert conn.server.monitor is not None, "monitoring on but no monitor"
    else:
        assert conn.server.monitor is None, "monitoring off but monitor built"
    report = {
        "rows": delivered,
        "queries": len(handles),
        "io_total": sum(h.result.total_io for h in handles),
        "rows_sha256": digest.hexdigest(),
        "monitor_samples": samples,
        "wall_sec": round(elapsed, 6),
        "rows_per_sec": round(delivered / elapsed, 1),
        "queries_per_sec": round(len(handles) / elapsed, 2),
    }
    conn.close()
    return report


def drift_scenario(rows: int, steady_rounds: int, shift_rounds: int) -> dict:
    """The acceptance scenario: quiet while steady, fire on a data shift.

    Mirrors ``tests/test_monitor.py::TestDriftEndToEnd`` — self-tuning
    histograms learn absolute range cardinalities on the steady workload,
    then a bulk insert multiplies every queried range ~8x behind their
    back and the next round's q-errors jump until the histograms relearn.
    """
    clock = SteppingClock(auto=1e-6)
    conn = repro.connect(
        buffer_capacity=256,
        config=DEFAULT_CONFIG.with_(
            selectivity_feedback=False,
            monitor_interval=0.25,
            drift_min_intervals=3,
        ),
        clock=clock,
    )
    table = conn.create_table(
        "EVENTS", [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=16, index_order=16,
    )
    table.insert_many((i, i % 89, (i * 7) % 1000) for i in range(rows))
    table.create_index("IX_AB", ["A", "B"])
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    table.config = table.config.with_(shortcut_rid_count=0)
    span = rows // 4

    def run_round() -> None:
        for w in range(4):
            lo = w * span
            conn.execute(
                "select A, B from EVENTS"
                " where A >= :LO and A < :HI and B = :BV",
                {"LO": lo, "HI": lo + span, "BV": (w * 37) % 89},
            )
        clock.advance(0.3)
        conn.health()  # force one monitor window per round

    for _ in range(steady_rounds):
        run_round()
    health = conn.server.health_monitor
    steady_breaches = health.breaches.get("qerror-drift", 0)
    table.insert_many(
        (i % rows, (i * 11) % 89, i % 1000) for i in range(rows, rows * 8)
    )
    for _ in range(shift_rounds):
        run_round()
    shift_breaches = health.breaches.get("qerror-drift", 0) - steady_breaches
    incidents = health.incidents
    conn.close()
    return {
        "rows": rows,
        "steady_rounds": steady_rounds,
        "shift_rounds": shift_rounds,
        "steady_breaches": steady_breaches,
        "shift_breaches": shift_breaches,
        "incidents": incidents,
        "quiet_on_steady": steady_breaches == 0,
        "fired_on_shift": shift_breaches >= 1,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny tables, for CI (workload matches bench_throughput --smoke)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_monitor_overhead.json)",
    )
    args = parser.parse_args(argv)

    # longer timed sections than the trace bench: the trial must span many
    # sampling intervals for the on-arm to pay a representative number of
    # snapshots (a sub-interval trial would gate nothing)
    if args.smoke:
        rows, span, repeats, trials = 800, 120, 128, 5
        drift_rows, steady_rounds, shift_rounds = 1200, 8, 3
    else:
        rows, span, repeats, trials = 6400, 1200, 16, 5
        drift_rows, steady_rounds, shift_rounds = 2400, 10, 3

    # "monitor_off_b" times the identical off workload a second time each
    # sweep; the spread between the two off runs calibrates the gate
    runs = {
        "monitor_off": lambda: run_workload(False, rows, span, repeats),
        "monitor_on": lambda: run_workload(True, rows, span, repeats),
        "monitor_off_b": lambda: run_workload(False, rows, span, repeats),
    }
    best = best_of(runs, trials)
    for _ in range(2):
        ratio = best["monitor_on"]["wall_sec"] / best["monitor_off"]["wall_sec"]
        noise = abs(
            best["monitor_off_b"]["wall_sec"] / best["monitor_off"]["wall_sec"]
            - 1.0
        )
        if (ratio - 1.0) * 100 <= OVERHEAD_BUDGET_PCT + noise * 100:
            break
        best = best_of(runs, trials, best)
    off, on = best["monitor_off"], best["monitor_on"]
    noise_pct = round(
        abs(best["monitor_off_b"]["wall_sec"] / off["wall_sec"] - 1.0) * 100, 2
    )
    overhead = round((1.0 - on["rows_per_sec"] / off["rows_per_sec"]) * 100, 2)
    rows_identical = off["rows_sha256"] == on["rows_sha256"]
    io_identical = off["io_total"] == on["io_total"]

    drift = drift_scenario(drift_rows, steady_rounds, shift_rounds)

    report = {
        "workload": {
            "rows": rows, "span": span, "repeats": repeats, "trials": trials,
            "sessions": N_SESSIONS, "batch_size": REFERENCE_BATCH,
            "monitor_interval": MONITOR_INTERVAL,
        },
        "monitor_off": off,
        "monitor_on": on,
        "rows_identical": rows_identical,
        "io_identical": io_identical,
        "overhead_pct": overhead,
        "measured_noise_pct": noise_pct,
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "drift_detector": drift,
        "smoke": args.smoke,
    }

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    out_path = args.out or os.path.join(root, "BENCH_monitor_overhead.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"monitor off: {off['rows_per_sec']:>10.1f} rows/s")
    print(f"monitor on : {on['rows_per_sec']:>10.1f} rows/s "
          f"({overhead:+.2f}% vs off, budget {OVERHEAD_BUDGET_PCT}% "
          f"+ measured noise {noise_pct}%, "
          f"{on['monitor_samples']} samples taken)")
    print(f"rows {'identical' if rows_identical else 'DIFFER'}, "
          f"io {'identical' if io_identical else 'DIFFERS'}")
    print(f"drift detector: "
          f"{'quiet' if drift['quiet_on_steady'] else 'FIRED'} on steady "
          f"({drift['steady_breaches']} breaches), "
          f"{'fired' if drift['fired_on_shift'] else 'QUIET'} on shift "
          f"({drift['shift_breaches']} breaches, "
          f"{drift['incidents']} incidents)")
    print(f"wrote {os.path.normpath(out_path)}")

    failures = []
    written = json.load(open(out_path))
    for key in REQUIRED_KEYS:
        if key not in written:
            failures.append(f"missing key in JSON: {key}")
    if not rows_identical:
        failures.append("monitoring changed delivered rows (must be a pure "
                        "observer)")
    if not io_identical:
        failures.append(
            f"monitoring changed physical I/O: off={off['io_total']} "
            f"on={on['io_total']}"
        )
    if overhead > OVERHEAD_BUDGET_PCT + noise_pct:
        failures.append(
            f"monitoring-on costs {overhead}% "
            f"(> {OVERHEAD_BUDGET_PCT}% budget + {noise_pct}% measured noise)"
        )
    if on["monitor_samples"] <= 0:
        failures.append("monitoring-on run never sampled (gate is vacuous)")
    if not drift["quiet_on_steady"]:
        failures.append(
            f"q-error drift detector fired {drift['steady_breaches']}x on a "
            "steady workload"
        )
    if not drift["fired_on_shift"]:
        failures.append("q-error drift detector missed the data shift")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
