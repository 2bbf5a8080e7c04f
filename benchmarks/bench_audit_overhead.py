"""Decision-audit overhead budget: auditing off must be (nearly) free.

The decision audit (`repro.obs.audit`) adds one gated check per choice
point in the engine — `if audit.enabled:` against :data:`NULL_AUDIT` — and
the scheduler makes one `audit_enabled` test per submission. This
benchmark holds that instrumentation to the same <2% throughput budget as
tracing, on the identical workload: ``bench_throughput.py``'s 4-session
batched scan mix at ``batch_size=64``, min-of-N wall clocks on both
sides.

The gating reference is ``bench_throughput.run_multi_session`` itself,
re-measured *in this process with trials interleaved* against the audit
runs — one trial of each, round-robin — so machine-wide drift (thermal
throttling, noisy CI neighbors) hits both sides equally. A file-based
baseline recorded even a minute earlier can differ from a rerun of the
same code by far more than the budget on a shared runner; the
``BENCH_throughput.json`` number is still loaded and reported for the
record, without gating. The gate additionally self-calibrates: each sweep
times the reference workload twice, and the spread between those two
identical runs — measurement noise with the true overhead at exactly
zero — widens the budget, so a noisy runner degrades the gate's
sensitivity instead of producing false failures. When the gate still
looks breached, up to two more rounds of sweeps are folded into the
minima before failing (noise spikes confirm away; real regressions
don't).

It also gates the cost of auditing *everything* (``audit_enabled=True``)
to a hard ``AUDIT_ON_BUDGET_PCT`` (5%) over the audit-off run. Audit-on
queries no longer build a full span tree: unless sampled for tracing they
carry an ``AuditOnlyTracer`` (live audit log, no-op spans), and estimate
observations are ring-buffered with deferred materialization, which is
what brought the measured overhead down from ~14.5%. The benchmark still
asserts the observer contract directly: both runs must deliver the same
rows with byte-identical total I/O.

Results land in ``BENCH_audit_overhead.json`` at the repository root.

Usage::

    python benchmarks/bench_audit_overhead.py          # full workload, CI gate
    python benchmarks/bench_audit_overhead.py --smoke  # tiny tables

The budgets were set at full size. At ``--smoke`` size a statement
delivers 120 rows and the audit's fixed per-statement bookkeeping
(~26 us) is ~10% of it, so the audit-on gate fails there by design.

Exit status is non-zero when the JSON lacks required keys, the audit-off
overhead exceeds the budget, or the audited run's I/O differs from the
unaudited run's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

import repro
from bench_throughput import N_SESSIONS, band_sql, run_multi_session
from bench_trace_overhead import REFERENCE_BATCH, load_reference
from repro.config import DEFAULT_CONFIG

#: gate: the audit-off path may cost at most this fraction of throughput
OVERHEAD_BUDGET_PCT = 2.0
#: gate: auditing *everything* may cost at most this much vs audit-off.
#: Affordable always-on auditing is what the estimation program rides on
#: (q-errors are recorded at retirement through the same path), so the
#: audit-on run pays only for decision records and ring-buffered estimate
#: capture — not for span-tree construction (see AuditOnlyTracer).
AUDIT_ON_BUDGET_PCT = 5.0

REQUIRED_KEYS = [
    "workload",
    "reference",
    "audit_off",
    "audit_on",
    "recorded_reference_rows_per_sec",
    "overhead_off_vs_reference_pct",
    "overhead_on_vs_off_pct",
    "measured_noise_pct",
    "budget_pct",
    "smoke",
]


def interleaved_best_of(runs: dict, trials: int, best: dict | None = None) -> dict:
    """Min-of-N per labeled workload, trials interleaved round-robin.

    ``best_of`` back to back would measure each workload under *different*
    ambient machine conditions; round-robin interleaving gives every
    workload one trial per sweep, so drift is shared. Each sweep starts one
    label later than the one before, as ``ab_pairs.py`` flips which side
    goes first: a fixed order hands whichever label runs first a constant
    penalty (at full size the first of two identical reference runs was
    19–23 % slower in every sweep), which both skews its minimum and
    inflates the noise the gates calibrate on. Pass a previous result as
    ``best`` to fold further sweeps into the same minima.
    """
    best = dict(best) if best else {}
    labels = list(runs)
    for sweep in range(trials):
        shift = sweep % len(labels)
        for label in labels[shift:] + labels[:shift]:
            result = runs[label]()
            if label not in best or result["wall_sec"] < best[label]["wall_sec"]:
                best[label] = result
    return best


def build_connection(audit_enabled: bool, rows: int) -> repro.Connection:
    """The bench_throughput connection, plus the audit flag."""
    conn = repro.connect(
        buffer_capacity=128,
        config=DEFAULT_CONFIG.with_(
            batch_size=REFERENCE_BATCH, audit_enabled=audit_enabled
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
    return conn


def run_workload(audit_enabled: bool, rows: int, span: int, repeats: int) -> dict:
    """bench_throughput's 4-session workload with the audit on or off."""
    conn = build_connection(audit_enabled, rows)
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
    decisions = sum(conn.metrics.decisions.decisions.values())
    if audit_enabled:
        assert decisions > 0, "audit on but no decisions recorded"
    else:
        assert decisions == 0, "audit off but decisions recorded"
    return {
        "rows": delivered,
        "queries": len(handles),
        "io_total": sum(h.result.total_io for h in handles),
        "decisions_recorded": decisions,
        "wall_sec": round(elapsed, 6),
        "rows_per_sec": round(delivered / elapsed, 1),
        "queries_per_sec": round(len(handles) / elapsed, 2),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny tables (workload matches bench_throughput --smoke)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_audit_overhead.json at repo root)",
    )
    args = parser.parse_args(argv)

    # same table/query shape as bench_throughput; more repeats per trial
    # than its smoke run because a 2% gate needs trials long enough that
    # scheduler noise can't dominate the min-of-N floor
    if args.smoke:
        rows, span, repeats, trials = 800, 120, 16, 5
    else:
        rows, span, repeats, trials = 6400, 1200, 8, 5

    # "reference_b" times the identical reference workload a second time in
    # every sweep: the spread between the two is the runner's measurement
    # noise with the true overhead at exactly zero, and it calibrates the
    # gate — on a quiet machine it is ~0 and the budget applies as-is, on a
    # noisy one the gate widens by the demonstrated noise instead of flaking
    runs = {
        "reference": lambda: run_multi_session(
            REFERENCE_BATCH, rows, span, repeats
        ),
        "audit_off": lambda: run_workload(False, rows, span, repeats),
        "audit_on": lambda: run_workload(True, rows, span, repeats),
        "reference_b": lambda: run_multi_session(
            REFERENCE_BATCH, rows, span, repeats
        ),
    }
    # a wall-clock floor only converges from above: when the gate looks
    # breached, fold in more sweeps before believing it (a transient noise
    # spike can only be confirmed away, a real regression can't)
    best = interleaved_best_of(runs, trials)
    for _ in range(2):
        ratio = best["audit_off"]["wall_sec"] / best["reference"]["wall_sec"]
        on_ratio = best["audit_on"]["wall_sec"] / best["audit_off"]["wall_sec"]
        noise = abs(
            best["reference_b"]["wall_sec"] / best["reference"]["wall_sec"] - 1.0
        )
        if (ratio - 1.0) * 100 <= OVERHEAD_BUDGET_PCT + noise * 100 and (
            on_ratio - 1.0
        ) * 100 <= AUDIT_ON_BUDGET_PCT + noise * 100:
            break
        best = interleaved_best_of(runs, trials, best)
    reference, off, on = best["reference"], best["audit_off"], best["audit_on"]
    noise_pct = round(
        abs(best["reference_b"]["wall_sec"] / reference["wall_sec"] - 1.0) * 100,
        2,
    )
    io_identical = off["io_total"] == on["io_total"]

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    recorded_reference = load_reference(
        os.path.join(root, "BENCH_throughput.json"), rows
    )
    overhead_off = round(
        (1.0 - off["rows_per_sec"] / reference["rows_per_sec"]) * 100, 2
    )
    overhead_on = round(
        (1.0 - on["rows_per_sec"] / off["rows_per_sec"]) * 100, 2
    )
    report = {
        "workload": {
            "rows": rows, "span": span, "repeats": repeats, "trials": trials,
            "sessions": N_SESSIONS, "batch_size": REFERENCE_BATCH,
        },
        "reference": reference,
        "audit_off": off,
        "audit_on": on,
        "io_identical": io_identical,
        "recorded_reference_rows_per_sec": recorded_reference,
        "overhead_off_vs_reference_pct": overhead_off,
        "overhead_on_vs_off_pct": overhead_on,
        "measured_noise_pct": noise_pct,
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "audit_on_budget_pct": AUDIT_ON_BUDGET_PCT,
        "smoke": args.smoke,
    }

    out_path = args.out or os.path.join(root, "BENCH_audit_overhead.json")
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"reference (interleaved run_multi_session batch {REFERENCE_BATCH}): "
          f"{reference['rows_per_sec']:>10.1f} rows/s")
    print(f"audit off: {off['rows_per_sec']:>10.1f} rows/s "
          f"({overhead_off:+.2f}% vs reference, budget {OVERHEAD_BUDGET_PCT}% "
          f"+ measured noise {noise_pct}%)")
    print(f"audit on : {on['rows_per_sec']:>10.1f} rows/s "
          f"({overhead_on:+.2f}% vs off, "
          f"{on['decisions_recorded']} decisions recorded)")
    if recorded_reference is not None:
        print(f"for the record, BENCH_throughput.json said: "
              f"{recorded_reference:>10.1f} rows/s (not gated)")
    print(f"wrote {os.path.normpath(out_path)}")

    failures = []
    written = json.load(open(out_path))
    for key in REQUIRED_KEYS:
        if key not in written:
            failures.append(f"missing key in JSON: {key}")
    if not io_identical:
        failures.append(
            f"auditing changed physical I/O: off={off['io_total']} "
            f"on={on['io_total']} (the audit must be a pure observer)"
        )
    if overhead_off > OVERHEAD_BUDGET_PCT + noise_pct:
        failures.append(
            f"audit-off path costs {overhead_off}% "
            f"(> {OVERHEAD_BUDGET_PCT}% budget + {noise_pct}% measured noise)"
        )
    if overhead_on > AUDIT_ON_BUDGET_PCT + noise_pct:
        failures.append(
            f"audit-on path costs {overhead_on}% vs off "
            f"(> {AUDIT_ON_BUDGET_PCT}% budget + {noise_pct}% measured noise)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
