#!/usr/bin/env python3
"""End-to-end benchmark of the dynamic optimizer: one command, every metric.

    python3 benchmarks/e2e/run.py                       # all workloads, both modes
    python3 benchmarks/e2e/run.py --smoke               # tiny tables, < 20 s
    python3 benchmarks/e2e/run.py --workload conj_range --seed 7 --seconds 15 --trace 0

With ``--workload`` one workload runs in this process and the last line of
standard output is the JSON object the driver reads: ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics. Without it
every workload runs in its own subprocess (so ``peak_rss_mb`` is not
inherited), once per mode, and the combined result is printed, optionally
written to ``--out``, and — unless ``--smoke`` — appended to
``results/history.jsonl``.

The system is driven through its public surface only, with
``DEFAULT_CONFIG``; see README.md for the protocol and the glossary.
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
SRC = os.path.join(ROOT, "src")

if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"benchmarks/e2e/run.py: no program to measure: {SRC}/repro is missing")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from harness import (  # noqa: E402
    Runner, Samples, best_of_rounds, percentile, quietest, supported_percentile)
from workloads import WORKLOADS  # noqa: E402

#: end-to-end metrics: name -> unit (bounds and directions live in BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cold_pass_ms": "ms",
    "io_per_op": "count",
    "peak_rss_mb": "MiB",
}
SETUPS_PER_RUN = 3
DEFAULT_SEED = 1993
HELD_OUT_SEED = 7


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Verdict:
    """Correctness of one run, accumulated over every runner it used."""

    def __init__(self) -> None:
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def close(self, runner: Runner, samples: list[Samples], log: list[str]) -> None:
        """Check the invariants of a finished runner and count its ops."""
        problems = runner.check_invariants(_sql_ops(samples))
        for problem in problems + runner.failures:
            log.append(f"FAILED: {problem}")
        self.correct &= not problems and runner.failed == 0
        self.attempted += runner.attempted
        self.failed += runner.failed


def _load(workload) -> tuple:
    """Set up, build the runner, and move everything that now exists into
    the collector's permanent generation, as a long-running server does
    once it is warm. A full collection over the loaded tables and the
    harness's own shadow copies (300k objects) takes 60-80 ms, comes about
    twice a round and lands on whatever is in flight - with four sessions,
    on four latencies at once, a different four for every seed. Garbage the
    statements make is collected as before."""
    gc.unfreeze()  # lets go of the previous set-up's database
    gc.collect()
    loaded = workload.setup()
    runner = Runner(workload, loaded)
    gc.collect()
    gc.freeze()
    return loaded, runner


def _sql_ops(samples_list: list[Samples]) -> int:
    table_calls = {"insert", "delete", "analyze"}
    return sum(1 for s in samples_list for cls in s.classes if cls not in table_calls)


def _pooled(rounds: list[Samples]) -> Samples:
    pooled = Samples()
    for r in rounds:
        pooled.latencies += r.latencies
        pooled.classes += r.classes
        pooled.finished += [pooled.wall + f for f in r.finished]
        pooled.wall += r.wall
    return pooled


def run_end_to_end(name: str, seed: int, seconds: float, smoke: bool, log: list[str]):
    """Three set-ups, each followed by its cold round; timed rounds on the
    last; checks."""
    workload = WORKLOADS[name](seed, smoke)
    verdict = Verdict()
    setups: list[float] = []
    colds: list[Samples] = []
    loaded = runner = None
    for _ in range(SETUPS_PER_RUN):
        # every set-up gets its own cold round (empty pool, empty plan
        # cache, nothing learned): setup_s is the median of three, the
        # cold pass the least disturbed of three; the previous database
        # is dropped first so peak RSS holds one
        if runner is not None:
            verdict.close(runner, colds[-1:], log)
        loaded = runner = None
        loaded, runner = _load(workload)
        setups.append(loaded.setup_s)
        loaded.conn.db.cold_cache()
        colds.append(runner.run_round())
    # memory and reads are taken after the first timed round - the same
    # work in every run; how many more rounds fit into ``seconds`` hangs on
    # the machine's speed, and ``ingest_churn`` grows a little with each
    rounds = [runner.run_round()]
    peak_rss_mb = _peak_rss_mb()
    rounds += runner.run_rounds(seconds - rounds[0].wall)
    verdict.close(runner, colds[-1:] + rounds, log)
    metrics = {
        "setup_s": statistics.median(setups),
        **best_of_rounds(rounds),
        "cold_pass_ms": quietest(colds)[1] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    timed = _pooled(rounds)
    q = supported_percentile(len(timed))
    log.append(
        f"{name}: seed={seed} {len(rounds)} timed rounds, {len(timed)} ops in "
        f"{timed.wall:.2f}s; cold rounds of {len(colds[0])} ops "
        f"{[round(c.wall, 3) for c in colds]}s; setups {[round(s, 3) for s in setups]}s")
    log.append(
        f"  pooled over rounds: {len(timed) * 5 // 100} samples beyond p95; highest "
        f"supported percentile p{q} = {percentile(timed.latencies, q) * 1e3:.3f} ms")
    log.append("  per round: qps " + " ".join(f"{len(r) / r.wall:.1f}" for r in rounds)
               + " | p95 ms " + " ".join(f"{percentile(r.latencies, 95) * 1e3:.1f}"
                                         for r in rounds)
               + " | reads/op " + " ".join(f"{r.reads / len(r):.3f}" for r in rounds))
    for cls, lat in sorted(timed.by_class().items()):
        log.append(f"  class {cls:18s} n={len(lat):6d} p50={statistics.median(lat) * 1e3:9.3f} ms"
                   f" share={sum(lat) / sum(timed.latencies) * 100:5.1f}%")
    return verdict, metrics


def run_traced(name: str, seed: int, seconds: float, smoke: bool, log: list[str]):
    """Set up once, cold round, untraced rounds, then the traced rounds."""
    import layers
    from trace import Tracer

    workload = WORKLOADS[name](seed, smoke)
    loaded, runner = _load(workload)
    conn = loaded.conn
    db = conn.db
    db.cold_cache()
    cold = runner.run_round()
    untraced = runner.run_rounds(seconds * 0.3)

    tracer = Tracer()
    tracer.calibrate()
    step_counts: dict[str, int] = {}
    multi = workload.sessions > 1
    db.estimator.take_recent()
    before = layers.snapshot(conn)
    tracer.install(lambda t: layers.wrap_plan(t, step_counts, multi))
    try:
        runner.tracer = tracer
        traced = runner.run_rounds(seconds * 0.7)
    finally:
        runner.tracer = None
        tracer.uninstall()
    counters = layers.delta(layers.snapshot(conn), before)
    qerrors = db.estimator.take_recent()
    verdict = Verdict()
    verdict.close(runner, [cold] + untraced + traced, log)

    ops = sum(len(r) for r in traced)
    traced_wall = sum(r.wall for r in traced)
    # single client: the root spans; several sessions: the virtual clock
    op_wall = traced_wall if multi else tracer.aggregates["harness.op"].total
    overhead_ratio = quietest(traced)[1] / quietest(untraced)[1]
    statements = sorted({op.sql for session in workload.round_ops(runner.round_no, loaded)
                         for op in session if op.sql})[:64]
    each = 0.03 if smoke else 0.3  # seconds per replayed leaf
    replays = {
        "parse_bind_us": layers.replay_parse_bind(db, statements, each),
        "eval_ns": tracer.replay("expr.eval", each),
        "pool_get_ns": tracer.replay("storage.pool_get", each, layers.resident_gets),
        "yao_ns": tracer.replay("storage.yao", each),
        "range_entries_per_s": layers.replay_range_entries(tracer, each),
    }
    class_p50 = {cls: statistics.median(lat) * 1e3
                 for cls, lat in _pooled(untraced).by_class().items()}
    metrics = layers.layer_metrics(
        tracer, counters, step_counts, ops, op_wall, overhead_ratio,
        class_p50, loaded.phases, qerrors,
        conn.metrics.totals().queue_wait.p95, replays)
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{name}.jsonl")
    tracer.write_jsonl(path, {"workload": name, "seed": seed, "smoke": smoke,
                              "ops": ops, "op_wall_s": op_wall})
    log.append(f"{name}: seed={seed} {len(traced)} traced rounds, {ops} ops, op wall "
               f"{op_wall:.2f}s; {len(untraced)} untraced rounds; {len(tracer.names)} spans "
               f"(+{tracer.dropped} beyond the cap) -> {os.path.relpath(path, ROOT)}")
    return verdict, metrics


def run_one(args) -> int:
    """``--workload`` mode: one workload in this process, JSON on the last line."""
    import layers

    log: list[str] = []
    if args.trace:
        verdict, values = run_traced(args.workload, args.seed, args.seconds,
                                     args.smoke, log)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
    else:
        verdict, values = run_end_to_end(args.workload, args.seed, args.seconds,
                                         args.smoke, log)
        units = END_TO_END
    for line in log:
        print(line)
    width = max(len(name) for name in values)
    for name, value in values.items():
        print(f"  {name:{width}s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": max(1, verdict.attempted),
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if verdict.correct else 1


# ---------------------------------------------------------------------------
# all workloads
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited with {done.returncode}")
    return json.loads(lines[-1])


def run_all(args) -> int:
    """Every workload, ``--repeat`` times per mode, each in its own process."""
    document = {
        "schema": 1,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "repeat": args.repeat,
        "smoke": args.smoke,
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        entry = {"correct": True, "attempted": 0, "failed": 0,
                 "end_to_end": {}, "per_layer": {}}
        runs: dict[str, list[float]] = {}
        for _ in range(args.repeat):
            result = _child(name, args.seed, args.seconds, 0, args.smoke)
            entry["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, cell in result["metrics"].items():
                runs.setdefault(metric, []).append(cell["value"])
        for metric, values in runs.items():
            entry["end_to_end"][metric] = {
                "value": statistics.median(values), "unit": END_TO_END[metric],
                "runs": values}
        entry["end_to_end"]["error_rate"] = {
            "value": entry["failed"] / entry["attempted"], "unit": "fraction",
            "runs": []}
        traced = _child(name, args.seed, args.seconds, 1, args.smoke)
        entry["correct"] &= traced["correct"]
        entry["per_layer"] = traced["metrics"]
        ok &= entry["correct"]
        document["workloads"][name] = entry
    line = json.dumps(document, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(line + "\n")
    if not args.smoke:
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, "history.jsonl"), "a", encoding="utf-8") as out:
            out.write(line + "\n")
    print()
    print(f"{'workload':16s} " + " ".join(f"{m:>15s}" for m in END_TO_END))
    for name, entry in document["workloads"].items():
        print(f"{name:16s} " + " ".join(
            f"{entry['end_to_end'][m]['value']:15.4f}" for m in END_TO_END)
            + ("" if entry["correct"] else "  INCORRECT"))
    print("smoke run: not evidence, not recorded" if args.smoke
          else "appended to benchmarks/e2e/results/history.jsonl")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured op time per run (default 10, smoke 0.5)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables; flagged, never recorded, refused by compare.py")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workloads mode: end-to-end runs per workload")
    parser.add_argument("--out", help="all-workloads mode: also write the result here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else 10.0
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
