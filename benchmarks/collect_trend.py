"""Fold the per-run ``BENCH_*.json`` artifacts into one ``BENCH_trend.json``.

Each benchmark writes an independent JSON report at the repository root
(``BENCH_throughput.json``, ``BENCH_trace_overhead.json``,
``BENCH_prepare.json``, ``BENCH_monitor_overhead.json``, ...). CI uploads
them individually, which makes cross-run comparison a download-and-diff
chore. This collector gathers every ``BENCH_*.json`` present into a
single document keyed by benchmark name, with a small headline block per
benchmark (the one number you would plot) so a trend dashboard — or a
human with two artifacts side by side — can diff runs without knowing
each report's internal shape.

Usage::

    python benchmarks/collect_trend.py            # writes BENCH_trend.json
    python benchmarks/collect_trend.py --check    # also exit 1 if none found

The collector never fails on a missing or malformed individual report
(a partial benchmark run still produces a useful trend file); malformed
files are recorded under ``errors``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: per-benchmark headline extractors: name -> (json path, metric label),
#: or a list of such pairs when one report carries several plottable numbers
HEADLINES = {
    "throughput": ("multi_session_4.64.rows_per_sec", "rows/sec @ batch 64"),
    "trace_overhead": (
        "overhead_rate0_vs_reference_pct", "disabled-path overhead %"
    ),
    "prepare": ("speedup_at_repeat_16", "prepared/unprepared speedup"),
    "join_competition": (
        "competitive_ratio_vs_worst", "competition cost / worst static order"
    ),
    "estimation_quality": (
        "speedup", "variance-gated speedup vs always-compete"
    ),
    "monitor_overhead": [
        ("overhead_pct", "monitoring-on overhead %"),
        ("drift_detector.fired_on_shift", "drift detector fired on shift"),
        ("drift_detector.quiet_on_steady", "drift detector quiet on steady"),
    ],
}


def dig(report: dict, dotted: str):
    """Follow a dotted path through nested dicts; None when absent."""
    node = report
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def headlines(name: str, report: dict) -> list[dict]:
    spec = HEADLINES.get(name)
    if spec is None:
        return []
    specs = spec if isinstance(spec, list) else [spec]
    return [
        {"metric": label, "value": dig(report, path)} for path, label in specs
    ]


def collect(root: str) -> dict:
    trend: dict = {"benchmarks": {}, "errors": {}}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        base = os.path.basename(path)
        if base == "BENCH_trend.json":
            continue
        name = base[len("BENCH_"):-len(".json")]
        try:
            with open(path) as handle:
                report = json.load(handle)
        except (OSError, ValueError) as error:
            trend["errors"][name] = str(error)
            continue
        entry = {"file": base, "report": report}
        heads = headlines(name, report)
        if heads:
            entry["headline"] = heads[0]
            if len(heads) > 1:
                entry["headlines"] = heads
        if isinstance(report, dict) and "smoke" in report:
            entry["smoke"] = report["smoke"]
        trend["benchmarks"][name] = entry
    return trend


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=None,
        help="directory holding BENCH_*.json (default: repository root)",
    )
    parser.add_argument(
        "--out", default=None,
        help="output path (default: BENCH_trend.json under --root)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when no benchmark reports were found",
    )
    args = parser.parse_args(argv)

    root = args.root or os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."
    )
    trend = collect(root)
    out_path = args.out or os.path.join(root, "BENCH_trend.json")
    with open(out_path, "w") as handle:
        json.dump(trend, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for name, entry in sorted(trend["benchmarks"].items()):
        heads = entry.get("headlines") or (
            [entry["headline"]] if entry.get("headline") else []
        )
        shown = [h for h in heads if h["value"] is not None]
        if shown:
            for head in shown:
                print(f"{name:>16}: {head['value']} ({head['metric']})")
        else:
            print(f"{name:>16}: collected ({entry['file']})")
    for name, error in sorted(trend["errors"].items()):
        print(f"{name:>16}: ERROR {error}", file=sys.stderr)
    print(f"wrote {os.path.normpath(out_path)} "
          f"({len(trend['benchmarks'])} benchmark(s))")

    if args.check and not trend["benchmarks"]:
        print("FAIL: no BENCH_*.json reports found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
