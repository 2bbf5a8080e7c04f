#!/usr/bin/env python3
"""Compare two full benchmark results: ``compare.py A.json B.json``.

A and B are documents written by ``run.py --out`` (or single lines of
``results/history.jsonl`` saved to a file); A is the base. One row is
printed per (end-to-end metric, workload): both values, the relative
difference with its base, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``         — B is no worse than A by more than the bound;
* ``worse``      — B is worse than A by more than the bound;
* ``unresolved`` — the run-to-run spread of either side is wider than the
  bound (so "no change" cannot be told from a regression), unless every
  run of B reads better than every run of A.

Exits 1 on any ``worse`` or any ``error_rate`` increase, 2 on unusable
input; results marked ``"smoke": true`` are refused.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_bounds(path: str | None = None) -> dict[str, tuple[str, float]]:
    """metric -> (better, bound) from BENCHMARK.json."""
    with open(path or os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def spread(runs: list[float]) -> float | None:
    """Run-to-run spread as a share of the median: the quartile distance
    with four or more runs, the range with two or three, else unknown."""
    if len(runs) < 2:
        return None
    median = statistics.median(runs)
    if median == 0:
        return None
    if len(runs) >= 4:
        q1, _, q3 = statistics.quantiles(runs, n=4)
        return (q3 - q1) / abs(median)
    return (max(runs) - min(runs)) / abs(median)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, relative difference of B against A)`` for one cell."""
    base, value = a["value"], b["value"]
    relative = (value - base) / base if base else 0.0
    worsening = relative if better == "lower" else -relative
    if worsening > bound:
        return "worse", relative
    spreads = [s for s in (spread(a.get("runs", [])), spread(b.get("runs", [])))
               if s is not None]
    if spreads and max(spreads) > bound:
        runs_a, runs_b = a["runs"], b["runs"]
        if better == "lower":
            separated = max(runs_b) < min(runs_a)
        else:
            separated = min(runs_b) > max(runs_a)
        if not separated:
            return "unresolved", relative
    return "ok", relative


def compare(doc_a: dict, doc_b: dict, bounds: dict[str, tuple[str, float]]):
    """Rows ``(metric, workload, a, b, relative, bound, verdict)``."""
    rows = []
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None:
            rows.append(("*", workload, 0.0, 0.0, 0.0, 0.0, "worse"))
            continue
        for metric, (better, bound) in bounds.items():
            cell_a = entry_a["end_to_end"].get(metric)
            cell_b = entry_b["end_to_end"].get(metric)
            if cell_a is None or cell_b is None:
                continue
            result, relative = verdict(cell_a, cell_b, better, bound)
            rows.append((metric, workload, cell_a["value"], cell_b["value"],
                         relative, bound, result))
        rate_a = entry_a["end_to_end"]["error_rate"]["value"]
        rate_b = entry_b["end_to_end"]["error_rate"]["value"]
        rows.append(("error_rate", workload, rate_a, rate_b, rate_b - rate_a, 0.0,
                     "worse" if rate_b > rate_a or not entry_b["correct"] else "ok"))
    return rows


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        text = handle.read().strip()
    document = json.loads(text.splitlines()[-1] if "\n" in text else text)
    if document.get("smoke"):
        raise SystemExit(f"{path}: smoke results are not evidence; refusing to compare")
    if "workloads" not in document:
        raise SystemExit(f"{path}: not a full benchmark result")
    return document


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        doc_a, doc_b = _load(argv[0]), _load(argv[1])
    except (OSError, ValueError) as error:
        print(f"compare.py: {error}", file=sys.stderr)
        return 2
    rows = compare(doc_a, doc_b, load_bounds())
    print(f"base A: {doc_a.get('git_sha', '?')[:12]} seed {doc_a.get('seed')}   "
          f"B: {doc_b.get('git_sha', '?')[:12]} seed {doc_b.get('seed')}")
    print(f"{'metric':16s} {'workload':16s} {'A':>14s} {'B':>14s} {'B vs A':>9s} "
          f"{'bound':>7s}  verdict")
    for metric, workload, a, b, relative, bound, result in rows:
        print(f"{metric:16s} {workload:16s} {a:14.4f} {b:14.4f} {relative * 100:+8.2f}% "
              f"{bound * 100:6.1f}%  {result}")
    bad = [row for row in rows if row[-1] == "worse"]
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} cells: {len(bad)} worse, {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
