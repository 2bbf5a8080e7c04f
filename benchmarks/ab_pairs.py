#!/usr/bin/env python3
"""Parent against change, in alternating pairs: ``ab_pairs.py --workload W``.

    python3 benchmarks/ab_pairs.py --workload analytic_mix_4s --seed 1993 --seed 7
    python3 benchmarks/ab_pairs.py --smoke --pairs 1            # CI: cannot rot

The protocol a performance claim has to follow (``choosing-metrics`` §8):
the parent commit is checked out into a ``git worktree``, and the repo
benchmark — ``benchmarks/e2e/run.py --workload W --seed S --trace 0``, each
side running *its own* copy — is run on parent and change in ``--pairs``
pairs, the side that goes first flipped from pair to pair. Per metric it
prints both medians with their quartiles, the ratio of the medians with its
base, the pairs the change won (ties count for neither side) and the
distance between the parent's own quartiles. A gain may be claimed where
the change wins at least nine tenths of the pairs *and* the medians differ
by more than that distance; the last column says whether both hold.

This script measures and prints; it gates nothing but correctness: it exits
1 when a run of either side gives a wrong answer or fails an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("benchmarks", "e2e", "run.py")


def directions() -> dict[str, str]:
    """End-to-end metric -> ``"lower"`` | ``"higher"``, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["better"] for m in json.load(handle)["end_to_end"]}


def run_once(tree: str, workload: str, seed: int, args) -> dict:
    """One end-to-end run of ``tree``'s own benchmark; its last-line JSON."""
    command = [sys.executable, os.path.join(tree, RUN), "--workload", workload,
               "--seed", str(seed), "--trace", "0"]
    if args.smoke:
        command.append("--smoke")
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=1800)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} exited with {done.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(workload: str, seed: int, parent: list[dict], change: list[dict]) -> bool:
    """Print the table of one (workload, seed); True when every run was right."""
    better = directions()
    pairs = len(parent)
    print(f"\n{workload}  seed {seed}  {pairs} pair(s)")
    print(f"{'metric':16s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'change/parent':>13s} {'won':>7s} {'parent q3-q1':>13s}  claimable")
    for metric, direction in better.items():
        a = [run["metrics"][metric]["value"] for run in parent]
        b = [run["metrics"][metric]["value"] for run in change]
        sign = 1 if direction == "higher" else -1
        won = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        ma, mb = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        spread = a3 - a1
        claimable = (pairs >= 10 and won * 10 >= 9 * pairs
                     and sign * (mb - ma) > spread)
        ratio = f"{mb / ma:10.3f}x" if ma else "        n/a"
        print(f"{metric:16s} {ma:12.4f} [{a1:9.4f},{a3:9.4f}] {mb:12.4f} [{b1:9.4f},{b3:9.4f}] "
              f"{ratio:>13s} {won:3d}/{pairs:<3d} {spread:13.4f}  "
              f"{'yes' if claimable else 'no'}")
    wrong = [(side, run) for side, runs in (("parent", parent), ("change", change))
             for run in runs if not run["correct"] or run["failed"]]
    for side, run in wrong:
        print(f"  {side}: correct={run['correct']} failed={run['failed']}/{run['attempted']}")
    return not wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default analytic_mix_4s")
    parser.add_argument("--seed", action="append", type=int,
                        help="repeatable; default 1993 (run the held-out 7 as well "
                             "before claiming anything)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD^",
                        help="revision to check out as the parent (default HEAD^)")
    parser.add_argument("--parent-dir",
                        help="an existing checkout of the parent, instead of a worktree")
    parser.add_argument("--smoke", action="store_true", help="tiny tables: not evidence")
    parser.add_argument("--seconds", type=float, default=None,
                        help="passed through to run.py (its default otherwise)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    workloads = args.workload or ["analytic_mix_4s"]
    seeds = args.seed or [1993]

    worktree = None
    parent_tree = args.parent_dir
    if parent_tree is None:
        worktree = parent_tree = tempfile.mkdtemp(prefix="ab-parent-")
        subprocess.run(["git", "worktree", "add", "--detach", worktree, args.parent],
                       cwd=ROOT, check=True, capture_output=True)
    ok = True
    try:
        for workload in workloads:
            for seed in seeds:
                parent: list[dict] = []
                change: list[dict] = []
                for pair in range(args.pairs):
                    sides = [(parent_tree, parent), (ROOT, change)]
                    for tree, runs in sides if pair % 2 == 0 else reversed(sides):
                        runs.append(run_once(tree, workload, seed, args))
                ok &= report(workload, seed, parent, change)
    finally:
        if worktree is not None:
            subprocess.run(["git", "worktree", "remove", "--force", worktree],
                           cwd=ROOT, check=False, capture_output=True)
    if args.smoke:
        print("\nsmoke run: not evidence")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
