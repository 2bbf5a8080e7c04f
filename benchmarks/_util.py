"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's figures or quantitative
claims, prints a "paper says / we measure" table, and appends it to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote it. The
pytest-benchmark fixture wraps the computation (one round — these are
experiment harnesses, not microbenchmarks).
"""

from __future__ import annotations

import io
import os
from typing import Callable

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


class Report:
    """Collects experiment output and mirrors it to a results file."""

    def __init__(self, name: str, title: str) -> None:
        self.name = name
        self.buffer = io.StringIO()
        self.line("=" * 72)
        self.line(title)
        self.line("=" * 72)

    def line(self, text: str = "") -> None:
        """Append one line (also echoed to stdout at save time)."""
        self.buffer.write(text + "\n")

    def table(self, headers: list[str], rows: list[list], widths: list[int] | None = None) -> None:
        """Append a fixed-width table."""
        if widths is None:
            widths = [
                max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) + 2
                if rows
                else len(str(headers[i])) + 2
                for i in range(len(headers))
            ]
        def fmt(cells):
            return "".join(str(cell).rjust(width) for cell, width in zip(cells, widths))
        self.line(fmt(headers))
        self.line(fmt(["-" * (width - 2) for width in widths]))
        for row in rows:
            self.line(fmt(row))

    def save(self) -> str:
        """Write the report file and print it."""
        os.makedirs(RESULTS_DIR, exist_ok=True)
        text = self.buffer.getvalue()
        path = os.path.join(RESULTS_DIR, f"{self.name}.txt")
        with open(path, "w") as handle:
            handle.write(text)
        print("\n" + text)
        return text


def run_once(benchmark, fn: Callable[[], object]):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def best_of(
    runs: dict[str, Callable[[], dict]], trials: int, best: dict | None = None
) -> dict[str, dict]:
    """Min-of-N wall clock per labeled workload, trials interleaved.

    Each run returns a dict with ``wall_sec`` and ``io_total``; the fastest
    run of each label is kept, and a label's I/O total must never vary.
    Running one label's trials back to back would measure each workload
    under *different* ambient machine conditions; round-robin interleaving
    gives every workload one trial per sweep, so drift is shared. Each
    sweep starts one label later than the one before, as ``ab_pairs.py``
    flips which side goes first: a fixed order hands whichever label runs
    first a constant penalty (at full size the first of two identical
    reference runs was 19–23 % slower in every sweep). Pass a previous
    result as ``best`` to fold further sweeps into the same minima.
    """
    best = dict(best) if best else {}
    labels = list(runs)
    for sweep in range(trials):
        shift = sweep % len(labels)
        for label in labels[shift:] + labels[:shift]:
            result = runs[label]()
            previous = best.get(label)
            if previous is not None:
                assert result["io_total"] == previous["io_total"], (
                    f"{label}: io varies across trials"
                )
                if result["wall_sec"] >= previous["wall_sec"]:
                    continue
            best[label] = result
    return best
