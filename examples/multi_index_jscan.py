"""Jscan walkthrough: joint scan of three fetch-needed indexes (Section 6).

A PARTS table carries single-column indexes on COLOR, WEIGHT, and SIZE. An
AND-restriction over all three triggers Jscan: ranges are estimated by
descent to split node, indexes are scanned in ascending-selectivity order,
each scan's RID list is filtered by the previous one, and unproductive
scans are killed by the two-stage competition. The full event trace is
printed, then the same query is run through the statically-thresholded
Jscan of [MoHa90] and a plain Tscan for comparison.

Run:  python examples/multi_index_jscan.py
"""

import os
import sys

# the [MoHa90] static-threshold comparator lives in benchmarks/paper/ with
# the paper's other reproduced claims, not in the product package
sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks")
)

import repro
from paper.mohan_jscan import run_static_jscan
from repro import col
from repro.workloads.scenarios import build_parts_table


def main() -> None:
    conn = repro.connect(buffer_capacity=64)
    db = conn.db
    parts = build_parts_table(db, rows=6000)
    print(f"PARTS: {parts.row_count} rows over {parts.heap.page_count} pages, "
          f"indexes: {', '.join(parts.indexes)}")

    restriction = (
        (col("COLOR").eq(7)) & (col("WEIGHT") <= 200) & (col("SIZE") > 800)
    )
    print("\nrestriction: COLOR = 7 AND WEIGHT <= 200 AND SIZE > 800\n")

    db.cold_cache()
    dynamic = parts.select(where=restriction)
    print(f"dynamic Jscan: {len(dynamic.rows)} rows, {dynamic.execution_io} reads")
    print(dynamic.trace.format())

    db.cold_cache()
    mohan = run_static_jscan(parts, restriction, threshold_fraction=0.10)
    print(f"\n[MoHa90] static Jscan: {len(mohan.rows)} rows, {mohan.io} reads "
          f"({mohan.description})")

    db.cold_cache()
    tscan = parts.select(where=(col("COLOR") >= 0) & restriction)
    # (COLOR >= 0 keeps the same semantics; the point is the cost comparison)
    print(f"\nfor scale, full-table cost is about {parts.heap.page_count} reads")

    print("\nKey events to look for in the trace above:")
    print(" * initial-estimate: descent-to-split-node range estimates")
    print(" * indexes-ordered:  ascending estimated-RID scan order")
    print(" * simultaneous-pair / reordered: adjacent scans racing")
    print(" * scan-abandoned:   two-stage competition killing a scan")
    print(" * filter-built:     the running intersection advancing")


if __name__ == "__main__":
    main()
