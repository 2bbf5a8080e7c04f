"""The write path's rewrite must not move anything it promised to leave.

A table whose indexes exist *before* its rows arrive is built by
``BTree.insert`` in heap order — the tree ``create_index`` used to build by
backfilling row by row. So this module loads a ``conj_range``-shaped ORDERS
table that way (more rows than the pool holds pages), churns it with
``delete_rid`` and further inserts, analyzes it, and runs the benchmark's
two- and three-index conjunctive ranges over it. Rows, RIDs, costs, pager
reads, counters and event sequences are pinned to values recorded from the
commit before ``bulk_load``, the page-at-a-time ``analyze`` and the bisect
descents existed (``tests/golden/write_path.json``; ``python
tests/test_write_path_equivalence.py`` re-records it, which only a change
that *means* to move them may do).
"""

from __future__ import annotations

import hashlib
import json
import os
import random

import numpy as np

import repro
from repro.storage.buffer_pool import CostMeter
from repro.storage.rid import rid_page, rid_slot
from repro.workloads.generators import uniform_ints, zipf_ints

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "write_path.json")

COLUMNS = ("ONO", "CUSTOMER", "ODATE", "STATUS", "AMOUNT")
INDEXES = (
    ("IX_ONO", ["ONO"], True),
    ("IX_CUSTOMER", ["CUSTOMER"], False),
    ("IX_DATE", ["ODATE"], False),
    ("IX_AMOUNT", ["AMOUNT"], False),
)
ROWS = 3_000
TWO_AC = ("select * from ORDERS where AMOUNT between :A1 and :A2 "
          "and CUSTOMER between :C1 and :C2")
TWO_AD = ("select * from ORDERS where AMOUNT between :A1 and :A2 "
          "and ODATE between :D1 and :D2")
THREE = ("select * from ORDERS where AMOUNT between :A1 and :A2 "
         "and CUSTOMER between :C1 and :C2 and ODATE between :D1 and :D2")


def orders_rows(n: int, first: int = 0) -> list[tuple]:
    """ORDERS as the benchmark shapes it: ONO dense, ODATE clustered with
    insert order, CUSTOMER and STATUS Zipf-skewed, AMOUNT uniform."""
    values = np.random.default_rng(1993 + first)
    customers = zipf_ints(values, n, max(50, n // 20), skew=1.1)
    statuses = zipf_ints(values, n, 6, skew=1.5)
    amounts = uniform_ints(values, n, 1, 100_000)
    jitter = uniform_ints(values, n, 0, 3)
    return [
        (first + i, customers[i], 20_000 + ((first + i) * 2_000) // ROWS + jitter[i],
         statuses[i], amounts[i])
        for i in range(n)
    ]


class _PrintedRid(int):
    """An int RID printed as the ``RID(page=…, slot=…)`` named tuple the
    pinned digests were recorded from, so they still pin the same RIDs in
    the same order."""

    def __repr__(self) -> str:
        return f"RID(page={rid_page(self)}, slot={rid_slot(self)})"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _statements(rng: random.Random) -> list[tuple[str, dict]]:
    """Conjunctive ranges from two matching rows to most of the table."""
    out = []
    for i in range(48):
        width = (400, 4_000, 25_000, 70_000)[i % 4]
        a1 = rng.randrange(1, 100_000 - width)
        c1 = rng.randrange(0, 120)
        d1 = 20_000 + rng.randrange(0, 1_800)
        amount = {"A1": a1, "A2": a1 + width}
        customer = {"C1": c1, "C2": c1 + (2, 15, 80)[(i // 3) % 3]}
        date = {"D1": d1, "D2": d1 + (30, 250, 1_200)[(i // 4) % 3]}
        if i % 3 == 0:
            out.append((TWO_AC, {**amount, **customer}))
        elif i % 3 == 1:
            out.append((TWO_AD, {**amount, **date}))
        else:
            out.append((THREE, {**amount, **customer, **date}))
    return out


def _stats_fields(stats) -> dict:
    return {
        "row_count": stats.row_count,
        "page_count": stats.page_count,
        "columns": {
            name: {
                "distinct": column.distinct,
                "total": column.histogram.total,
                "lo": column.histogram.lo,
                "hi": column.histogram.hi,
                "counts": column.histogram.counts,
                "edges": column.histogram.edges,
            }
            for name, column in stats.columns.items()
        },
    }


def fingerprint() -> dict:
    """Everything parts (2) and (3) of the write-path rewrite must leave
    exactly as it was, for a table built by per-row ``BTree.insert``."""
    rng = random.Random(1993)
    conn = repro.connect(buffer_capacity=50)
    table = conn.create_table("ORDERS", [(c, "int") for c in COLUMNS],
                              rows_per_page=32, index_order=32)
    for name, columns, unique in INDEXES:
        table.create_index(name, columns, unique=unique)
    rids = [table.insert(row) for row in orders_rows(ROWS)]
    write_meter = CostMeter("writes")
    for victim in rng.sample(range(ROWS), 700):
        table.delete_rid(rids[victim], write_meter)
    rids += [table.insert(row, write_meter) for row in orders_rows(400, first=ROWS)]
    stats = table.analyze()
    pager = conn.db.pager
    out = {
        "trees": {
            name: [info.btree.height, info.btree.entry_count, info.btree.leaf_count,
                   sum(1 for _ in pager.pages_of(info.btree.name)),
                   _digest([(key, _PrintedRid(rid))
                            for key, rid in info.btree.entries()])]
            for name, info in table.indexes.items()
        },
        "rids": _digest(list(map(_PrintedRid, rids))),
        "write_meter": [write_meter.io_reads, write_meter.io_writes,
                        write_meter.buffer_hits, repr(write_meter.cpu)],
        "pager_after_load": [pager.stats.reads, pager.stats.writes],
        "stats": _stats_fields(stats),
        "queries": [],
    }
    conn.db.cold_cache()
    for sql, params in _statements(rng):
        result = conn.execute(sql, params)
        retrieval = result.retrievals[0].result
        out["queries"].append({
            "rows": len(result.rows),
            "rows_digest": _digest(result.rows),
            "rids_digest": _digest(list(map(_PrintedRid, retrieval.rids))),
            "description": retrieval.description,
            "costs": [repr(retrieval.estimation_cost), repr(retrieval.execution_cost),
                      retrieval.execution_io],
            "counters": _digest(retrieval.trace.counters),
            "events": " ".join(event.kind.name for event in retrieval.trace.events),
            "events_digest": _digest([(event.kind.name, event.detail)
                                      for event in retrieval.trace.events]),
            "pager_reads": pager.stats.reads,
        })
    return out


def test_insert_built_table_matches_the_parent_commit():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    got = json.loads(json.dumps(fingerprint()))
    for key in golden:
        if key != "queries":
            assert got[key] == golden[key], key
    for number, (mine, theirs) in enumerate(zip(got["queries"], golden["queries"])):
        assert mine == theirs, f"statement {number}"
    assert len(got["queries"]) == len(golden["queries"])
    # the statements must reach the machinery whose inputs the rewrite touches
    kinds = {kind for query in got["queries"] for kind in query["events"].split()}
    assert {"STRATEGY_SWITCH", "SCAN_ABANDONED"} <= kinds


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fingerprint(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN}")
