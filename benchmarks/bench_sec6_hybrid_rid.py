"""E8 — Section 6: hybrid RID-list storage regions.

    "A zero-long RID list causes an immediate shortcut action. Lists up to
    20 RIDs are stored in a small statically-allocated buffer ... Bigger
    lists are stored in the allocated buffer. Even bigger lists flow into a
    temporary table and set the bits in a bitmap ... Despite its
    simplicity, this 'hybrid' scan arrangement is quite advantageous due to
    the underlying L-shaped distribution."

Reproduced: RID-list sizes drawn from an L-shaped distribution land almost
entirely in the cheap regions (zero / static), so the expected storage
overhead per list stays near zero even though the worst case spills; a
naive always-spill arrangement pays temp-table writes for every list.
"""

import numpy as np

from _util import Report, run_once

from repro.competition.model import LShapedCost
from repro.config import EngineConfig
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.hybrid_list import HybridRidList, RidListRegion
from repro.storage.pager import Pager
from repro.storage.rid import make_rid
from repro.storage.temp_table import TempTable

LISTS = 2000


def experiment() -> dict:
    report = Report("sec6_hybrid", "Section 6 — hybrid RID-list storage regions")
    config = EngineConfig()  # static buffer 20, allocated 4096
    sizes_dist = LShapedCost.from_c_and_mean(c=3, mean=400)
    rng = np.random.default_rng(11)
    sizes = [int(s) for s in sizes_dist.sample(rng, LISTS)]
    report.line(f"\n{LISTS} RID lists, sizes ~ L-shape (median "
                f"{int(np.median(sizes))}, mean {int(np.mean(sizes))}, "
                f"max {max(sizes)})")

    pager = Pager()
    pool = BufferPool(pager, 1024)
    regions = {region: 0 for region in RidListRegion}
    hybrid_meter = CostMeter()
    for index, size in enumerate(sizes):
        hybrid = HybridRidList(pool, f"l{index}", config)
        for i in range(size):
            hybrid.add(make_rid(i, 0), hybrid_meter)
        regions[hybrid.region] += 1
        hybrid.discard()

    naive_meter = CostMeter()
    for index, size in enumerate(sizes):
        temp = TempTable(pool, f"n{index}", rids_per_page=512)
        for i in range(size):
            temp.append(make_rid(i, 0), naive_meter)
        temp._flush(naive_meter)
        temp.release()

    rows = [
        ["empty (shortcut)", regions[RidListRegion.EMPTY]],
        ["static buffer (<=20)", regions[RidListRegion.STATIC]],
        ["allocated buffer", regions[RidListRegion.ALLOCATED]],
        ["spilled (temp+bitmap)", regions[RidListRegion.SPILLED]],
    ]
    report.line()
    report.table(["final region", "lists"], rows)
    cheap = regions[RidListRegion.EMPTY] + regions[RidListRegion.STATIC]
    report.line(f"\n{cheap / LISTS:.0%} of lists never left the preallocated path")
    report.line(f"hybrid spill I/O: {hybrid_meter.io_writes} page writes; "
                f"naive always-spill: {naive_meter.io_writes} page writes "
                f"({naive_meter.io_writes / max(hybrid_meter.io_writes, 1):.1f}x)")
    assert cheap / LISTS > 0.5
    assert naive_meter.io_writes > hybrid_meter.io_writes

    # membership-filter correctness across regions (bitmap: no false negatives)
    hybrid = HybridRidList(pool, "check", config)
    members = [make_rid(i * 3, 1) for i in range(10_000)]
    for rid in members:
        hybrid.add(rid)
    assert hybrid.region is RidListRegion.SPILLED
    misses = sum(1 for rid in members if not hybrid.may_contain(rid))
    probes = [make_rid(i * 3 + 1, 2) for i in range(10_000)]
    false_positives = sum(1 for rid in probes if hybrid.may_contain(rid))
    report.line(f"\nspilled filter on 10k RIDs: {misses} false negatives (must be 0), "
                f"{false_positives / len(probes):.1%} false positives")
    assert misses == 0

    report.save()
    return {"cheap_fraction": cheap / LISTS}


def test_sec6_hybrid_rid_regions(benchmark):
    results = run_once(benchmark, experiment)
    assert results["cheap_fraction"] > 0.5
