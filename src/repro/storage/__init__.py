"""Simulated storage substrate.

The paper's cost metric is physical disk I/O. This package provides a
simulated disk (:mod:`repro.storage.pager`), an LRU buffer pool with
per-process miss attribution (:mod:`repro.storage.buffer_pool`), slotted-page
heap files addressed by RIDs (:mod:`repro.storage.heap`), and the RID-list
machinery used by Jscan: sorted RID buffers, hashed bitmap filters [Babb79],
spill temp tables, and the Section 6 "hybrid" RID list.
"""

from repro.storage.bitmap import BitmapFilter
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.heap import HeapFile
from repro.storage.hybrid_list import HybridRidList, RidListRegion
from repro.storage.pager import Page, Pager, PageKind
from repro.storage.rid import RID, SortedRidBuffer, make_rid, rid_page, rid_slot, yao_pages_touched
from repro.storage.temp_table import TempTable

__all__ = [
    "BitmapFilter",
    "BufferPool",
    "CostMeter",
    "HeapFile",
    "HybridRidList",
    "RidListRegion",
    "Page",
    "Pager",
    "PageKind",
    "RID",
    "SortedRidBuffer",
    "TempTable",
    "make_rid",
    "rid_page",
    "rid_slot",
    "yao_pages_touched",
]
