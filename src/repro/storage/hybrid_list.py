"""The Section 6 "hybrid" RID list.

    "The RID list size quantity is split into several monotonically
    increasing regions. A zero-long RID list causes an immediate shortcut
    action. Lists up to 20 RIDs are stored in a small statically-allocated
    buffer ... Bigger lists are stored in the allocated buffer. Even bigger
    lists flow into a temporary table and set the bits in a bitmap ...
    Despite its simplicity, this "hybrid" scan arrangement is quite
    advantageous due to the underlying L-shaped distribution."

The list grows through regions as RIDs arrive. While in memory it acts as an
exact filter; once spilled, membership tests go through the hashed bitmap
(no false negatives). Most real lists are tiny (L-shape), so most retrievals
never pay allocation or spill costs.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator, Sequence

from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.storage.bitmap import BitmapFilter
from repro.storage.buffer_pool import BufferPool, CostMeter, NULL_METER
from repro.storage.rid import RID, SortedRidBuffer
from repro.storage.temp_table import TempTable


class RidListRegion(enum.Enum):
    """Which storage region the list currently occupies."""

    EMPTY = "empty"           # zero RIDs: shortcut region
    STATIC = "static"         # <= static_rid_buffer_size, preallocated buffer
    ALLOCATED = "allocated"   # heap-allocated in-memory buffer
    SPILLED = "spilled"       # temp table + bitmap filter


class HybridRidList:
    """A RID list that migrates across storage regions as it grows."""

    def __init__(
        self,
        buffer_pool: BufferPool,
        name: str,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> None:
        self.buffer_pool = buffer_pool
        self.name = name
        self.config = config
        self._static: list[RID] = []
        self._allocated: SortedRidBuffer | None = None
        self._temp: TempTable | None = None
        self._bitmap: BitmapFilter | None = None
        self._count = 0
        #: number of region transitions (exposed for the hybrid bench)
        self.allocations = 0
        self.spills = 0

    def __len__(self) -> int:
        return self._count

    @property
    def region(self) -> RidListRegion:
        """Current storage region."""
        if self._temp is not None:
            return RidListRegion.SPILLED
        if self._allocated is not None:
            return RidListRegion.ALLOCATED
        if self._static:
            return RidListRegion.STATIC
        return RidListRegion.EMPTY

    # -- building ----------------------------------------------------------

    def add(self, rid: RID, meter: CostMeter = NULL_METER) -> None:
        """Append a RID, migrating regions when thresholds are crossed."""
        if self._temp is not None:
            self._temp.append(rid, meter)
            self._bitmap.add(rid)
        elif self._allocated is not None:
            if self._count >= self.config.allocated_rid_buffer_size:
                self._spill(meter)
                self._temp.append(rid, meter)
                self._bitmap.add(rid)
            else:
                self._allocated.add(rid)
        elif len(self._static) >= self.config.static_rid_buffer_size:
            self._promote_to_allocated()
            self._allocated.add(rid)
        else:
            self._static.append(rid)
        self._count += 1

    def extend(self, rids: Sequence[RID], meter: CostMeter = NULL_METER) -> None:
        """Append many RIDs: exactly what :meth:`add` does for each, in
        order, with the part that stays in one in-memory region stored in
        one piece."""
        config = self.config
        at, end = 0, len(rids)
        while at < end:
            if self._temp is None:
                if self._allocated is None:
                    take = min(end - at, config.static_rid_buffer_size - len(self._static))
                    if take > 0:
                        self._static.extend(rids[at : at + take])
                else:
                    take = min(end - at, config.allocated_rid_buffer_size - self._count)
                    if take > 0:
                        self._allocated.extend(rids[at : at + take])
                if take > 0:
                    self._count += take
                    at += take
                    continue
            self.add(rids[at], meter)
            at += 1

    def room(self) -> int:
        """How many more RIDs :meth:`add` takes without writing a page: up
        to the spill in memory, up to the next full temp page once spilled."""
        config = self.config
        if self._temp is not None:
            temp = self._temp
            per_page = temp.rids_per_page
            return per_page - 1 - (len(temp) - temp.page_count * per_page)
        if self._allocated is not None:
            return max(0, config.allocated_rid_buffer_size - self._count)
        return (
            max(config.static_rid_buffer_size + 1, config.allocated_rid_buffer_size)
            - self._count
        )

    def _promote_to_allocated(self) -> None:
        self._allocated = SortedRidBuffer(self._static)
        self._static = []
        self.allocations += 1

    def _spill(self, meter: CostMeter) -> None:
        self._temp = TempTable(
            self.buffer_pool,
            f"{self.name}.spill",
            rids_per_page=self.config.temp_rids_per_page,
        )
        self._bitmap = BitmapFilter(self.config.bitmap_bits)
        for rid in self._allocated:
            self._temp.append(rid, meter)
            self._bitmap.add(rid)
        self._allocated = None
        self.spills += 1

    # -- filtering -----------------------------------------------------------

    def may_contain(self, rid: RID) -> bool:
        """Filter test. Exact while in memory; bitmap (no false negatives)
        once spilled."""
        if self._temp is not None:
            return rid in self._bitmap
        if self._allocated is not None:
            return rid in self._allocated
        return rid in self._static

    @property
    def is_exact_filter(self) -> bool:
        """True while membership tests cannot produce false positives."""
        return self.region is not RidListRegion.SPILLED

    # -- consuming -----------------------------------------------------------

    def iter_unsorted(self, meter: CostMeter = NULL_METER) -> Iterator[RID]:
        """Iterate RIDs in insertion order (reads spill pages if any)."""
        region = self.region
        if region is RidListRegion.STATIC:
            return iter(self._static)
        if region is RidListRegion.ALLOCATED:
            return iter(self._allocated)
        if region is RidListRegion.SPILLED:
            return self._temp.scan(meter)
        return iter(())

    def sorted_rids(self, meter: CostMeter = NULL_METER) -> list[RID]:
        """Materialize the list sorted for page-clustered fetching."""
        return sorted(self.iter_unsorted(meter))

    def refilter(self, keep: "Callable[[RID], bool]") -> int:
        """Drop in-place every RID failing ``keep``; returns the drop count.

        Only legal while the list is in memory — the Section 6 rationale for
        limiting simultaneous adjacent scans to the memory buffer is exactly
        that "the cost of refiltering the partial RID list against the
        winning scan filter is low only within main memory".
        """
        region = self.region
        if region is RidListRegion.SPILLED:
            raise RuntimeError("cannot refilter a spilled RID list in place")
        if region is RidListRegion.EMPTY:
            return 0
        if region is RidListRegion.STATIC:
            kept = list(filter(keep, self._static))
            dropped = len(self._static) - len(kept)
            self._static = kept
        else:
            dropped = self._allocated.keep_only(keep)
        self._count -= dropped
        return dropped

    def discard(self) -> None:
        """Throw the list away (an abandoned, non-competitive index scan)."""
        if self._temp is not None:
            self._temp.release()
        self._static = []
        self._allocated = None
        self._temp = None
        self._bitmap = None
        self._count = 0
