"""Databases: tables, buffer pool, the server-wide caches.

A :class:`Database` owns the simulated disk and buffer pool shared by all
of its tables — sharing is deliberate: the paper's Section 3(c) uncertainty
("the pattern of caching the disk pages is influenced by many asynchronous
processes") only exists because retrievals compete for one cache.
"""

from __future__ import annotations

import random
from typing import Any, Sequence

from repro.cache.feedback import FeedbackStore
from repro.cache.plan_cache import PlanCache
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import Column
from repro.db.partitioned import PartitionedTable
from repro.db.table import Table
from repro.estimate import Estimator
from repro.errors import CatalogError
from repro.partition.partitioner import PartitionSpec
from repro.partition.stats import PartitionStats
from repro.storage.buffer_pool import BufferPool
from repro.storage.pager import Pager

class Database:
    """A collection of tables over one simulated disk and buffer pool."""

    def __init__(
        self,
        buffer_capacity: int = 256,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> None:
        self.pager = Pager()
        self.buffer_pool = BufferPool(self.pager, buffer_capacity)
        self.config = config
        self.tables: dict[str, Table] = {}
        #: monotone counter bumped by every DDL statement; plan-cache
        #: entries carry the version they were built under, so any DDL
        #: implicitly invalidates every previously cached plan
        self.schema_version = 0
        #: server-wide LRU plan cache, shared by every session like the
        #: buffer pool (``config.plan_cache_size == 0`` disables it)
        self.plan_cache = PlanCache(config.plan_cache_size)
        #: adaptive selectivity feedback (estimated-vs-actual cardinality
        #: corrections); active only while the plan cache is enabled
        self.feedback = FeedbackStore(
            enabled=config.plan_cache_size > 0 and config.selectivity_feedback,
        )
        #: estimation-quality subsystem: per-signature q-error tracking,
        #: self-tuning histograms, and the variance-gated competition
        #: confidence score (:mod:`repro.estimate`)
        self.estimator = Estimator()
        #: SQL-level ``PREPARE name AS ...`` registry (name -> CachedPlan)
        self.prepared: dict[str, Any] = {}
        #: cache-interference knob: fraction of cache randomly evicted per
        #: interference tick (0 = a quiet system)
        self.interference_rate = 0.0
        self._interference_rng = random.Random(0xD1CE)
        #: scatter-gather aggregates for every partitioned table (wired
        #: onto the server's MetricsRegistry)
        self.partition_stats = PartitionStats()

    def schema_changed(self, table: str | None = None) -> None:
        """Note a DDL change: bump the schema version and eagerly drop the
        dependent cached plans and feedback entries."""
        self.schema_version += 1
        if table is None:
            self.plan_cache.clear()
            self.feedback.clear()
            self.estimator.clear()
        else:
            self.plan_cache.invalidate_table(table)
            self.feedback.invalidate_table(table)
            self.estimator.invalidate_table(table)

    # -- DDL -------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column | tuple[str, str]] | Sequence[str],
        rows_per_page: int = 32,
        index_order: int = 32,
        partition_by: PartitionSpec | None = None,
    ) -> Table | PartitionedTable:
        """Create a table. Columns may be Column objects, (name, type)
        tuples, or bare names (typed int). ``partition_by`` creates a
        hash/range-partitioned table whose retrievals scatter-gather
        across per-partition engines (:mod:`repro.partition`)."""
        if name in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        normalized: list[Column] = []
        for column in columns:
            if isinstance(column, Column):
                normalized.append(column)
            elif isinstance(column, tuple):
                normalized.append(Column(*column))
            else:
                normalized.append(Column(column))
        table: Table | PartitionedTable
        if partition_by is not None:
            table = PartitionedTable(
                name, normalized, partition_by, self,
                rows_per_page=rows_per_page, index_order=index_order,
                config=self.config,
            )
        else:
            table = Table(
                name, normalized, self.buffer_pool,
                rows_per_page=rows_per_page, index_order=index_order,
                config=self.config,
            )
        self.tables[name] = table
        # index DDL on the table must invalidate cached plans too
        table.on_schema_change = lambda: self.schema_changed(name)
        self.schema_changed(name)
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def drop_table(self, name: str) -> None:
        """Remove a table, releasing its pages from cache and disk.

        The buffer pool and pager are shared by every table, so leaving a
        dropped table's heap and index pages behind would squat cache
        capacity and distort every later query's hit rate.
        """
        if name not in self.tables:
            raise CatalogError(f"unknown table {name!r}")
        table = self.tables.pop(name)
        if isinstance(table, PartitionedTable):
            for child in table.partitions:
                self._release_pages(child.heap.name, child.buffer_pool)
                for info in child.indexes.values():
                    self._release_pages(info.btree.name, child.buffer_pool)
        else:
            self._release_pages(table.heap.name)
            for info in table.indexes.values():
                self._release_pages(info.btree.name)
        self.schema_changed(name)

    def _release_pages(self, owner: str, pool: BufferPool | None = None) -> None:
        """Evict and free every page belonging to ``owner``."""
        cache = pool if pool is not None else self.buffer_pool
        for page in list(self.pager.pages_of(owner)):
            cache.evict(page.page_id)
            self.pager.free(page.page_id)

    # -- cache control ------------------------------------------------------------

    def interference_tick(self) -> int:
        """Simulate unrelated queries disturbing the cache (Section 3(c))."""
        if self.interference_rate <= 0:
            return 0
        return self.buffer_pool.evict_random(self.interference_rate, self._interference_rng)

    def cold_cache(self) -> None:
        """Drop the whole cache — the shared pool and every partition's
        private pool (benchmark cold starts)."""
        self.buffer_pool.clear()
        for table in self.tables.values():
            if isinstance(table, PartitionedTable):
                for child in table.partitions:
                    child.buffer_pool.clear()
