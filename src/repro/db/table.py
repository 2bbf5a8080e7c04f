"""The user-facing table API.

A :class:`Table` bundles a heap file, its schema, its B-tree indexes, and
the dynamic retrieval engine. ``select`` is the public retrieval call; the
static-optimizer baseline and SQL layer build on the same objects.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Mapping, Sequence

from repro.btree.tree import BTree
from repro.competition.process import drain
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.db.catalog import (
    Column,
    IndexInfo,
    TableSchema,
    TableStats,
)
from repro.engine.goals import OptimizationGoal
from repro.engine.initial import IterationContext
from repro.engine.retrieval import (
    RetrievalRequest,
    RetrievalResult,
    SingleTableRetrieval,
)
from repro.errors import CatalogError
from repro.expr.ast import ALWAYS_TRUE, Expr
from repro.obs.trace import Tracer
from repro.storage.buffer_pool import BufferPool, CostMeter, NULL_METER
from repro.storage.heap import HeapFile
from repro.storage.rid import RID, page_rids


class Table:
    """A named table with rows, indexes, and a dynamic retrieval engine."""

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        buffer_pool: BufferPool,
        rows_per_page: int = 32,
        index_order: int = 32,
        config: EngineConfig = DEFAULT_CONFIG,
    ) -> None:
        self.name = name
        self.schema = TableSchema(columns)
        self.buffer_pool = buffer_pool
        self.heap = HeapFile(buffer_pool, name, rows_per_page)
        self.indexes: dict[str, IndexInfo] = {}
        self.index_order = index_order
        self.config = config
        #: compile-time statistics (for the static-optimizer baseline)
        self.stats: TableStats | None = None
        #: per-query-shape iteration contexts (Section 5 order reuse)
        self._contexts: dict[Any, IterationContext] = {}
        #: DDL notification hook, set by the owning Database so index
        #: create/drop invalidates cached plans (None for standalone tables)
        self.on_schema_change: Any | None = None
        #: the retrieval engine over the current indexes and config (built
        #: on first use, dropped by index DDL)
        self._engine: SingleTableRetrieval | None = None

    # -- data definition ------------------------------------------------------

    def create_index(
        self,
        name: str,
        columns: Sequence[str],
        unique: bool = False,
        order: int | None = None,
    ) -> IndexInfo:
        """Create a B-tree index over ``columns`` and backfill it."""
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists")
        positions = tuple(self.schema.index_of(column) for column in columns)
        btree = BTree(
            self.buffer_pool,
            f"{self.name}.{name}",
            order or self.index_order,
        )
        info = IndexInfo(
            name=name,
            columns=tuple(columns),
            btree=btree,
            unique=unique,
            positions=positions,
        )
        # one pass over the heap pages gathers the (key, rid) entries, one
        # bottom-up build stores them
        heap, key_for = self.heap, info.key_for
        run = self.buffer_pool.read_ahead_window
        entries: list[tuple[tuple, RID]] = []
        for start in range(0, heap.page_count, run):
            for page_no, slots in enumerate(heap.scan_page_run(start, run), start):
                live = [slot for slot, row in enumerate(slots) if row is not None]
                keys = map(key_for, map(slots.__getitem__, live))
                entries.extend(zip(keys, page_rids(page_no, live)))
        btree.bulk_load(entries)
        self.indexes[name] = info
        self._engine = None
        if self.on_schema_change is not None:
            self.on_schema_change()
        return info

    def drop_index(self, name: str) -> None:
        """Remove an index, releasing its pages from cache and disk."""
        if name not in self.indexes:
            raise CatalogError(f"unknown index {name!r}")
        info = self.indexes.pop(name)
        self._engine = None
        pager = self.buffer_pool.pager
        for page in list(pager.pages_of(info.btree.name)):
            self.buffer_pool.evict(page.page_id)
            pager.free(page.page_id)
        if self.on_schema_change is not None:
            self.on_schema_change()

    # -- data manipulation -------------------------------------------------------

    def insert(self, values: Mapping[str, Any] | Sequence[Any], meter: CostMeter = NULL_METER) -> RID:
        """Insert one row (mapping or positional) and maintain all indexes."""
        if isinstance(values, Mapping):
            row = self.schema.row_from_mapping(values)
        else:
            row = self.schema.validate_row(tuple(values))
        rid = self.heap.insert(row, meter)
        for index in self.indexes.values():
            index.btree.insert(index.key_for(row), rid, meter)
        return rid

    def insert_many(self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]) -> int:
        """Bulk insert; returns the number of rows inserted."""
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def delete_rid(self, rid: RID, meter: CostMeter = NULL_METER) -> None:
        """Delete one row by RID, maintaining indexes."""
        row = self.heap.fetch(rid, meter)
        for index in self.indexes.values():
            index.btree.delete(index.key_for(row), rid, meter)
        self.heap.delete(rid, meter)

    @property
    def row_count(self) -> int:
        """Live rows."""
        return self.heap.row_count

    @property
    def page_count(self) -> int:
        """Heap pages (same surface as
        :class:`~repro.db.partitioned.PartitionedTable`)."""
        return self.heap.page_count

    # -- statistics ------------------------------------------------------------------

    def analyze(self, histogram_buckets: int = 10) -> TableStats:
        """Collect compile-time statistics (rescans the table).

        This is the maintenance cost Section 5 criticizes: the statistics
        are a snapshot and go stale, unlike the live B-tree descents the
        dynamic engine uses.
        """
        stats = TableStats.collect(self.schema.names, [self.heap], histogram_buckets)
        self.stats = stats
        return stats

    # -- retrieval ---------------------------------------------------------------------

    def retrieval_engine(self) -> SingleTableRetrieval:
        """The dynamic retrieval subsystem bound to this table (rebuilt
        after index DDL or a change of :attr:`config`)."""
        engine = self._engine
        if engine is None or engine.config is not self.config:
            engine = self._engine = SingleTableRetrieval(
                self.heap, self.schema, list(self.indexes.values()),
                self.buffer_pool, self.config,
            )
        return engine

    def context_for(self, key: Any) -> IterationContext:
        """The iteration context for one query shape (created on demand)."""
        if key not in self._contexts:
            self._contexts[key] = IterationContext()
        return self._contexts[key]

    def select(
        self,
        where: Expr = ALWAYS_TRUE,
        host_vars: Mapping[str, Any] | None = None,
        columns: Sequence[str] | None = None,
        order_by: Sequence[str] = (),
        limit: int | None = None,
        optimize_for: OptimizationGoal = OptimizationGoal.DEFAULT,
        context_key: Any = None,
        tracer: Tracer | None = None,
    ) -> RetrievalResult:
        """Run one dynamic retrieval.

        ``context_key`` opts into Section 5 iteration-context reuse: repeated
        selects with the same key start estimation from the previous run's
        index order.
        """
        return drain(
            self.select_steps(
                where=where,
                host_vars=host_vars,
                columns=columns,
                order_by=order_by,
                limit=limit,
                optimize_for=optimize_for,
                context_key=context_key,
                tracer=tracer,
            )
        )

    def select_steps(
        self,
        where: Expr = ALWAYS_TRUE,
        host_vars: Mapping[str, Any] | None = None,
        columns: Sequence[str] | None = None,
        order_by: Sequence[str] = (),
        limit: int | None = None,
        optimize_for: OptimizationGoal = OptimizationGoal.DEFAULT,
        context_key: Any = None,
        tracer: Tracer | None = None,
        predicate_cache: Any | None = None,
        feedback: Any | None = None,
        estimator: Any | None = None,
    ) -> Generator[RetrievalResult, None, RetrievalResult]:
        """:meth:`select` as a step generator.

        Yields the live :class:`RetrievalResult` after every engine step so
        the multi-query scheduler (:mod:`repro.server`) can interleave this
        retrieval with others over the shared buffer pool; closing the
        generator cancels the retrieval and releases its temp structures.
        ``tracer`` attaches the retrieval to a query-level span timeline.
        ``predicate_cache`` (a :class:`repro.cache.PredicateCache`) reuses
        compiled predicates across executions of a cached plan;
        ``feedback`` (a :class:`repro.cache.FeedbackStore`) sharpens
        initial estimates from previously observed cardinalities and
        records this retrieval's observations back.
        ``estimator`` (a :class:`repro.estimate.Estimator`) records
        q-errors at retirement and gates competition on estimate
        confidence.
        """
        request = RetrievalRequest(
            restriction=where,
            host_vars=dict(host_vars or {}),
            output_columns=tuple(columns) if columns is not None else None,
            order_by=tuple(order_by),
            limit=limit,
            goal=optimize_for,
            predicate_cache=predicate_cache,
            feedback=feedback,
            estimator=estimator,
        )
        context = self.context_for(context_key) if context_key is not None else None
        return self.retrieval_engine().run_steps(request, context, tracer)
