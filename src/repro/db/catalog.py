"""Catalog: schemas, index metadata, and compile-time statistics.

The compile-time statistics (:class:`TableStats`) exist for the *baseline*:
the System R-style static optimizer estimates selectivities from equi-width
histograms collected at ``analyze()`` time — exactly the "widely known
estimation method based on storing the column distribution histograms" whose
drawbacks Section 5 lists (stale, rescan-dependent, range-only, blind to
small ranges). The dynamic engine instead estimates from the live B-trees.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Mapping, Sequence

from repro.btree.tree import BTree
from repro.errors import CatalogError

#: supported column types
COLUMN_TYPES = ("int", "float", "str")


@dataclass(frozen=True)
class Column:
    """A column definition."""

    name: str
    type: str = "int"

    def __post_init__(self) -> None:
        if self.type not in COLUMN_TYPES:
            raise CatalogError(f"unsupported column type {self.type!r}")


class TableSchema:
    """Ordered column list with name resolution and row validation."""

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise CatalogError("a table needs at least one column")
        names = [column.name for column in columns]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in {names}")
        self.columns = tuple(columns)
        #: column names in order
        self.names: tuple[str, ...] = tuple(names)
        self.position: dict[str, int] = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self.position

    def index_of(self, name: str) -> int:
        """Position of a column; raises :class:`CatalogError` when unknown."""
        try:
            return self.position[name]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None

    def row_from_mapping(self, values: Mapping[str, Any]) -> tuple:
        """Build a row tuple from a name->value mapping (missing -> None)."""
        unknown = set(values) - set(self.position)
        if unknown:
            raise CatalogError(f"unknown columns {sorted(unknown)}")
        return tuple(values.get(column.name) for column in self.columns)

    def validate_row(self, row: Sequence[Any]) -> tuple:
        """Check arity and primitive types; returns the row as a tuple."""
        if len(row) != len(self.columns):
            raise CatalogError(
                f"row arity {len(row)} != schema arity {len(self.columns)}"
            )
        for value, column in zip(row, self.columns):
            if value is None:
                continue
            if column.type == "int" and not isinstance(value, int):
                raise CatalogError(f"column {column.name!r} expects int, got {value!r}")
            if column.type == "float" and not isinstance(value, (int, float)):
                raise CatalogError(f"column {column.name!r} expects float, got {value!r}")
            if column.type == "str" and not isinstance(value, str):
                raise CatalogError(f"column {column.name!r} expects str, got {value!r}")
        return tuple(row)


@dataclass
class IndexInfo:
    """Metadata for one B-tree index."""

    name: str
    #: indexed column names, in key order
    columns: tuple[str, ...]
    btree: BTree
    unique: bool = False
    #: positions of the indexed columns in the table schema
    positions: tuple[int, ...] = ()
    #: extracts this index's key — always a tuple — from a row tuple
    key_for: Callable[[tuple], tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.positions) == 1:
            # one column: the slice row[p:p+1] is the 1-tuple (row[p],)
            (position,) = self.positions
            self.key_for = itemgetter(slice(position, position + 1))
        elif self.positions:
            self.key_for = itemgetter(*self.positions)
        else:
            self.key_for = lambda row: ()

    def covers(self, needed_columns: frozenset[str] | set[str]) -> bool:
        """True when the index contains every needed column (self-sufficiency)."""
        return set(needed_columns) <= set(self.columns)

    def provides_order(self, order_by: Sequence[str]) -> bool:
        """True when a forward scan of this index delivers the requested order."""
        if not order_by:
            return False
        return tuple(order_by) == self.columns[: len(order_by)]


class Histogram:
    """Equi-width histogram over one column (compile-time statistic)."""

    def __init__(self, values: Sequence[Any], buckets: int = 10) -> None:
        cleaned = sorted([v for v in values if v is not None])
        self.total = len(cleaned)
        self.buckets = buckets
        if not cleaned:
            self.lo = self.hi = None
            self.counts: list[int] = [0] * buckets
            self.edges: list[float] = []
            return
        self.lo, self.hi = cleaned[0], cleaned[-1]
        if isinstance(self.lo, str):
            # string histograms: bucket by rank, keep edges as sample keys
            step = max(1, len(cleaned) // buckets)
            edges = self.edges = [
                cleaned[min(i * step, len(cleaned) - 1)] for i in range(buckets + 1)
            ]

            def bucket(value: Any) -> int:
                return max(min(bisect.bisect_right(edges, value) - 1, buckets - 1), 0)
        else:
            lo = self.lo
            width = (self.hi - lo) / buckets if self.hi > lo else 1.0
            self.edges = [lo + i * width for i in range(buckets + 1)]

            def bucket(value: Any) -> int:
                return min(int((value - lo) / width), buckets - 1) if width else 0
        # ``bucket`` never decreases along the sorted values, so where each
        # bucket starts is a bisect, not a pass over every value
        starts = [0] + [bisect.bisect_left(cleaned, b, key=bucket) for b in range(1, buckets)]
        self.counts = [
            stop - start for start, stop in zip(starts, starts[1:] + [len(cleaned)])
        ]

    def selectivity_range(
        self, lo: Any | None, hi: Any | None
    ) -> float:
        """Estimated fraction of rows in [lo, hi] (inclusive, Nones open).

        This is the coarse compile-time estimate: linear interpolation
        within buckets, which is exactly what makes it blind to ranges
        narrower than a bucket (Section 5's critique).
        """
        if self.total == 0 or self.lo is None:
            return 0.0
        if isinstance(self.lo, str):
            # rank-based approximation for strings
            lo_rank = 0 if lo is None else bisect.bisect_left(self.edges, lo) / max(len(self.edges), 1)
            hi_rank = 1.0 if hi is None else bisect.bisect_right(self.edges, hi) / max(len(self.edges), 1)
            return max(0.0, min(1.0, hi_rank - lo_rank))
        span_lo = self.lo if lo is None else lo
        span_hi = self.hi if hi is None else hi
        if span_hi < span_lo:
            return 0.0
        if span_lo == span_hi:
            # a point query cannot be resolved below bucket granularity;
            # report the containing bucket's share (the histogram's
            # fundamental limitation that Section 5 criticizes)
            for index, count in enumerate(self.counts):
                if self.edges[index] <= span_lo <= self.edges[index + 1]:
                    return count / self.total
            return 0.0
        covered = 0.0
        for index, count in enumerate(self.counts):
            bucket_lo, bucket_hi = self.edges[index], self.edges[index + 1]
            width = bucket_hi - bucket_lo
            if width <= 0:
                if span_lo <= bucket_lo <= span_hi:
                    covered += count
                continue
            overlap = min(span_hi, bucket_hi) - max(span_lo, bucket_lo)
            if overlap > 0:
                covered += count * min(1.0, overlap / width)
        return min(1.0, covered / self.total)


@dataclass
class ColumnStats:
    """Compile-time statistics of one column."""

    histogram: Histogram
    distinct: int

    @property
    def eq_selectivity(self) -> float:
        """1/NDV estimate for equality predicates."""
        return 1.0 / self.distinct if self.distinct else 0.0


@dataclass
class TableStats:
    """Compile-time statistics of a table, built by ``Table.analyze()``."""

    row_count: int
    page_count: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    @classmethod
    def collect(
        cls, names: Sequence[str], heaps: Sequence[Any], histogram_buckets: int
    ) -> "TableStats":
        """Exact statistics of the live rows of ``heaps`` (a table's heap
        file, or one per partition), taken a page at a time."""
        values: list[list[Any]] = [[] for _ in names]
        for heap in heaps:
            # runs of one: a longer run stays pinned while it is read, which
            # can spare a re-read the row-by-row scan paid (1 in 34 922 reads
            # on ``ingest_churn``) — analyze promises the same reads
            for page_no in range(heap.page_count):
                (slots,) = heap.scan_page_run(page_no, 1)
                live = [row for row in slots if row is not None]
                for column, of_page in zip(values, zip(*live)):
                    column.extend(of_page)
        stats = cls(
            row_count=sum(heap.row_count for heap in heaps),
            page_count=sum(heap.page_count for heap in heaps),
        )
        for name, column in zip(names, values):
            distinct = set(column)
            distinct.discard(None)
            stats.columns[name] = ColumnStats(
                histogram=Histogram(column, histogram_buckets), distinct=len(distinct)
            )
        return stats
