"""Partitioned storage and scatter-gather retrieval.

The paper's Figure-4 architecture is a *pair* of processes racing
strategies over one table. This package generalizes that template to N
table partitions: a ``PARTITION BY HASH(col)`` /
``PARTITION BY RANGE(col)`` table stores its rows in per-partition heap
files and B-trees (each behind a private buffer pool), and one retrieval
fans out as independent per-partition retrievals — each running the full
dynamic engine, with its own initial stage, competition, and two-stage
switch rule, run one after another on the scheduler thread — whose
results are merged back into a single
:class:`~repro.engine.retrieval.RetrievalResult` (ordered k-way merge
when the request asks for order, bag union otherwise).

Cost accounting is conservative by construction: the merged result's
estimation/execution cost and physical I/O are exactly the sums of the
per-partition meters.
"""

from repro.partition.partitioner import (
    HashPartitioner,
    Partitioner,
    PartitionSpec,
    RangePartitioner,
    make_partitioner,
    partition_name,
    stable_hash,
)
from repro.partition.merge import bag_union, merge_sorted_runs
from repro.partition.scatter import PartitionFetch, ScatterInfo, scatter_steps
from repro.partition.stats import PartitionStats

__all__ = [
    "HashPartitioner",
    "Partitioner",
    "PartitionSpec",
    "RangePartitioner",
    "PartitionFetch",
    "PartitionStats",
    "ScatterInfo",
    "bag_union",
    "make_partitioner",
    "merge_sorted_runs",
    "partition_name",
    "scatter_steps",
    "stable_hash",
]
