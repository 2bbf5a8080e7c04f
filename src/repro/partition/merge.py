"""Gather-side merge operators.

Each partition fetch delivers an independent ``(rows, rids)`` run. Sscan
goals (the request carries ``order_by``) merge the runs in key order:
every partition already delivered in order, so a stable sort over their
concatenation *is* the ordered k-way merge. Tscan goals take the bag union
in partition order, which keeps the output deterministic.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from repro.storage.rid import RID

#: one partition's delivered output
Run = tuple[list[tuple], list[RID]]


def bag_union(runs: Sequence[Run]) -> Run:
    """Concatenate runs in partition order (unordered goals)."""
    rows: list[tuple] = []
    rids: list[RID] = []
    for part_rows, part_rids in runs:
        rows.extend(part_rows)
        rids.extend(part_rids)
    return rows, rids


def merge_sorted_runs(runs: Sequence[Run], key_positions: Sequence[int]) -> Run:
    """Ordered k-way merge of per-partition sorted runs.

    ``key_positions`` are the ``order_by`` columns' positions in the
    delivered row tuples. Ties across partitions break by partition
    index, so the merged order is total and deterministic: the runs are
    concatenated in partition order and sorted *stably* on the key columns
    alone, so equal keys keep partition order, then run order — and only
    keys are ever compared, never the rest of a row.
    """
    rows, rids = bag_union(runs)
    if not key_positions:
        return rows, rids
    keys = list(map(itemgetter(*key_positions), rows))
    order = sorted(range(len(rows)), key=keys.__getitem__)
    return [rows[i] for i in order], [rids[i] for i in order]
