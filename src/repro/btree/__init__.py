"""B+-tree indexes.

Rdb/VMS indexes are B-trees; the paper uses them both as access paths and as
"hierarchical histograms" (Figure 5). This package provides a page-backed
B+-tree (:mod:`repro.btree.tree`) and the descent-to-split-node range
estimator (:mod:`repro.btree.estimate`). Random sampling from B+-trees
([OlRo89] acceptance/rejection and the pseudo-ranked method [Ant92]), which
the paper points to as the successor of descent estimation but the engine
does not run, lives with the other reproduced claims in
``benchmarks/paper/sampling.py``.
"""

from repro.btree.estimate import RangeEstimate, estimate_range
from repro.btree.tree import BTree, KeyRange, RangeCursor

__all__ = [
    "BTree",
    "KeyRange",
    "RangeCursor",
    "RangeEstimate",
    "estimate_range",
]
