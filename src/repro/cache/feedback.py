"""Adaptive selectivity feedback.

After each retrieval the engine knows, per index it actually scanned, how
many entries the range *really* contained — the quantity
descent-to-split-node estimation (Section 5) approximated before tactic
selection. This store keeps an exponentially-weighted running correction
per (table, index, predicate signature) and applies it to the next
execution's inexact initial estimates, in the spirit of adaptive
cardinality estimation: cached plans start from observed rather than
modelled selectivity.

The predicate *signature* abstracts host-variable values but keeps
literals, so every binding of one prepared statement shares a feedback
entry while textually different ad-hoc restrictions stay separate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from repro.expr import ast
from repro.expr.ast import Expr

#: EWMA weight of the newest actual/estimated observation when updating a
#: learned correction (1.0 = always trust the latest run)
FEEDBACK_ALPHA = 0.5


def predicate_signature(expr: Expr) -> str:
    """Structural signature of a restriction with host variables abstracted."""
    try:
        return _signature_cached(expr)
    except TypeError:  # unhashable expression — compute without the cache
        return _signature(expr)


@lru_cache(maxsize=2048)
def _signature_cached(expr: Expr) -> str:
    return _signature(expr)


def _signature(node: object) -> str:
    if isinstance(node, ast.ColumnRef):
        return node.name
    if isinstance(node, ast.Literal):
        return repr(node.value)
    if isinstance(node, ast.HostVar):
        return "?"
    if isinstance(node, ast.Comparison):
        return f"({node.op} {_signature(node.left)} {_signature(node.right)})"
    if isinstance(node, ast.Between):
        return (
            f"(between {_signature(node.column)}"
            f" {_signature(node.lo)} {_signature(node.hi)})"
        )
    if isinstance(node, ast.InList):
        return f"(in {_signature(node.column)} n={len(node.values)})"
    if isinstance(node, ast.Like):
        return f"(like {_signature(node.column)} {node.pattern!r})"
    if isinstance(node, ast.And):
        return "(and " + " ".join(_signature(child) for child in node.children) + ")"
    if isinstance(node, ast.Or):
        return "(or " + " ".join(_signature(child) for child in node.children) + ")"
    if isinstance(node, ast.Not):
        return f"(not {_signature(node.child)})"
    return type(node).__name__


@dataclass
class FeedbackEntry:
    """Learned correction for one (table, index, signature) key."""

    #: EWMA of observed actual/estimated cardinality ratios
    ratio: float
    samples: int = 1


class FeedbackStore:
    """Size-bounded LRU of estimated-vs-actual cardinality corrections.

    ``record`` folds one observation in; ``adjust`` returns the sharpened
    RID count for a fresh estimate, or ``None`` when nothing is known.
    With a single recorded sample the adjusted estimate *is* the observed
    cardinality (ratio = actual/estimated applied to the same estimate),
    which is what makes the second execution of a cached plan start from
    ground truth.
    """

    def __init__(
        self, capacity: int = 1024, alpha: float = FEEDBACK_ALPHA, enabled: bool = True
    ) -> None:
        self.capacity = capacity
        self.alpha = alpha
        self.enabled = enabled
        self._entries: OrderedDict[tuple, FeedbackEntry] = OrderedDict()
        self.records = 0
        self.adjustments = 0
        self.evictions = 0

    @property
    def size(self) -> int:
        return len(self._entries)

    def record(
        self,
        table: str,
        index_name: str,
        restriction: Expr,
        estimated: int,
        actual: int,
    ) -> None:
        """Fold one observed (estimated, actual) pair into the store."""
        if not self.enabled:
            return
        key = (table, index_name, predicate_signature(restriction))
        ratio = actual / max(estimated, 1)
        entry = self._entries.get(key)
        if entry is None:
            while len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = FeedbackEntry(ratio=ratio)
        else:
            entry.ratio += self.alpha * (ratio - entry.ratio)
            entry.samples += 1
            self._entries.move_to_end(key)
        self.records += 1

    def adjust(
        self, table: str, index_name: str, restriction: Expr, estimated: int
    ) -> int | None:
        """The corrected RID count for ``estimated``, or None if unknown."""
        if not self.enabled:
            return None
        key = (table, index_name, predicate_signature(restriction))
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self.adjustments += 1
        return max(0, round(estimated * entry.ratio))

    def snapshot_for(self, table: str) -> dict[tuple[str, str], float]:
        """Read-only {(index, signature): ratio} view of one table's entries.

        Used by scatter-gather to hand each partition fetch the parent
        table's learned corrections as of statement start, without
        sharing the mutable store. Does not touch LRU order.
        """
        return {
            (key[1], key[2]): entry.ratio
            for key, entry in self._entries.items()
            if key[0] == table
        }

    def invalidate_table(self, table: str) -> int:
        """Drop every entry learned for ``table`` (DDL invalidation)."""
        stale = [key for key in self._entries if key[0] == table]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()
