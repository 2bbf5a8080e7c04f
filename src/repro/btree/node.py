"""B+-tree node structures.

Nodes are page payloads: visiting a node goes through the buffer pool and
may charge a physical read. Leaf entries are ``(key, rid)`` pairs kept in
``(key, rid)`` order, which makes duplicate keys well-ordered and deletion
exact. Internal nodes hold ``len(children) - 1`` separator keys; child ``i``
covers keys ``separators[i-1] <= k < separators[i]`` (with open ends).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.storage.rid import RID

#: Keys are tuples of column values (composite keys) — scalars are wrapped.
Key = tuple


@dataclass
class LeafNode:
    """A leaf page: sorted ``(key, rid)`` entries plus a right-sibling link."""

    page_id: int
    entries: list[tuple[Key, RID]] = field(default_factory=list)
    next_leaf: int | None = None

    is_leaf: bool = True

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class InternalNode:
    """An internal page: separator keys and child page ids.

    Separators are ``(key, rid)`` pairs too — separating on the full entry
    order makes duplicate-heavy trees split cleanly. The child whose range
    contains an entry is ``children[bisect_right(separators, entry)]``: every
    descent is that one C-level search per node.
    """

    page_id: int
    separators: list[tuple[Key, RID]] = field(default_factory=list)
    children: list[int] = field(default_factory=list)

    is_leaf: bool = False

    def __len__(self) -> int:
        return len(self.children)


Node = LeafNode | InternalNode


def normalize_key(key: Any) -> Key:
    """Wrap scalar keys into 1-tuples; pass tuples through."""
    if isinstance(key, tuple):
        return key
    return (key,)
