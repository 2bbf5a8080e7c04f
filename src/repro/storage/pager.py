"""Simulated disk and page registry.

Every persistent structure in the engine (heap files, B-tree nodes, temporary
tables) lives on numbered pages owned by a :class:`Pager`. Reading a page is
free if it is cached by the buffer pool; a miss charges one physical I/O to
the reading process's cost meter. This reproduces the paper's cost metric
(physical I/Os) without a real disk.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import PageNotFoundError


class PageKind(enum.Enum):
    """What a page stores; used for I/O accounting breakdowns."""

    HEAP = "heap"
    INDEX = "index"
    TEMP = "temp"

    #: members are singletons, so identity hashing keys the per-kind read
    #: counters exactly as ``Enum.__hash__`` (a Python-level hash of the
    #: name) does, without a Python call per physical read
    __hash__ = object.__hash__


@dataclass(slots=True)
class Page:
    """A simulated disk page.

    Payload is an arbitrary Python object (row list, B-tree node content,
    RID run). Pages have a fixed nominal capacity enforced by their owners,
    not by the page itself.
    """

    page_id: int
    kind: PageKind
    payload: Any = None
    #: Owning file tag, e.g. a table or index name (for traces and stats).
    owner: str = ""


@dataclass
class DiskStats:
    """Cumulative physical I/O counters for the simulated disk."""

    reads: int = 0
    writes: int = 0
    reads_by_kind: dict[PageKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in PageKind}
    )
    writes_by_kind: dict[PageKind, int] = field(
        default_factory=lambda: {kind: 0 for kind in PageKind}
    )

    def snapshot(self) -> "DiskStats":
        """Return a copy of the current counters."""
        copy = DiskStats(reads=self.reads, writes=self.writes)
        copy.reads_by_kind = dict(self.reads_by_kind)
        copy.writes_by_kind = dict(self.writes_by_kind)
        return copy


class Pager:
    """Owns all pages of a database and counts physical I/O.

    The pager is the "disk": reads and writes here are physical. Almost all
    access should instead go through :class:`repro.storage.buffer_pool
    .BufferPool`, which caches pages and only calls into the pager on a miss.
    """

    def __init__(self) -> None:
        self._pages: dict[int, Page] = {}
        self._next_page_id = 0
        self.stats = DiskStats()
        # one simulated disk sits behind several buffer pools (the shared
        # pool and each partition's private one); page allocation and the
        # physical I/O counters are the state they all share, so they take
        # the lock for an embedding application that drives the database
        # from threads of its own
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._pages)

    def allocate(self, kind: PageKind, owner: str = "", payload: Any = None) -> Page:
        """Create a new page and write it to disk.

        Allocation counts as one physical write (the page must reach disk).
        """
        with self._lock:
            page = Page(
                page_id=self._next_page_id, kind=kind, payload=payload, owner=owner
            )
            self._next_page_id += 1
            self._pages[page.page_id] = page
            self.stats.writes += 1
            self.stats.writes_by_kind[kind] += 1
        return page

    def read(self, page_id: int) -> Page:
        """Physically read a page; raises :class:`PageNotFoundError`."""
        try:
            page = self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None
        with self._lock:
            self.stats.reads += 1
            self.stats.reads_by_kind[page.kind] += 1
        return page

    def write(self, page: Page) -> None:
        """Physically write a page back to disk."""
        if page.page_id not in self._pages:
            raise PageNotFoundError(page.page_id)
        with self._lock:
            self._pages[page.page_id] = page
            self.stats.writes += 1
            self.stats.writes_by_kind[page.kind] += 1

    def free(self, page_id: int) -> None:
        """Drop a page (used when temporary tables are released)."""
        with self._lock:
            self._pages.pop(page_id, None)

    def exists(self, page_id: int) -> bool:
        """True if the page is currently allocated."""
        return page_id in self._pages

    def peek(self, page_id: int) -> Page:
        """Read a page without charging I/O or touching any cache.

        For invariant checks and test oracles only — query execution must go
        through the buffer pool so costs are attributed.
        """
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(page_id) from None

    def pages_of(self, owner: str) -> Iterator[Page]:
        """Iterate pages belonging to ``owner`` without charging I/O.

        Intended for assertions and tests, not for query execution.
        """
        for page in self._pages.values():
            if page.owner == owner:
                yield page
