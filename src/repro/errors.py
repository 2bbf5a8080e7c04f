"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class StorageError(ReproError):
    """Errors raised by the storage layer (pager, buffer pool, heap files)."""


class PageNotFoundError(StorageError):
    """A page id was requested that the simulated disk has never written."""

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} does not exist on the simulated disk")
        self.page_id = page_id


class RecordNotFoundError(StorageError):
    """A RID referenced a slot that holds no record."""


class BTreeError(ReproError):
    """Errors raised by the B+-tree index implementation."""


class ExpressionError(ReproError):
    """Errors raised while building or evaluating predicate expressions."""


class BindingError(ReproError):
    """A name (table, column, host variable) could not be resolved."""

    def __init__(self, name: str, kind: str = "name") -> None:
        super().__init__(f"unknown {kind}: {name!r}")
        self.name = name
        self.kind = kind


class SqlSyntaxError(ReproError):
    """The SQL tokenizer or parser rejected the input text."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class CatalogError(ReproError):
    """Catalog inconsistencies: duplicate tables, unknown indexes, etc."""


class CompetitionError(ReproError):
    """Errors in the competition framework (Section 3)."""


class RetrievalError(ReproError):
    """Errors raised by the single-table retrieval engine (Sections 4-7)."""


class ServerError(ReproError):
    """Errors raised by the multi-query scheduler (:mod:`repro.server`)."""


class QueryCancelledError(ServerError):
    """The query was cancelled (explicitly or by its deadline) before
    producing a result."""
