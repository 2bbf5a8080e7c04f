"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import connect
from repro.db.catalog import Column
from repro.db.session import Database
from repro.storage.buffer_pool import BufferPool, CostMeter
from repro.storage.pager import Pager


@pytest.fixture
def pager() -> Pager:
    return Pager()


@pytest.fixture
def buffer_pool(pager: Pager) -> BufferPool:
    return BufferPool(pager, capacity=64)


@pytest.fixture
def meter() -> CostMeter:
    return CostMeter(name="test")


@pytest.fixture
def db() -> Database:
    return Database(buffer_capacity=64)


@pytest.fixture
def conn(db: Database):
    return connect(db=db)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def people(db: Database):
    """A small table with one index, deterministic content."""
    table = db.create_table(
        "PEOPLE",
        [Column("ID", "int"), Column("AGE", "int"), Column("NAME", "str")],
        rows_per_page=8,
        index_order=4,
    )
    names = ["ann", "bob", "cid", "dot", "eve", "fay", "gus", "hal"]
    for i in range(80):
        table.insert((i, (i * 7) % 100, names[i % len(names)]))
    table.create_index("IX_AGE", ["AGE"])
    return table
