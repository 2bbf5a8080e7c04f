"""Fuzz tests: generated SQL must parse+execute correctly or fail cleanly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import connect
from repro.db.session import Database
from repro.errors import ReproError
from repro.sql.parser import parse

_column = st.sampled_from(["A", "B", "C"])
_value = st.integers(min_value=-5, max_value=120)
_op = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])

_predicate = st.one_of(
    st.builds(lambda c, o, v: f"{c} {o} {v}", _column, _op, _value),
    st.builds(lambda c, a, b: f"{c} between {min(a, b)} and {max(a, b)}",
              _column, _value, _value),
    st.builds(lambda c, vs: f"{c} in ({', '.join(map(str, vs))})",
              _column, st.lists(_value, min_size=1, max_size=4)),
)

_where = st.recursive(
    _predicate,
    lambda inner: st.one_of(
        st.builds(lambda a, b: f"({a} and {b})", inner, inner),
        st.builds(lambda a, b: f"({a} or {b})", inner, inner),
        st.builds(lambda a: f"not ({a})", inner),
    ),
    max_leaves=6,
)

_query = st.builds(
    lambda where, order, limit, goal: (
        "select * from T"
        + (f" where {where}" if where else "")
        + (f" order by {order}" if order else "")
        + (f" limit to {limit} rows" if limit else "")
        + (f" optimize for {goal}" if goal else "")
    ),
    st.one_of(st.none(), _where),
    st.one_of(st.none(), _column),
    st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
    st.one_of(st.none(), st.sampled_from(["fast first", "total time"])),
)


@pytest.fixture(scope="module")
def fuzz_db():
    db = Database(buffer_capacity=32)
    table = db.create_table(
        "T", [("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=6,
    )
    rng = np.random.default_rng(5)
    for _ in range(250):
        table.insert(
            (int(rng.integers(0, 50)), int(rng.integers(0, 120)), int(rng.integers(0, 10)))
        )
    table.create_index("IX_A", ["A"])
    table.create_index("IX_B", ["B"])
    return connect(db=db)


@given(_query)
@settings(max_examples=120, deadline=None)
def test_generated_queries_parse(sql):
    parse(sql)  # must not raise


@given(_query)
@settings(max_examples=80, deadline=None)
def test_generated_queries_execute_and_match_bruteforce(fuzz_db, sql):
    result = fuzz_db.execute(sql)
    # brute-force oracle via a plain table rescan with the same restriction
    table = fuzz_db.table("T")
    from repro.expr.eval import evaluate
    from repro.sql.parser import parse as _parse
    from repro.sql.plan import Retrieve, walk

    parsed = _parse(sql)
    retrieve = next(node for node in walk(parsed.plan) if isinstance(node, Retrieve))
    matching = [
        row for _, row in table.heap.scan()
        if retrieve.restriction is None
        or evaluate(retrieve.restriction, row, table.schema.position, {})
    ]
    if "limit" not in sql:
        assert sorted(result.rows) == sorted(matching)
    else:
        assert len(result.rows) <= 20
        assert set(result.rows) <= set(matching)
    if "order by" in sql:
        position = table.schema.index_of(sql.split("order by ")[1].split()[0])
        values = [row[position] for row in result.rows]
        assert values == sorted(values)


@given(st.text(max_size=40))
@settings(max_examples=120, deadline=None)
def test_arbitrary_text_never_crashes_unexpectedly(fuzz_db, text):
    try:
        fuzz_db.execute(f"select * from T where {text}")
    except ReproError:
        pass  # clean, typed failure is the contract
