"""Tests for end-to-end SQL execution."""

import pytest

import repro
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.errors import BindingError


@pytest.fixture
def db_with_data():
    db = Database(buffer_capacity=64)
    t = db.create_table("T", [("ID", "int"), ("GRP", "int"), ("VAL", "int")],
                        rows_per_page=8, index_order=8)
    for i in range(300):
        t.insert((i, i % 5, (i * 11) % 100))
    t.create_index("IX_GRP", ["GRP"])
    t.create_index("IX_VAL", ["VAL"])
    u = db.create_table("U", [("K", "int"),], rows_per_page=8)
    for k in (1, 3, 5, 7):
        u.insert((k,))
    return repro.connect(db=db)


def test_select_star(db_with_data):
    result = db_with_data.execute("select * from T where GRP = 2")
    assert result.columns == ("ID", "GRP", "VAL")
    assert len(result.rows) == 60
    assert all(row[1] == 2 for row in result.rows)


def test_projection(db_with_data):
    result = db_with_data.execute("select VAL, ID from T where ID < 3")
    assert result.columns == ("VAL", "ID")
    assert sorted(result.rows) == [(0, 0), (11, 1), (22, 2)]


def test_projection_of_one_column_yields_one_tuples(db_with_data):
    result = db_with_data.execute("select VAL from T where ID < 3")
    assert result.columns == ("VAL",)
    assert sorted(result.rows) == [(0,), (11,), (22,)]
    assert all(type(row) is tuple for row in result.rows)


def test_projection_may_repeat_and_reorder_columns(db_with_data):
    result = db_with_data.execute("select VAL, ID, VAL from T where ID < 3")
    assert result.columns == ("VAL", "ID", "VAL")
    assert sorted(result.rows) == [(0, 0, 0), (11, 1, 11), (22, 2, 22)]
    twice = db_with_data.execute("select ID, ID from T where ID = 7")
    assert twice.rows == [(7, 7)]


def test_host_vars(db_with_data):
    result = db_with_data.execute("select * from T where VAL >= :lo and VAL < :hi",
                                  {"lo": 10, "hi": 20})
    assert all(10 <= row[2] < 20 for row in result.rows)


def test_order_by_pushes_into_retrieval(db_with_data):
    result = db_with_data.execute("select ID, VAL from T where GRP = 1 order by VAL")
    values = [row[1] for row in result.rows]
    assert values == sorted(values)


def test_order_by_desc(db_with_data):
    result = db_with_data.execute("select ID from T where ID < 10 order by ID desc")
    assert [row[0] for row in result.rows] == list(reversed(range(10)))


def test_limit(db_with_data):
    result = db_with_data.execute("select * from T limit to 4 rows")
    assert len(result.rows) == 4


def test_limit_with_order(db_with_data):
    result = db_with_data.execute("select ID from T order by ID desc limit to 3 rows")
    assert [row[0] for row in result.rows] == [299, 298, 297]


def test_distinct(db_with_data):
    result = db_with_data.execute("select distinct GRP from T")
    assert sorted(row[0] for row in result.rows) == [0, 1, 2, 3, 4]


def test_aggregates(db_with_data):
    result = db_with_data.execute(
        "select count(*) as n, min(VAL) as lo, max(VAL) as hi, avg(GRP) as g from T"
    )
    assert result.columns == ("n", "lo", "hi", "g")
    n, lo, hi, g = result.rows[0]
    assert n == 300 and lo == 0 and hi == 99
    assert g == pytest.approx(2.0)


def test_count_on_empty_result(db_with_data):
    result = db_with_data.execute("select count(*) as n, max(VAL) as m from T where ID > 999")
    assert result.rows == [(0, None)]


def test_in_subquery(db_with_data):
    result = db_with_data.execute("select * from T where GRP in (select K from U) and ID < 20")
    assert all(row[1] in (1, 3) for row in result.rows)  # GRP in {1,3,5,7} ∩ [0,4]
    assert len(result.rows) == 8


def test_in_subquery_empty_inner(db_with_data):
    result = db_with_data.execute("select * from T where GRP in (select K from U where K > 100)")
    assert result.rows == []


def test_exists_true(db_with_data):
    result = db_with_data.execute("select count(*) as n from T where exists (select * from U)")
    assert result.rows[0][0] == 300


def test_exists_false(db_with_data):
    result = db_with_data.execute(
        "select * from T where exists (select * from U where K = 999)"
    )
    assert result.rows == []


def test_exists_subquery_pushed_limit(db_with_data):
    result = db_with_data.execute(
        "select count(*) as n from T where exists (select * from U where K >= 3)"
    )
    # inner retrieval ran with a forced limit of 1
    inner = [info for info in result.retrievals if info.table == "U"][0]
    assert inner.result.stopped_early
    assert inner.goal is OptimizationGoal.FAST_FIRST


def test_goal_inference_in_retrievals(db_with_data):
    result = db_with_data.execute("select ID from T order by ID limit to 2 rows")
    info = [info for info in result.retrievals if info.table == "T"][0]
    # sort is nearer than limit: total-time
    assert info.goal is OptimizationGoal.TOTAL_TIME


def test_statement_goal_overrides_parameter(db_with_data):
    result = db_with_data.execute(
        "select * from T where GRP = 2 optimize for fast first",
        goal=OptimizationGoal.TOTAL_TIME,
    )
    assert result.retrievals[0].goal is OptimizationGoal.FAST_FIRST


def test_unknown_table_raises(db_with_data):
    with pytest.raises(BindingError):
        db_with_data.execute("select * from NOPE")


def test_unknown_column_raises(db_with_data):
    with pytest.raises(BindingError):
        db_with_data.execute("select * from T where NOPE = 1")


def test_explain_output(db_with_data):
    text = db_with_data.explain(
        "select * from T where GRP in (select K from U) order by ID"
    ).text
    assert "retrieve T" in text
    assert "retrieve U" in text
    assert "goal" in text


def test_total_io_aggregates_retrievals(db_with_data):
    db_with_data.db.cold_cache()
    result = db_with_data.execute("select * from T where GRP in (select K from U)")
    assert result.total_io > 0
    assert result.total_cost >= result.total_io


def test_like_predicate(db_with_data):
    conn = db_with_data
    s = conn.create_table("S", [("NAME", "str")], rows_per_page=8)
    for name in ("alpha", "beta", "alphonse", "gamma"):
        s.insert((name,))
    result = conn.execute("select * from S where NAME like 'alph%'")
    assert sorted(row[0] for row in result.rows) == ["alpha", "alphonse"]
