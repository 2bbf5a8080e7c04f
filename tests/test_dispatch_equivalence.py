"""Every single-table dispatch branch, pinned to the commit before the
strategy choice moved behind one ``decide()``.

One statement per branch of the choice — the unique-key probe (hit and
miss), the direct short range (total-time, and fast-first under a limit),
the provably empty shortcut, sorted-sscan, sorted, sscan-only, the
index-only race, the variance gate's trusted ``sscan`` and
``background-only``, background-only, fast-first, union-or and the Tscan —
plus every ``force_strategy`` name and the errors of the forces an
arrangement cannot support. For each: the description, the event kinds and
a digest of their details, digests of the rows and RIDs, the costs and
physical I/O, and the pager's read count after it. The pins live in
``tests/golden/dispatch.json``; ``python tests/test_dispatch_equivalence.py``
re-records it, which only a change that *means* to move a decision may do.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import repro.competition.process as process_module
import repro.engine.retrieval as retrieval_module
from repro.competition.process import drain
from repro.db.session import Database
from repro.engine.goals import OptimizationGoal
from repro.engine.retrieval import RetrievalRequest
from repro.errors import RetrievalError
from repro.estimate import Estimator
from repro.expr.ast import ALWAYS_TRUE, col
from repro.storage.buffer_pool import CostMeter
from repro.storage.rid import rid_page, rid_slot

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "dispatch.json")

FAST = OptimizationGoal.FAST_FIRST


class _PrintedRid(int):
    """An int RID printed as the ``RID(page=…, slot=…)`` named tuple the
    pinned digests were recorded from, so they still pin the same RIDs in
    the same order."""

    def __repr__(self) -> str:
        return f"RID(page={rid_page(self)}, slot={rid_slot(self)})"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _tables():
    """P: a unique key, two fetch-needed indexes, a covering pair and an
    unindexed column. G and H, for the variance gate: G's covering index
    spans the whole table beside a nearly unique fetch-needed one (the
    trusted winner is the Jscan), H's covering range is short (the trusted
    winner is the Sscan)."""
    db = Database(buffer_capacity=48)
    p = db.create_table(
        "P", [("ID", "int"), ("A", "int"), ("B", "int"), ("C", "int")],
        rows_per_page=8, index_order=8,
    )
    for i in range(600):
        p.insert((2 * i, (i * 7) % 100, (i * 37) % 50, i % 13))
    p.create_index("IX_ID", ["ID"], unique=True)
    p.create_index("IX_A", ["A"])
    p.create_index("IX_B", ["B"])
    p.create_index("IX_AB", ["A", "B"])
    p.analyze()
    g = db.create_table("G", [("A", "int"), ("B", "int")],
                        rows_per_page=16, index_order=32)
    for i in range(12_000):
        g.insert((i % 97, (i * 7919) % 12_000))
    g.create_index("IX_AB", ["A", "B"])
    g.create_index("IX_B", ["B"])
    h = db.create_table("H", [("A", "int"), ("B", "int"), ("C", "int")],
                        rows_per_page=8)
    for i in range(400):
        h.insert((i, i % 10, (i * 3) % 50))
    h.create_index("IX_AB", ["A", "B"])
    h.create_index("IX_A", ["A"])
    h.create_index("IX_B", ["B"])
    for table in (g, h):
        # the small-range shortcut leaves candidates unestimated, and an
        # unestimated arm always competes
        table.config = table.config.with_(shortcut_rid_count=0)
        table.analyze()
    return db, p, g, h


def _pin(db, result) -> dict:
    return {
        "description": result.description,
        "events": " ".join(event.kind.name for event in result.trace.events),
        "events_digest": _digest([(event.kind.name, event.detail)
                                  for event in result.trace.events]),
        "rows": len(result.rows),
        "rows_digest": _digest(result.rows),
        "rids_digest": _digest(list(map(_PrintedRid, result.rids))),
        "total_cost": repr(result.total_cost),
        "execution_io": result.execution_io,
        "pager_reads": db.pager.stats.reads,
    }


def _statements(p):
    """(name, table keyword arguments) for the dynamic dispatch on P."""
    wide = (col("A") < 60) & (col("B") < 30)
    return [
        ("probe-hit", dict(where=col("ID").eq(40))),
        ("probe-miss", dict(where=col("ID").eq(41))),
        ("short-range", dict(where=col("ID").between(100, 112))),
        ("short-range-fast-first-limit",
         dict(where=col("ID").between(100, 112), optimize_for=FAST, limit=3)),
        ("empty", dict(where=col("A").eq(999) & (col("B") < 30))),
        ("sorted-sscan", dict(where=col("A") < 20, columns=("A",), order_by=("A",))),
        ("sorted", dict(where=(col("A") < 20) & (col("B") < 10), order_by=("A",))),
        ("sscan-only", dict(columns=("A", "B"))),
        ("index-only", dict(where=(col("A") < 40) & col("B").eq(3),
                            columns=("A", "B"))),
        ("background-only", dict(where=wide)),
        ("fast-first", dict(where=wide, optimize_for=FAST)),
        ("union-or", dict(where=col("A").eq(2) | col("B").eq(7))),
        ("tscan", dict(where=col("C").eq(5))),
    ]


FORCES = [
    # (name, strategy, request keyword arguments)
    ("tscan", "tscan", dict(restriction=col("A") < 20)),
    ("sscan", "sscan", dict(restriction=col("A") < 20, output_columns=("A", "B"))),
    ("sorted-sscan", "sorted-sscan",
     dict(restriction=col("A") < 20, output_columns=("A",), order_by=("A",))),
    ("sorted-sscan-unordered", "sorted-sscan",
     dict(restriction=col("A") < 20, output_columns=("A", "B"))),
    ("sorted", "sorted",
     dict(restriction=(col("A") < 20) & (col("B") < 10), order_by=("A",))),
    ("index-only", "index-only",
     dict(restriction=(col("A") < 40) & col("B").eq(3), output_columns=("A", "B"))),
    ("fast-first", "fast-first", dict(restriction=(col("A") < 60) & (col("B") < 30))),
    ("background-only", "background-only",
     dict(restriction=(col("A") < 60) & (col("B") < 30))),
    ("union-or", "union-or", dict(restriction=col("A").eq(2) | col("B").eq(7))),
    ("short-range", "short-range", dict(restriction=col("ID").between(100, 112))),
    ("background-only-on-a-point", "background-only",
     dict(restriction=col("ID").eq(40))),
]

UNSUPPORTED = [
    ("sscan", dict(restriction=col("A") < 20)),
    ("sorted-sscan", dict(restriction=col("A") < 20)),
    ("sorted", dict(restriction=col("A") < 20)),
    ("index-only", dict(restriction=col("A") < 20)),
    ("fast-first", dict(restriction=ALWAYS_TRUE, output_columns=("A", "B"))),
    ("background-only", dict(restriction=col("C").eq(5))),
    ("union-or", dict(restriction=col("A").eq(2) | col("C").eq(5))),
    ("short-range", dict(restriction=col("ID").between(100, 600))),
    ("no-such-strategy", dict(restriction=col("A") < 20)),
]


def fingerprint() -> dict:
    db, p, g, h = _tables()
    out: dict = {"dynamic": {}, "forced": {}, "unsupported": {}, "gate": []}
    db.cold_cache()
    for name, kwargs in _statements(p):
        out["dynamic"][name] = _pin(db, p.select(**kwargs))
    engine = p.retrieval_engine()
    for name, strategy, kwargs in FORCES:
        result = engine.run(RetrievalRequest(force_strategy=strategy, **kwargs))
        out["forced"][name] = _pin(db, result)
    for strategy, kwargs in UNSUPPORTED:
        try:
            engine.run(RetrievalRequest(force_strategy=strategy, **kwargs))
        except RetrievalError as error:
            out["unsupported"][strategy] = str(error)
        else:
            out["unsupported"][strategy] = None
    # the variance gate: warm one estimator until it trusts each shape (G's
    # covering arm loses every race, so forced Sscans observe it)
    estimator = Estimator()
    g_where = (col("A") >= 0) & col("B").eq(5)
    for _ in range(4):
        result = g.retrieval_engine().run(RetrievalRequest(
            restriction=g_where, output_columns=("A", "B"), estimator=estimator,
            force_strategy="sscan"))
        out["gate"].append(_pin(db, result))
    for table, where in ((g, g_where), (h, (col("A") < 100) & col("B").eq(3))):
        for _ in range(6):
            result = drain(table.select_steps(where=where, columns=("A", "B"),
                                              estimator=estimator))
            out["gate"].append(_pin(db, result))
    # an arm the small-range shortcut left unestimated always competes
    result = drain(p.select_steps(where=(col("A") < 40) & col("B").eq(3),
                                  columns=("A", "B"), estimator=estimator))
    out["gate"].append(_pin(db, result))
    out["gate_counts"] = [estimator.competed, estimator.trusted]
    return out


def test_every_dispatch_branch_matches_the_parent_commit():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    got = json.loads(json.dumps(fingerprint()))
    assert got.keys() == golden.keys()
    for section in ("dynamic", "forced", "unsupported"):
        assert got[section].keys() == golden[section].keys(), section
        for name in golden[section]:
            assert got[section][name] == golden[section][name], f"{section} {name}"
    for number, (mine, theirs) in enumerate(zip(got["gate"], golden["gate"])):
        assert mine == theirs, f"gate statement {number}"
    assert len(got["gate"]) == len(golden["gate"])
    assert got["gate_counts"] == golden["gate_counts"]


def test_the_statements_reach_every_branch():
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    described = {name: pin["description"] for name, pin in golden["dynamic"].items()}
    assert described["probe-hit"] == "unique-probe(IX_ID)"
    assert described["probe-miss"] == "shortcut: provably empty result"
    assert described["short-range"] == "short-range(IX_ID)"
    assert described["short-range-fast-first-limit"] == "short-range(IX_ID)"
    assert described["empty"] == "shortcut: provably empty result"
    assert described["sorted-sscan"] == "sorted-sscan(IX_A)"
    assert described["sorted"].startswith("sorted: fscan(IX_A)")
    assert described["sscan-only"] == "sscan(IX_AB)"
    assert described["index-only"].startswith("index-only: ")
    assert described["background-only"].startswith("background-only: ")
    assert described["fast-first"].startswith("fast-first: ")
    assert described["union-or"].startswith("union-or: ")
    assert described["tscan"] == "tscan"
    skipped = [pin for pin in golden["gate"] if "COMPETITION_SKIPPED" in pin["events"]]
    assert {pin["description"].split("(")[0].split(":")[0] for pin in skipped} == {
        "sscan", "background-only"}
    assert all(golden["unsupported"].values())


def test_every_retrieval_costs_exactly_its_meters_merged(monkeypatch):
    """For every pinned scenario, the retrieval's execution cost is the
    total of the merged meters of what it ran (its processes, or the direct
    fetch's one meter) and its estimation cost the initial stage's meter's:
    counts added, then priced once, so a cost split between meters is
    ``==`` the cost of the same work on one."""
    made: list[CostMeter] = []

    class Recorded(CostMeter):
        __slots__ = ()

        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(process_module, "CostMeter", Recorded)
    monkeypatch.setattr(retrieval_module, "CostMeter", Recorded)
    checked = []

    def check(db, result) -> dict:
        estimation = [meter for meter in made if meter.name == "initial-stage"]
        execution = CostMeter.merged(meter for meter in made if meter.name != "initial-stage")
        assert result.estimation_cost == estimation[-1].total
        assert result.execution_cost == execution.total
        assert result.execution_io == execution.io_total
        assert result.total_cost == result.estimation_cost + result.execution_cost
        checked.append(result.description)
        made.clear()
        return {}

    monkeypatch.setattr(sys.modules[__name__], "_pin", check)
    fingerprint()
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert len(checked) == sum(len(golden[section]) for section in ("dynamic", "forced", "gate"))
    assert any(description.startswith("short-range") for description in checked)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(fingerprint(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {GOLDEN}")
