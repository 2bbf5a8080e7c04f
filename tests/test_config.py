"""Tests for the engine configuration object."""

import dataclasses
import pathlib
import re

import pytest

from repro.config import DEFAULT_CONFIG, EngineConfig


def test_defaults_match_paper_numbers():
    assert DEFAULT_CONFIG.switch_threshold == 0.95  # "e.g. becomes 95%"
    assert DEFAULT_CONFIG.static_rid_buffer_size == 20  # "lists up to 20 RIDs"


def test_with_creates_modified_copy():
    modified = DEFAULT_CONFIG.with_(switch_threshold=0.5)
    assert modified.switch_threshold == 0.5
    assert DEFAULT_CONFIG.switch_threshold == 0.95
    assert modified.static_rid_buffer_size == DEFAULT_CONFIG.static_rid_buffer_size


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CONFIG.switch_threshold = 0.1  # type: ignore[misc]


def test_with_unknown_field_rejected():
    with pytest.raises(TypeError):
        DEFAULT_CONFIG.with_(nonexistent=1)


def test_custom_config_flows_through_engine():
    from repro.db.session import Database
    from repro.expr.ast import col

    from repro.engine.metrics import EventKind

    def run(config):
        db = Database(buffer_capacity=32, config=config)
        table = db.create_table("T", [("A", "int"), ("B", "int")], rows_per_page=8)
        for i in range(400):
            table.insert((i, i))
        table.create_index("IX", ["A"])
        return table.select(where=col("A") < 10)

    assert run(EngineConfig()).description == "short-range(IX)"
    result = run(EngineConfig(shortcut_rid_count=-1, simultaneous_adjacent_scans=False))
    # with the small-range shortcut off, the short range is raced, not
    # fetched directly
    assert not result.trace.has(EventKind.SHORTCUT_SMALL_RANGE)
    assert result.description.startswith("background-only")
    assert len(result.rows) == 10


# -- ratchets ---------------------------------------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_option_budget():
    """A new knob, or one that lost its last setter, fails here: the field
    count may only fall, and every field must be set (``name=``) by some
    test, benchmark or example — otherwise it is a constant, not an option."""
    names = [field.name for field in dataclasses.fields(EngineConfig)]
    assert len(names) <= 25
    users = "\n".join(
        path.read_text()
        for root in ("tests", "benchmarks", "examples")
        for path in (REPO / root).rglob("*.py")
    )
    orphans = [name for name in names if not re.search(rf"\b{name}\s*=", users)]
    assert not orphans, f"EngineConfig fields nothing sets: {orphans}"


def test_cpu_costs_have_one_source():
    """Every per-entry / per-record CPU charge and cost estimate in the
    engine reads ``ENTRY_CPU_COST`` (btree/tree.py) or ``RECORD_CPU_COST``
    (storage/heap.py) — the race must be decided in the units the scans
    are charged in."""
    constant = re.compile(r"\b(?:ENTRY|RECORD)_CPU_COST\b")
    charge = re.compile(r"\bcharge_cpu(?:_each)?\(|\.cpu \+=")
    offenders = []
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        where = path.relative_to(REPO)
        if "cpu_cost_per_" in text:
            offenders.append(f"{where}: a config-style cpu cost")
        if "engine" not in path.parts:
            continue
        if re.search(r"^\s*(?:ENTRY|RECORD)_CPU_COST\s*=", text, re.M):
            offenders.append(f"{where}: a private copy of a cost constant")
        if re.search(r"\b(?:0\.0002|0\.001|2e-0?4|1e-0?3)\b", text):
            offenders.append(f"{where}: a cost literal")
        aliases = set(re.findall(r"(\w+) = (?:ENTRY|RECORD)_CPU_COST\b", text))
        lines = text.splitlines()
        for number, line in enumerate(lines):
            if not charge.search(line) or line.lstrip().startswith("def "):
                continue
            if ".first." in line or ".second." in line:
                continue  # the join's pair meter forwarding its argument
            amount = " ".join(lines[number : number + 3])
            amount = amount[charge.search(line).start() :]
            if not constant.search(amount) and not (
                aliases & set(re.findall(r"\w+", amount))
            ):
                offenders.append(f"{where}:{number + 1}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
