"""Tests for the engine configuration object."""

import ast
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
    assert len(names) <= 14
    users = "\n".join(
        path.read_text()
        for root in ("tests", "benchmarks", "examples")
        for path in (REPO / root).rglob("*.py")
    )
    orphans = [name for name in names if not re.search(rf"\b{name}\s*=", users)]
    assert not orphans, f"EngineConfig fields nothing sets: {orphans}"


#: modules under src/repro that the product never imports, and why each
#: stays; every other model or comparator the engine does not run lives in
#: benchmarks/paper/, beside the experiments that run it
UNREACHED_ON_PURPOSE = {
    "repro.competition.model": "the Section 3 cost arithmetic, until it and the "
    "engine share one switch criterion or it moves out",
    "repro.engine.static_optimizer": "the traditional optimizer the dynamic one "
    "is measured against",
}


def _import_targets(path: pathlib.Path) -> set[str]:
    """Every dotted name one file's ``import``/``from`` statements name,
    lazy ones inside functions included (``from a import b`` names both
    ``a`` and ``a.b``)."""
    targets = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, f"{path}: src/ imports are absolute"
            targets.add(node.module)
            targets.update(f"{node.module}.{alias.name}" for alias in node.names)
    return targets


def test_product_package_holds_only_what_the_product_runs():
    """Every module under src/repro is loaded by the product's own imports,
    starting from ``repro/__init__.py`` and ``repro/__main__.py``, except
    the listed ones, and no src/ file imports the benchmarks' ``paper``
    package."""
    src = REPO / "src"
    paths = {}
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        paths[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    reached, todo = set(), ["repro", "repro.__main__"]
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        for target in _import_targets(paths[module]):
            parts = target.split(".")
            # loading a module loads every package above it
            todo.extend(
                name for name in (".".join(parts[:end]) for end in range(1, len(parts) + 1))
                if name in paths and name not in reached
            )
    assert sorted(set(paths) - reached) == sorted(UNREACHED_ON_PURPOSE)
    importers = [
        str(path.relative_to(REPO))
        for path in src.rglob("*.py")
        if any(target.split(".")[0] == "paper" for target in _import_targets(path))
    ]
    assert not importers, f"src/ files importing paper: {importers}"


def test_cpu_costs_have_one_source():
    """A meter counts index entries and heap records; only the meter prices
    them, with ``ENTRY_CPU_COST`` and ``RECORD_CPU_COST`` (both defined once,
    in storage/buffer_pool.py). Every charge is a count: no charge carries a
    constant, no ``src/`` file writes a meter's ``cpu`` (a price derived from
    the counts) and ``charge_cpu`` is gone. Estimates may still read the
    constants — the race must be decided in the units the scans are charged
    in."""
    constant = re.compile(r"\b(?:ENTRY|RECORD)_CPU_COST\b")
    charge = re.compile(
        r"\bcharge_\w+\(|\.(?:entries|records|io_reads|io_writes|buffer_hits) \+="
    )
    offenders = []
    charges = 0
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        text = path.read_text()
        where = path.relative_to(REPO)
        if "cpu_cost_per_" in text:
            offenders.append(f"{where}: a config-style cpu cost")
        if "charge_cpu" in text:
            offenders.append(f"{where}: charge_cpu")
        if re.search(r"\.cpu\s*(?:[-+*/]?=)(?!=)", text):
            offenders.append(f"{where}: writes a meter's cpu")
        if where.parts[-2:] != ("storage", "buffer_pool.py") and re.search(
            r"^\s*(?:ENTRY|RECORD)_CPU_COST\s*=", text, re.M
        ):
            offenders.append(f"{where}: a private copy of a cost constant")
        if "engine" in path.parts and re.search(r"\b(?:0\.0002|0\.001|2e-0?4|1e-0?3)\b", text):
            offenders.append(f"{where}: a cost literal")
        aliases = set(re.findall(r"(\w+) = (?:ENTRY|RECORD)_CPU_COST\b", text))
        lines = text.splitlines()
        for number, line in enumerate(lines):
            if not charge.search(line) or line.lstrip().startswith("def "):
                continue
            charges += 1
            statement = " ".join(lines[number : number + 3])
            statement = statement[charge.search(line).start() :]
            if constant.search(statement) or aliases & set(re.findall(r"\w+", statement)):
                offenders.append(f"{where}:{number + 1}: {line.strip()}")
    assert charges > 20, "the charge pattern no longer finds the engine's charges"
    assert not offenders, "\n".join(offenders)