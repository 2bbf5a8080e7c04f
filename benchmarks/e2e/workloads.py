"""The four benchmark workloads: data, load, op sequences, expected answers.

Every workload is built from ``--seed`` alone, and built so that two seeds
give *matched* inputs: the multiset of values in every column, the op
classes and their counts, and the selectivity of every op are fixed; the
seed decides which row carries which value (so every physical placement,
column correlation and range intersection differs), which keys are hot and
where each range sits. A benchmark whose cost swung with the luck of the
draw could not tell a regression from a seed. Column values come from the
program's own generators (``repro.workloads.generators`` — timed as
``workloads.gen_s``); permutations and op sequences come from
``random.Random`` so they do not change with the numpy version.

Each op carries the SQL (or table call) the system runs *and*, built beside
it by hand, the plain-Python predicate the reference evaluates — the two
never share an evaluator.

Sizes are chosen so that one round takes about two seconds and one run
(three set-ups, a cold round, the timed rounds, the checks) fits the
driver's per-run budget; see README.md.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

import repro
from repro.workloads.generators import uniform_ints, zipf_ints

from reference import ShadowTable, hash_join

ORDERS_COLUMNS = ("ONO", "CUSTOMER", "ODATE", "STATUS", "AMOUNT")
ONO, CUSTOMER, ODATE, STATUS, AMOUNT = range(5)

#: seeds the value multisets; ``--seed`` only arranges them
VALUES_SEED = 1993


@dataclass
class Expect:
    """How to compute and compare one op's reference answer."""

    rows: Callable[[dict[str, ShadowTable]], list[tuple]]
    mode: str = "bag"  # "bag" | "limit" | "ordered"
    limit: int | None = None
    key_positions: tuple[int, ...] = ()


@dataclass
class Op:
    """One client operation."""

    cls: str  # op class, for per-class latency
    kind: str  # "execute" | "prepared" | "insert" | "delete" | "analyze"
    sql: str = ""
    params: Any = None
    table: str = ""
    expect: Expect | None = None
    #: the statement reads a partitioned table (its rows must reconcile
    #: with the scatter-gather merge counter)
    partitioned: bool = False


@dataclass
class Sizes:
    """Row/op counts of one workload (``--smoke`` shrinks them)."""

    rows: int
    pool_pages: int
    ops: int
    extra: dict[str, int] = field(default_factory=dict)


@dataclass
class Loaded:
    """What ``setup`` hands the runner."""

    conn: Any
    shadows: dict[str, ShadowTable]
    #: ONO -> RID of every live ORDERS row (ingest_churn deletes by RID)
    rids: dict[int, Any]
    #: per-phase set-up seconds (gen / insert / index / analyze) and rows
    phases: dict[str, float]
    setup_s: float


def _shuffled(values, rng: random.Random) -> list:
    out = list(values)
    rng.shuffle(out)
    return out


def _halton(index: int, base: int) -> float:
    """The ``index``-th point of the base-``base`` van der Corput sequence:
    evenly spread over [0, 1) for every prefix length."""
    result, fraction = 0.0, 1.0 / base
    index += 1
    while index:
        index, digit = divmod(index, base)
        result += digit * fraction
        fraction /= base
    return result


class Strata:
    """Evenly spread draws with a seed-dependent shift: every seed covers
    the domain equally, no two seeds use the same points."""

    def __init__(self, seed: int, base: int = 2) -> None:
        self.shift = random.Random(seed).random()
        self.base = base
        self.count = 0

    def next(self) -> float:
        value = (_halton(self.count, self.base) + self.shift) % 1.0
        self.count += 1
        return value

    def range_for(self, sorted_values: list[int], k: int) -> tuple[int, int]:
        """Bounds of a value range matching about ``k`` rows (more on ties)."""
        k = max(1, min(k, len(sorted_values)))
        start = int(self.next() * (len(sorted_values) - k + 1))
        return sorted_values[start], sorted_values[start + k - 1]

    def whole_values_for(self, counts: list[int], k: int) -> tuple[int, int]:
        """For a heavily duplicated column whose value ``v`` occurs
        ``counts[v]`` times: a value range ``[lo, hi]`` of whole values
        matching about ``k`` rows. It starts only at a value that is not
        itself more frequent than ``k`` (a range cannot split a value), so
        a small ``k`` is served from the cold values and the rows matched
        do not depend on where the draw happens to land."""
        total = sum(counts)
        k = max(1, min(k, total))
        starts = []
        tail = total
        for value, count in enumerate(counts):
            if tail < k:
                break
            if count <= k:
                starts.append(value)
            tail -= count
        if not starts:  # every value is more frequent than k: take the rarest
            rarest = min(range(len(counts)), key=lambda v: (counts[v] == 0, counts[v]))
            return rarest, rarest
        lo = hi = starts[int(self.next() * len(starts))]
        matched = counts[lo]
        while matched < k and hi + 1 < len(counts):
            hi += 1
            matched += counts[hi]
        return lo, hi


def orders_rows(seed: int, n: int) -> list[tuple]:
    """ORDERS: ONO unique and dense, ODATE clustered with insert order,
    CUSTOMER and STATUS Zipf-skewed (value 0 the most frequent), AMOUNT
    uniform and unclustered. The seed permutes the columns against each
    other; the column multisets do not depend on it."""
    values = np.random.default_rng(VALUES_SEED)
    rng = random.Random(seed * 7919 + 11)
    customers = _shuffled(zipf_ints(values, n, max(50, n // 20), skew=1.1), rng)
    statuses = _shuffled(zipf_ints(values, n, 6, skew=1.5), rng)
    amounts = _shuffled(uniform_ints(values, n, 1, 100_000), rng)
    jitter = uniform_ints(values, n, 0, 3)
    return [
        (i, customers[i], 20_000 + (i * 2_000) // n + jitter[i], statuses[i], amounts[i])
        for i in range(n)
    ]


def load_table(conn, name: str, columns: Sequence[str], rows: Sequence[tuple],
               indexes: Sequence[tuple[str, Sequence[str], bool]],
               phases: dict[str, float], rids: dict[int, Any] | None = None,
               ddl: str | None = None) -> None:
    """Create (through ``ddl`` when given, else the catalog call), fill,
    index and analyze one table; adds the phase times to ``phases``."""
    start = time.perf_counter()
    if ddl is not None:
        conn.execute(ddl)
        table = conn.table(name)
    else:
        table = conn.create_table(name, [(c, "int") for c in columns],
                                  rows_per_page=32, index_order=32)
    if rids is not None:
        for row in rows:
            rids[row[0]] = table.insert(row)
    else:
        for row in rows:
            table.insert(row)
    loaded = time.perf_counter()
    for index_name, index_columns, unique in indexes:
        table.create_index(index_name, index_columns, unique=unique)
    indexed = time.perf_counter()
    table.analyze()
    analyzed = time.perf_counter()
    for phase, amount in (("insert", loaded - start), ("index", indexed - loaded),
                          ("analyze", analyzed - indexed), ("rows", len(rows))):
        phases[phase] = phases.get(phase, 0) + amount


ORDERS_INDEXES = (
    ("IX_ONO", ["ONO"], True),
    ("IX_CUSTOMER", ["CUSTOMER"], False),
    ("IX_DATE", ["ODATE"], False),
    ("IX_AMOUNT", ["AMOUNT"], False),
)


class Workload:
    """Base: subclasses fill in sizes, data, load and ops."""

    name = ""
    sessions = 1
    #: every round starts from an empty buffer pool
    cold_rounds = False
    full = Sizes(0, 0, 0)
    smoke = Sizes(0, 0, 0)

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.sizes = self.smoke if smoke else self.full

    # -- data ---------------------------------------------------------------

    def generate(self) -> dict[str, list[tuple]]:
        return {"ORDERS": orders_rows(self.seed, self.sizes.rows)}

    def load(self, conn, data, phases, rids) -> None:
        load_table(conn, "ORDERS", ORDERS_COLUMNS, data["ORDERS"], ORDERS_INDEXES, phases)

    def shadow_keys(self) -> dict[str, tuple[Sequence[str], str]]:
        """table -> (columns, unique key column) for the shadow copies."""
        return {"ORDERS": (ORDERS_COLUMNS, "ONO")}

    def setup(self) -> Loaded:
        """Generate + create/load/index/analyze: everything up to the first
        statement. Building the shadow copies is reference work and is not
        part of ``setup_s``."""
        start = time.perf_counter()
        data = self.generate()
        phases: dict[str, float] = {"gen": time.perf_counter() - start}
        conn = repro.connect(buffer_capacity=self.sizes.pool_pages)
        rids: dict[int, Any] = {}
        self.load(conn, data, phases, rids)
        setup_s = time.perf_counter() - start
        shadows = {
            table: ShadowTable(columns, data[table], key)
            for table, (columns, key) in self.shadow_keys().items()
        }
        return Loaded(conn, shadows, rids, phases, setup_s)

    # -- ops ----------------------------------------------------------------

    def prepare(self, loaded: Loaded) -> None:
        """Derive whatever op generation needs from the loaded data."""

    def round_ops(self, round_no: int, loaded: Loaded) -> list[list[Op]]:
        """One op list per session for round ``round_no``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# oltp_point
# ---------------------------------------------------------------------------


class OltpPoint(Workload):
    """Per-statement fixed cost: points and short ranges on Zipf-hot keys."""

    name = "oltp_point"
    full = Sizes(rows=30_000, pool_pages=768, ops=5_000)
    smoke = Sizes(rows=2_000, pool_pages=64, ops=300)

    POINT = "select * from ORDERS where ONO = :K"
    SHORT = "select * from ORDERS where ONO between :A and :B"
    CUST = "select * from ORDERS where CUSTOMER = :C limit to 10 rows"
    PREPARED = "select * from ORDERS where ONO = ?"
    PREPARED_RANGE = "select ONO, AMOUNT from ORDERS where ONO between ? and ?"
    #: op class -> share of the round: 60 % host-variable ``execute``
    #: (plan-cache hits), 20 % prepared, 20 % distinct literals (misses)
    MIX = (("hostvar_point", 0.36), ("hostvar_range", 0.15), ("hostvar_limit", 0.09),
           ("prepared_point", 0.14), ("prepared_range", 0.06), ("literal_point", 0.20))

    def prepare(self, loaded: Loaded) -> None:
        n, count = self.sizes.rows, self.sizes.ops
        rng = random.Random(self.seed * 7919 + 1)
        # the hotness profile (how often the r-th hottest key is asked for)
        # is fixed; the seed decides which keys are the hot ones
        hot = _shuffled(range(n), rng)
        ranks = zipf_ints(np.random.default_rng(VALUES_SEED + 1), count, n, skew=1.1)
        classes = [cls for cls, share in self.MIX for _ in range(round(share * count))]
        classes = _shuffled((classes + ["hostvar_point"] * count)[:count], rng)
        customers = len({row[CUSTOMER] for row in loaded.shadows["ORDERS"].rows.values()})
        widths = Strata(self.seed + 1, base=3)
        picks = Strata(self.seed + 2, base=5)
        ops: list[Op] = []
        for cls, rank in zip(classes, ranks):
            key = hot[rank]
            if cls == "hostvar_point":
                ops.append(self._point(cls, "execute", self.POINT, {"K": key}, key))
            elif cls == "prepared_point":
                ops.append(self._point(cls, "prepared", self.PREPARED, [key], key))
            elif cls == "literal_point":
                # distinct literals: the plan cache keys on the text, so
                # these miss (and push LRU entries out)
                ops.append(self._point(cls, "execute",
                                       f"select * from ORDERS where ONO = {key}", None, key))
            elif cls == "hostvar_range":
                hi = key + 1 + int(widths.next() * 19)
                ops.append(self._short(cls, "execute", self.SHORT, {"A": key, "B": hi}, key, hi))
            elif cls == "prepared_range":
                hi = key + 1 + int(widths.next() * 19)
                ops.append(self._short(cls, "prepared", self.PREPARED_RANGE, [key, hi],
                                       key, hi, columns=("ONO", "AMOUNT")))
            else:
                ops.append(self._customer(int(picks.next() * customers)))
        self._ops = ops

    @staticmethod
    def _point(cls, kind, sql, params, key) -> Op:
        return Op(cls, kind, sql, params, expect=Expect(
            lambda s: s["ORDERS"].select(lambda r: r[ONO] == key, ("eq", "ONO", key))))

    @staticmethod
    def _short(cls, kind, sql, params, lo, hi, columns=None) -> Op:
        return Op(cls, kind, sql, params, expect=Expect(
            lambda s: s["ORDERS"].select(
                lambda r: lo <= r[ONO] <= hi, ("range", "ONO", lo, hi), columns)))

    def _customer(self, customer) -> Op:
        return Op("hostvar_limit", "execute", self.CUST, {"C": customer}, expect=Expect(
            lambda s: s["ORDERS"].select(
                lambda r: r[CUSTOMER] == customer, ("eq", "CUSTOMER", customer)),
            mode="limit", limit=10))

    def round_ops(self, round_no, loaded):
        return [self._ops]


# ---------------------------------------------------------------------------
# conj_range
# ---------------------------------------------------------------------------


class ConjRange(Workload):
    """The paper's core path: multi-index conjunctive ranges whose host
    variables sweep each index across selectivity regimes, larger than the
    buffer pool."""

    name = "conj_range"
    full = Sizes(rows=5_000, pool_pages=50, ops=162, extra={"families": 2_000})
    smoke = Sizes(rows=2_000, pool_pages=32, ops=16, extra={"families": 400})

    TWO_AC = ("select * from ORDERS where AMOUNT between :A1 and :A2 "
              "and CUSTOMER between :C1 and :C2")
    TWO_AD = ("select * from ORDERS where AMOUNT between :A1 and :A2 "
              "and ODATE between :D1 and :D2")
    THREE = ("select * from ORDERS where AMOUNT between :A1 and :A2 "
             "and CUSTOMER between :C1 and :C2 and ODATE between :D1 and :D2")
    FAMILIES = "select * from FAMILIES where AGE >= :A1"
    #: the host variables sweep each index from two matching RIDs ("index
    #: wins", the Section 5 shortcut) to four fifths of the table ("Tscan
    #: wins"). Three bands with fixed shares, so that the median op sits
    #: inside the middle band and the 95th percentile inside the wide one,
    #: each among many ops of like cost: (share of 20, low, high) as
    #: fractions of the table, for the narrower of an op's ranges
    BANDS = ((5, 0.0004, 0.004), (11, 0.02, 0.08), (4, 0.4, 0.8))

    def generate(self):
        n = self.sizes.extra["families"]
        values = np.random.default_rng(VALUES_SEED + 4)
        rng = random.Random(self.seed * 7919 + 12)
        ages = _shuffled([min(120, v) for v in zipf_ints(values, n, 121, skew=0.8)], rng)
        incomes = uniform_ints(values, n, 10_000, 200_000)
        return {
            "ORDERS": orders_rows(self.seed, self.sizes.rows),
            "FAMILIES": [(i, ages[i], incomes[i]) for i in range(n)],
        }

    def shadow_keys(self):
        return {"ORDERS": (ORDERS_COLUMNS, "ONO"),
                "FAMILIES": (("ID", "AGE", "INCOME"), "ID")}

    def load(self, conn, data, phases, rids):
        super().load(conn, data, phases, rids)
        load_table(conn, "FAMILIES", ("ID", "AGE", "INCOME"), data["FAMILIES"],
                   [("IX_AGE", ["AGE"], False)], phases)

    def _rows_for(self, index: int, base: int, n: int, low: float, high: float) -> int:
        """The ``index``-th point of a log-uniform sweep of [low, high], in rows."""
        return max(2, int(n * low * math.exp(math.log(high / low) * _halton(index, base))))

    def _plan(self, i: int, n: int) -> tuple[str, list[int]]:
        """Op ``i``'s statement shape and the rows each of its ranges
        should match: the narrowest from the op's band, the others anywhere
        from it up to the widest, the narrowest's position rotating so no
        index is always the selective one. The wide band holds two-index
        ops only: a third wide scan costs a step more, and a handful of
        such ops would sit exactly at the round's 95th percentile."""
        slot = i % 20
        for band, (share, low, high) in enumerate(self.BANDS):
            if slot < share:
                break
            slot -= share
        wide = band == len(self.BANDS) - 1
        shape = ("ac", "ad")[slot % 2] if wide else ("ac", "ad", "acd")[i % 3]
        narrow = self._rows_for(i, 2, n, low, high)
        rows = [narrow] + [max(narrow, self._rows_for(i, base, n, low, self.BANDS[-1][2]))
                           for base in (3, 5)[: len(shape) - 1]]
        turn = (i // 20) % len(rows)
        return shape, rows[turn:] + rows[:turn]

    def prepare(self, loaded: Loaded) -> None:
        rows = list(loaded.shadows["ORDERS"].rows.values())
        n = len(rows)
        by = {pos: sorted(row[pos] for row in rows) for pos in (AMOUNT, ODATE)}
        place = {pos: Strata(self.seed + pos, base=7) for pos in (AMOUNT, CUSTOMER, ODATE)}
        frequency = [0] * (max(row[CUSTOMER] for row in rows) + 1)
        for row in rows:
            frequency[row[CUSTOMER]] += 1
        ops: list[Op] = []
        # the same three statements swing between regimes from one op to
        # the next, so the variance gate cannot simply learn to skip; every
        # seed asks for the same selectivities
        for i in range(self.sizes.ops - 2):
            shape, wanted = self._plan(i, n)
            first, second = wanted[:2]
            a1, a2 = place[AMOUNT].range_for(by[AMOUNT], first)
            if shape == "ac":
                c1, c2 = place[CUSTOMER].whole_values_for(frequency, second)
                ops.append(self._conj("two_index_ac", self.TWO_AC,
                                      {"A1": a1, "A2": a2, "C1": c1, "C2": c2},
                                      ((AMOUNT, a1, a2), (CUSTOMER, c1, c2))))
            elif shape == "ad":
                d1, d2 = place[ODATE].range_for(by[ODATE], second)
                ops.append(self._conj("two_index_ad", self.TWO_AD,
                                      {"A1": a1, "A2": a2, "D1": d1, "D2": d2},
                                      ((AMOUNT, a1, a2), (ODATE, d1, d2))))
            else:
                c1, c2 = place[CUSTOMER].whole_values_for(frequency, second)
                d1, d2 = place[ODATE].range_for(by[ODATE], wanted[2])
                ops.append(self._conj("three_index", self.THREE,
                                      {"A1": a1, "A2": a2, "C1": c1, "C2": c2,
                                       "D1": d1, "D2": d2},
                                      ((AMOUNT, a1, a2), (CUSTOMER, c1, c2), (ODATE, d1, d2))))
        # Section 4: all rows versus none, undecidable at compile time
        for slot, age in ((len(ops) // 3, 0), (2 * len(ops) // 3, 200)):
            ops.insert(slot, Op(
                "families_hostvar", "execute", self.FAMILIES, {"A1": age},
                expect=Expect(lambda s, age=age: s["FAMILIES"].select(lambda r: r[1] >= age))))
        self._ops = ops

    @staticmethod
    def _conj(cls, sql, params, bounds) -> Op:
        def pred(row):
            for pos, lo, hi in bounds:
                if not lo <= row[pos] <= hi:
                    return False
            return True

        return Op(cls, "execute", sql, params,
                  expect=Expect(lambda s: s["ORDERS"].select(pred)))

    def round_ops(self, round_no, loaded):
        return [self._ops]


# ---------------------------------------------------------------------------
# analytic_mix_4s
# ---------------------------------------------------------------------------


class AnalyticMix(Workload):
    """Four sessions, six bulk op classes, one shared scheduler."""

    name = "analytic_mix_4s"
    sessions = 4
    # the pool holds everything, so a warm round reads nothing and
    # ``io_per_op`` would be 0, which cannot be gated; from an empty pool a
    # round reads every page it touches exactly once. (A pool that holds
    # less is no way out: what four interleaved sessions evict from each
    # other, and with it the round's wall time, then hangs on the seed.)
    cold_rounds = True
    full = Sizes(rows=8_000, pool_pages=8192, ops=42,
                 extra={"customers": 500, "items": 150, "jorders": 1_600,
                        "events": 6_400, "partitions": 8})
    smoke = Sizes(rows=2_000, pool_pages=512, ops=7,
                  extra={"customers": 100, "items": 40, "jorders": 1_000,
                         "events": 2_000, "partitions": 4})

    def generate(self):
        extra = self.sizes.extra
        values = np.random.default_rng(VALUES_SEED + 5)
        rng = random.Random(self.seed * 7919 + 13)
        nc, ni, nj, ne = (extra[k] for k in ("customers", "items", "jorders", "events"))
        custs = _shuffled(zipf_ints(values, nj, nc, skew=1.3), rng)
        items = _shuffled(uniform_ints(values, nj, 0, ni - 1), rng)
        event_values = _shuffled(uniform_ints(values, ne, 0, 9_999), rng)
        kinds = _shuffled(zipf_ints(values, ne, 16, skew=1.2), rng)
        return {
            "ORDERS": orders_rows(self.seed, self.sizes.rows),
            "CUSTOMERS": [(i, i % 8) for i in range(nc)],
            "ITEMS": [(i, i % 12) for i in range(ni)],
            "JORDERS": [(i, custs[i], items[i]) for i in range(nj)],
            "EVENTS": [(i, event_values[i], kinds[i]) for i in range(ne)],
        }

    def shadow_keys(self):
        return {
            "ORDERS": (ORDERS_COLUMNS, "ONO"),
            "CUSTOMERS": (("CID", "REGION"), "CID"),
            "ITEMS": (("IID", "KIND"), "IID"),
            "JORDERS": (("OID", "CUST", "ITEM"), "OID"),
            "EVENTS": (("ID", "V", "KIND"), "ID"),
        }

    def load(self, conn, data, phases, rids):
        super().load(conn, data, phases, rids)
        load_table(conn, "CUSTOMERS", ("CID", "REGION"), data["CUSTOMERS"],
                   [("IX_CID", ["CID"], True)], phases)
        load_table(conn, "ITEMS", ("IID", "KIND"), data["ITEMS"],
                   [("IX_IID", ["IID"], True)], phases)
        load_table(conn, "JORDERS", ("OID", "CUST", "ITEM"), data["JORDERS"],
                   [("IX_CUST", ["CUST"], False)], phases)
        load_table(conn, "EVENTS", ("ID", "V", "KIND"), data["EVENTS"],
                   [("IX_EID", ["ID"], False)], phases,
                   ddl="create table EVENTS (ID int, V int, KIND int) "
                       f"partition by hash(ID) partitions {self.sizes.extra['partitions']}")

    def prepare(self, loaded: Loaded) -> None:
        orders = list(loaded.shadows["ORDERS"].rows.values())
        self._n = len(orders)
        self._dates = sorted(r[ODATE] for r in orders)
        self._amounts = sorted(r[AMOUNT] for r in orders)
        self._customers = len({r[CUSTOMER] for r in orders})
        self._events = len(loaded.shadows["EVENTS"])
        self._place = Strata(self.seed + 3, base=7)
        # seven slots, the Tscan twice: the three classes of few long
        # quanta (Tscan, union, join) make up four sevenths of the ops, so
        # the median latency lies among them. With one slot per class it
        # lies in the gap between them and the three classes of many short
        # quanta (Sscan, sorted, partitioned), whose statements wait three
        # to six times longer for their turns, and falls on one side or the
        # other with the seed
        makers = (self._tscan, self._sscan, self._union, self._sorted, self._join,
                  self._partitioned, self._tscan)
        # rotate the slots, offset per session, so the four in-flight
        # statements are usually of different classes; ``variant`` walks
        # each class through its fixed parameter cycle
        self._session_ops = [
            [makers[(i + session) % len(makers)](i * self.sessions + session)
             for i in range(self.sizes.ops)]
            for session in range(self.sessions)
        ]

    def _tscan(self, variant: int) -> Op:
        # STATUS carries no index, so this is a full Tscan with a filter
        lo, hi = ((0, 0), (1, 2), (0, 1), (2, 4), (1, 1), (0, 2))[variant % 6]
        return Op("tscan_filter", "execute",
                  "select ONO, AMOUNT from ORDERS where STATUS between :S1 and :S2",
                  {"S1": lo, "S2": hi}, expect=Expect(
                      lambda s: s["ORDERS"].select(
                          lambda r: lo <= r[STATUS] <= hi, None, ("ONO", "AMOUNT"))))

    def _sscan(self, variant: int) -> Op:
        lo, hi = self._place.range_for(self._dates, self._n // 2)
        return Op("sscan_range", "execute",
                  "select ODATE from ORDERS where ODATE between :D1 and :D2",
                  {"D1": lo, "D2": hi}, expect=Expect(
                      lambda s: s["ORDERS"].select(
                          lambda r: lo <= r[ODATE] <= hi, ("range", "ODATE", lo, hi),
                          ("ODATE",))))

    def _union(self, variant: int) -> Op:
        # small on purpose: the union scan projects its final stage from
        # the index estimates once per entry (``yao_pages_touched``, linear
        # in the projected RIDs), so its cost is quadratic in the RIDs and
        # doubles when an estimate is off by two, which hangs on where the
        # seed puts the ranges
        a1, a2 = self._place.range_for(self._amounts, self._n // 800)
        # neighbouring customers from the colder three quarters, where the
        # Zipf frequencies are flat enough that every pick is alike
        count = 16
        cold = self._customers // 4
        first = cold + int(self._place.next() * (self._customers - cold - count))
        wanted = tuple(range(first, first + count))
        in_list = ", ".join(str(c) for c in wanted)
        sql = (f"select * from ORDERS where AMOUNT between {a1} and {a2} "
               f"or CUSTOMER in ({in_list})")
        return Op("union_or_in", "execute", sql, None, expect=Expect(
            lambda s: s["ORDERS"].select(
                lambda r: a1 <= r[AMOUNT] <= a2 or r[CUSTOMER] in wanted)))

    def _sorted(self, variant: int) -> Op:
        # the only indexed conjunct is the ordering one: with a second
        # index the sorted tactic adds a filter-building Jscan whose
        # projection (``yao_pages_touched``) costs ten times more when the
        # index estimate falls below 1 000 RIDs than above, and which side
        # an op lands on hangs on the seed. That path is ``conj_range``'s
        lo, hi = ((0, 1), (1, 3), (0, 0), (1, 5))[variant % 4]
        d1 = self._dates[int(self._place.next() * (self._n // 2))]
        limit = self._n * 3 // 20
        return Op("sorted_limit", "execute",
                  "select * from ORDERS where STATUS between :S1 and :S2 and ODATE >= :D1 "
                  f"order by ODATE limit to {limit} rows",
                  {"S1": lo, "S2": hi, "D1": d1}, expect=Expect(
                      lambda s: s["ORDERS"].select(
                          lambda r: lo <= r[STATUS] <= hi and r[ODATE] >= d1),
                      mode="ordered", limit=limit, key_positions=(ODATE,)))

    def _join(self, variant: int) -> Op:
        region = variant % 8
        kind = 1 + variant % 5
        sql = ("select * from JORDERS as o join CUSTOMERS as c on o.CUST = c.CID "
               "join ITEMS as i on o.ITEM = i.IID where c.REGION = :R and i.KIND <= :K")

        def rows(s):
            customers = s["CUSTOMERS"].select(lambda r: r[1] == region)
            items = s["ITEMS"].select(lambda r: r[1] <= kind)
            joined = hash_join(s["JORDERS"].rows.values(), customers, 1, 0)
            return hash_join(joined, items, 2, 0)

        return Op("join_3table", "execute", sql, {"R": region, "K": kind},
                  expect=Expect(rows))

    def _partitioned(self, variant: int) -> Op:
        # KIND carries no index, for the reason given in ``_sorted``
        width = self._events // 3
        lo = int(self._place.next() * (self._events - width))
        hi = lo + width
        kmax = (0, 1, 3, 15)[variant % 4]
        return Op("partitioned_range", "execute",
                  "select * from EVENTS where ID between :L and :H and KIND <= :K order by ID",
                  {"L": lo, "H": hi, "K": kmax}, expect=Expect(
                      lambda s: s["EVENTS"].select(
                          lambda r: lo <= r[0] <= hi and r[2] <= kmax, ("range", "ID", lo, hi)),
                      mode="ordered", key_positions=(0,)), partitioned=True)

    def round_ops(self, round_no, loaded):
        return self._session_ops


# ---------------------------------------------------------------------------
# ingest_churn
# ---------------------------------------------------------------------------


class IngestChurn(Workload):
    """Writes beside reads: inserts, deletes, re-analyze, and reads whose
    answers must reflect the writes."""

    name = "ingest_churn"
    full = Sizes(rows=30_000, pool_pages=256, ops=6_600,
                 extra={"inserts": 2_700, "deletes": 2_700, "analyzes": 3})
    smoke = Sizes(rows=2_000, pool_pages=32, ops=222,
                  extra={"inserts": 90, "deletes": 90, "analyzes": 2})

    POINT = "select * from ORDERS where ONO = :K"
    SHORT = "select ONO, STATUS from ORDERS where ONO between :A and :B"
    CUST = "select * from ORDERS where CUSTOMER = :C and ODATE >= :D"
    #: read class -> share of the round's reads
    READ_MIX = (("read_point", 0.5), ("read_range", 0.3), ("read_customer", 0.2))

    def load(self, conn, data, phases, rids):
        load_table(conn, "ORDERS", ORDERS_COLUMNS, data["ORDERS"], ORDERS_INDEXES, phases,
                   rids=rids)

    def prepare(self, loaded: Loaded) -> None:
        self._next_ono = self.sizes.rows
        self._customers = max(50, self.sizes.rows // 20)

    def round_ops(self, round_no, loaded):
        """Ops for one round, planned against the shadow's *current* state
        (the runner applies each write to the shadow as it executes). The
        round deletes as many rows as it inserts, so the table keeps its
        size; which keys it touches is tracked here so no delete ever
        targets a missing row and reads can aim at fresh writes."""
        extra = self.sizes.extra
        rng = random.Random(self.seed * 7919 + 4 + round_no * 104_729)
        live = _shuffled(sorted(loaded.shadows["ORDERS"].rows), rng)
        victims = live[: extra["deletes"]]
        inserts = []
        for _ in range(extra["inserts"]):
            inserts.append((self._next_ono, rng.randrange(self._customers),
                            22_000 + round_no, rng.randrange(6), rng.randrange(1, 100_001)))
            self._next_ono += 1
        # whatever of the round is not a write or an analyze is a read
        count = self.sizes.ops - extra["inserts"] - extra["deletes"] - extra["analyzes"]
        reads = [cls for cls, share in self.READ_MIX for _ in range(round(share * count))]
        reads = (reads + ["read_point"] * count)[:count]
        kinds = _shuffled(["insert"] * extra["inserts"] + ["delete"] * extra["deletes"]
                          + reads, rng)
        step = len(kinds) // extra["analyzes"]
        for a in range(extra["analyzes"]):
            kinds.insert((a + 1) * step + a - 1, "analyze")
        ops: list[Op] = []
        inserted: list[int] = []
        deleted: list[int] = []
        for kind in kinds:
            if kind == "insert":
                row = inserts[len(inserted)]
                inserted.append(row[ONO])
                ops.append(Op("insert", "insert", table="ORDERS", params=row))
            elif kind == "delete":
                key = victims[len(deleted)]
                deleted.append(key)
                ops.append(Op("delete", "delete", table="ORDERS", params=key))
            elif kind == "analyze":
                ops.append(Op("analyze", "analyze", table="ORDERS"))
            else:
                ops.append(self._read(kind, rng, inserted, deleted, live))
        return [ops]

    def _read(self, cls, rng, inserted, deleted, live) -> Op:
        aim = rng.random()
        if aim < 0.25 and inserted:
            key = rng.choice(inserted)  # must see the insert
        elif aim < 0.5 and deleted:
            key = rng.choice(deleted)  # must not see the deleted row
        else:
            key = rng.choice(live)
        if cls == "read_point":
            return Op(cls, "execute", self.POINT, {"K": key}, expect=Expect(
                lambda s: s["ORDERS"].select(lambda r: r[ONO] == key, ("eq", "ONO", key))))
        if cls == "read_range":
            hi = key + rng.randrange(1, 16)
            return Op(cls, "execute", self.SHORT, {"A": key, "B": hi}, expect=Expect(
                lambda s: s["ORDERS"].select(
                    lambda r: key <= r[ONO] <= hi, ("in", "ONO", range(key, hi + 1)),
                    ("ONO", "STATUS"))))
        # the colder three quarters of the Zipf: alike in frequency, so a
        # round's cost does not hinge on how many hot customers it drew
        customer = rng.randrange(self._customers // 4, self._customers)
        date = 21_900
        return Op(cls, "execute", self.CUST, {"C": customer, "D": date},
                  expect=Expect(lambda s: s["ORDERS"].select(
                      lambda r: r[CUSTOMER] == customer and r[ODATE] >= date,
                      ("eq", "CUSTOMER", customer))))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (OltpPoint, ConjRange, AnalyticMix, IngestChurn)
}
