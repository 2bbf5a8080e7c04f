"""Jscan — the joint scan of fetch-needed indexes (Section 6, Figure 6).

Jscan scans the preselected indexes in ascending-selectivity order. Each
index scan builds a RID list (hybrid storage: static buffer, allocated
buffer, temp table + bitmap) filtered against the previously completed
list, so each completed list is the running intersection. Unproductive
scans are eliminated by a *two-stage competition*: during a scan, the cost
of retrieving by the projected final RID list is continuously compared
against the *guaranteed best* retrieval (Tscan, or retrieval by the last
complete list); the scan is terminated "a bit before the costs are
equalized". A direct criterion additionally bounds the scan's own cost by a
proportion of the guaranteed best.

Rdb/VMS also "can partially change the order of index scans by limited
simultaneous scanning of two adjacent indexes" — implemented here as pair
mode: the next index scans alongside the current one (within main memory
only); whichever completes first delivers the next filter, and the other's
partial list is refiltered in memory.

The result is either a complete RID list (possibly empty — an immediate
end-of-data), or the recommendation that Tscan is the best retrieval.

The comparators Section 6 measures this rule against — the statically
thresholded Jscan of [MoHa90] and a Bayesian rule after [Ant91B] — are
per-entry subclasses in ``benchmarks/paper/``, outside the product.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, compress, count, islice, repeat
from operator import itemgetter, truediv
import math
from typing import Callable

from repro.btree.tree import Entry
from repro.competition.process import Process
from repro.competition.two_stage import (
    MIN_PROJECTION_FRACTION,
    SwitchCriterion,
    SwitchDecision,
)
from repro.config import DEFAULT_CONFIG, EngineConfig
from repro.engine.initial import JscanCandidate
from repro.engine.metrics import EventKind, RetrievalTrace
from repro.obs.audit import DecisionKind
from repro.storage.buffer_pool import ENTRY_CPU_COST, BufferPool, CostMeter
from repro.storage.heap import HeapFile
from repro.storage.hybrid_list import HybridRidList, RidListRegion
from repro.storage.rid import RID, yao_pages_touched, yao_reach

#: the abandon reason each verdict of the switch criterion records
REASONS = {
    SwitchDecision.ABANDON_PROJECTED: "projected-cost",
    SwitchDecision.ABANDON_SCAN_COST: "scan-cost",
}

#: the RID of a ``(key, rid)`` leaf entry
_rid_of = itemgetter(1)


def _keeps(member: Callable[[RID], bool] | None, entries: list[Entry]) -> list[bool]:
    """Whether the filter keeps each entry's RID."""
    if member is None:
        return [True] * len(entries)
    return list(map(member, map(_rid_of, entries)))


def _cost_reach(io: int, limit: float) -> int | float:
    """The fewest scanned entries at which a scan that made ``io`` I/Os
    costs at least ``limit`` (``io + n * ENTRY_CPU_COST >= limit``): worked
    out in closed form, then confirmed at ``n - 1`` and ``n`` against the
    float sum :attr:`_IndexScan.scan_cost` computes. Infinite when no count
    reaches a limit that is not finite."""
    if io >= limit:
        return 0
    if not limit < math.inf:
        return math.inf
    n = math.ceil((limit - io) / ENTRY_CPU_COST)
    while n and io + (n - 1) * ENTRY_CPU_COST >= limit:
        n -= 1
    while io + n * ENTRY_CPU_COST < limit:
        n += 1
    return n


@dataclass
class _IndexScan:
    """Live state of one index scan inside Jscan."""

    candidate: JscanCandidate
    cursor: object  # RangeCursor
    rid_list: HybridRidList
    position: int = 0
    scanned: int = 0
    kept: int = 0
    #: entries of the cursor's current leaf not yet looked at
    run: list[Entry] = field(default_factory=list)
    #: physical I/Os the scan's steps made: its leaf reads (the last one
    #: meeting the end of its range) and its RID list's page writes
    io: int = 0

    @property
    def name(self) -> str:
        return self.candidate.index.name

    @property
    def scan_cost(self) -> float:
        """What the scan's steps have cost: their I/O plus each scanned
        entry's CPU charge."""
        return self.io + self.scanned * ENTRY_CPU_COST


class JscanProcess(Process):
    """The joint-scan background process. One step == one index entry;
    :meth:`step` is :meth:`run_batch` of one."""

    def __init__(
        self,
        candidates: list[JscanCandidate],
        heap: HeapFile,
        buffer_pool: BufferPool,
        trace: RetrievalTrace,
        config: EngineConfig = DEFAULT_CONFIG,
        on_keep: Callable[[RID, int], None] | None = None,
        name: str = "jscan",
    ) -> None:
        super().__init__(name)
        if not candidates:
            raise ValueError("Jscan needs at least one candidate index")
        self.heap = heap
        self.buffer_pool = buffer_pool
        self.trace = trace
        self.config = config
        self.criterion = SwitchCriterion(
            threshold=config.switch_threshold,
            scan_cost_limit_fraction=config.scan_cost_limit_fraction,
        )
        #: tap: called with (rid, scan_position) for every kept RID —
        #: the fast-first tactic "borrows" RIDs through this hook
        self.on_keep = on_keep

        self._queue: list[JscanCandidate] = list(candidates)
        self._started = 0  # scan position counter (0 == first index)
        self._active: _IndexScan | None = None
        self._partner: _IndexScan | None = None
        self._filter: HybridRidList | None = None
        #: (filter list, heap pages, cost) of the last guaranteed-best answer
        self._guaranteed: tuple[HybridRidList | None, int, float] | None = None
        #: (filter list, its membership test), see :meth:`_member`
        self._membership: tuple[HybridRidList, Callable[[RID], bool]] | None = None
        self._turn = 0
        self.completed_scans = 0
        self.abandoned_scans = 0
        self.reorders = 0

        # results
        self.result_list: HybridRidList | None = None
        self.tscan_recommended = False
        self.empty = False
        self.span = trace.tracer.open(
            "scan",
            strategy="jscan",
            indexes=[candidate.index.name for candidate in candidates],
        )

    # -- cost model -----------------------------------------------------------

    def tscan_cost(self) -> float:
        """Cost of the fallback sequential scan."""
        return float(self.heap.page_count)

    def rid_fetch_cost(self, rid_count: float, rid_list: HybridRidList | None = None) -> float:
        """Estimated cost of the final stage for a RID list of given size.

        Yao's expected distinct pages for the sorted fetch of the list's
        whole RIDs, plus, when the list lives in a temp table, the full
        pages of it reading it back reads.
        """
        k = int(rid_count)
        cost = yao_pages_touched(self.heap.page_count, self.heap.rows_per_page, k)
        if rid_list is not None and rid_list.region is RidListRegion.SPILLED:
            cost += k // rid_list.config.temp_rids_per_page
        return cost

    def guaranteed_best_cost(self) -> float:
        """The cost of the best retrieval guaranteed available right now.

        It changes only when a scan completes (a new filter list) or the
        heap grows, so it is kept per (filter list, heap page count)
        instead of being re-derived at every index entry.
        """
        pages = self.heap.page_count
        cached = self._guaranteed
        if cached is not None and cached[0] is self._filter and cached[1] == pages:
            return cached[2]
        best = self.tscan_cost()
        if self._filter is not None:
            best = min(best, self.rid_fetch_cost(len(self._filter), self._filter))
        self._guaranteed = (self._filter, pages, best)
        return best

    # -- scan lifecycle ----------------------------------------------------------

    def _start_scan(self, candidate: JscanCandidate) -> _IndexScan:
        position = self._started
        self._started += 1
        scan = _IndexScan(
            candidate=candidate,
            cursor=candidate.index.btree.range_cursor(candidate.key_range, self.meter),
            rid_list=HybridRidList(
                self.buffer_pool, f"{self.name}:{candidate.index.name}", self.config
            ),
            position=position,
        )
        self.trace.emit(
            EventKind.SCAN_START,
            strategy="jscan-index",
            index=candidate.index.name,
            position=position,
        )
        self.trace.counters.scans_started += 1
        return scan

    def _maybe_start_partner(self) -> None:
        if (
            self.config.simultaneous_adjacent_scans
            and self._partner is None
            and self._active is not None
            and self._queue
        ):
            self._partner = self._start_scan(self._queue.pop(0))
            self.trace.emit(
                EventKind.SIMULTANEOUS_PAIR,
                active=self._active.name,
                partner=self._partner.name,
            )

    def _abandon_scan(self, scan: _IndexScan, reason: str) -> None:
        scan.rid_list.discard()
        self.abandoned_scans += 1
        self.trace.counters.scans_abandoned += 1
        self.trace.emit(
            EventKind.SCAN_ABANDONED,
            index=scan.name,
            reason=reason,
            scanned=scan.scanned,
            kept=scan.kept,
            scan_io=scan.io,
        )
        if scan is self._active:
            self._active = self._partner
            self._partner = None
        elif scan is self._partner:
            self._partner = None

    def _complete_scan(self, scan: _IndexScan) -> None:
        """A cursor exhausted: its list is the new running intersection."""
        if (
            scan is self._partner
            and scan.kept > 0
            and self._active.rid_list.region is RidListRegion.SPILLED
        ):
            # defensive: accepting a partner win would require refiltering
            # the active's list out of memory, which the paper rules out.
            # The partner takes no step once the active list has spilled
            # (the pause in :meth:`_do_batch`), so it cannot meet the end of
            # its range then; but installing the filter without the
            # refilter would corrupt results. Drop the partner's work; the
            # previous filter stands.
            self._abandon_scan(scan, "active-spilled-no-refilter")
            return
        self.completed_scans += 1
        # the exhausted cursor walked its whole range: record the true
        # cardinality so selectivity feedback can sharpen later estimates
        scan.candidate.observed = scan.scanned
        self.trace.emit(
            EventKind.SCAN_COMPLETE,
            index=scan.name,
            scanned=scan.scanned,
            kept=scan.kept,
        )
        old_filter = self._filter
        self._filter = scan.rid_list
        self.trace.emit(
            EventKind.FILTER_BUILT,
            index=scan.name,
            rids=scan.kept,
            region=scan.rid_list.region.value,
        )
        if old_filter is not None:
            old_filter.discard()
        if scan.kept == 0:
            # empty intersection: no record can satisfy the conjunction
            self.empty = True
            self.result_list = scan.rid_list
            self.finished = True
            self.trace.emit(EventKind.RID_LIST_COMPLETE, rids=0, empty=True)
            return
        if scan is self._partner:
            # the partner finished first: dynamic reorder. The active scan's
            # partial list is refiltered in memory against the new filter.
            self.reorders += 1
            self.trace.emit(
                EventKind.REORDERED, winner=scan.name, continuing=self._active.name
            )
            dropped = self._active.rid_list.refilter(self._member())
            self._active.kept -= dropped
            self.meter.charge_entries(self._active.kept + dropped)
            self._partner = None
        else:
            # active finished; partner (if any) is promoted and refiltered
            if self._partner is not None:
                dropped = self._partner.rid_list.refilter(self._member())
                self._partner.kept -= dropped
                self.meter.charge_entries(self._partner.kept + dropped)
            self._active = self._partner
            self._partner = None

    # -- the advance routine -----------------------------------------------------

    def _do_batch(self, max_steps: int) -> tuple[int, bool]:
        """Advance by up to ``max_steps`` index entries, a chunk at a time.

        A step takes one entry (or meets the end of a range) from the scan
        whose turn it is, filters it, stores it, charges it to the scan and
        evaluates the switch criterion. Steps run a *chunk* at a time; in
        pair mode the two scans alternate steps within it.

        A chunk is planned a leaf run at a time. The switch criterion is
        bounded over a run from the counts at its ends — the projection
        against the one RID count at which the fetch's price reaches the
        threshold (:meth:`_fetch_reach`); the scan cost, which
        is the scan's I/O count (fixed over a run) plus its entries' CPU
        charge, reaches its limit at an entry found in closed form. A run
        that cannot fire is taken whole, and a scan's next leaf is read only
        then, by the step that takes its first entry; where a run might
        fire, its entries' verdicts are worked out one by one and the chunk
        ends at the first that fires, where :meth:`SwitchCriterion.evaluate`
        decides on the projection itself. A chunk also ends at the step
        budget, before a RID list's next page write (a chunk of its own) and
        at a partner's pause. A chunk that could neither fire nor fill a
        list even keeping every entry it may take is bounded once, up front,
        and filtered once, when it is taken.

        Taking a chunk filters its entries in one pass (a set built once
        per completed in-memory filter), stores the kept RIDs in bulk and
        charges its entries to the meter in one count. So every verdict,
        meter field, counter, event, note and spill is what evaluating at
        every entry gives; near a crossing a chunk is one entry, the
        single-step case of the same routine.
        """
        meter = self.meter
        counters = self.trace.counters
        buffer_limit = self.config.allocated_rid_buffer_size
        member, guaranteed = self._member(), self.guaranteed_best_cost()
        cost_limit = self.criterion.scan_cost_limit_fraction * guaranteed
        steps = 0
        while steps < max_steps:
            scan = self._active
            if scan is None:
                if not self._queue:
                    return steps + 1, self._finalize()
                scan = self._active = self._start_scan(self._queue.pop(0))
                self._maybe_start_partner()
            partner = self._partner
            # the pair alternates and pauses at the memory-buffer boundary
            # ("the simultaneous scan ... does not continue beyond the memory
            # buffer"): the partner stops advancing when its own list would
            # spill, and also once the *active* list has spilled — a partner
            # win would then require refiltering the active list out of
            # memory, which is exactly what the paper rules out (a live list
            # has spilled, i.e. is in the SPILLED region, exactly when
            # ``spills`` > 0). The turn flips at every step of a pair.
            if (
                partner is not None
                and len(partner.rid_list) < buffer_limit
                and not scan.rid_list.spills
            ):
                lanes = (scan, partner) if self._turn else (partner, scan)
            else:
                lanes = (scan,)
            stride = len(lanes)
            # lane ``l``'s ``j``-th entry of the chunk is its step ``j*stride + l``;
            # ``allowed[l]`` is how many of its entries may be kept before a
            # kept one would write a page (the active) or pause it (the partner)
            if stride == 1:
                allowed = [scan.rid_list.room()]
            else:
                allowed = [scan.rid_list.room(), buffer_limit - len(partner.rid_list)]
                if lanes[0] is partner:
                    allowed.reverse()
            planned = [0] * stride
            kept: list[list[RID]] = [[], []]
            budget = max_steps - steps
            # a chunk that can neither fire nor fill a list even if it keeps
            # every entry it may take is filtered once, when it is taken; the
            # others are filtered and bounded a leaf run at a time
            cleared = roomy = True
            for x, n, room in zip(lanes, ((budget + stride - 1) // stride, budget // stride),
                                  allowed):
                roomy = roomy and n < room
                cleared = cleared and (not n or self._cannot_fire(
                    x, x.kept, x.kept + n, x.scanned + 1, x.scanned + n, guaranteed
                ))
            roomy = roomy and cleared
            m = 0
            ending = None
            exact = False
            # -- plan the chunk, a leaf run at a time
            while m < budget:
                lane = m % stride
                x = lanes[lane]
                if planned[lane] == len(x.run):
                    # step ``m`` takes the first entry of the scan's next leaf
                    # and reads it — here, unless that entry might be a kept
                    # RID that writes a page, which is a chunk of its own
                    if m and x is not partner and len(kept[lane]) >= allowed[lane]:
                        break
                    io = meter.io_reads + meter.io_writes
                    run = x.cursor.next_leaf_run()
                    x.io += meter.io_reads + meter.io_writes - io
                    if not run:
                        ending = x  # step ``m`` meets the end of its range
                        break
                    x.run += run
                end = min(budget, len(lanes[0].run) * stride,
                          len(lanes[-1].run) * stride + stride - 1)
                if roomy:
                    planned[0] = (end + stride - 1) // stride
                    planned[-1] = end // stride
                for lane, y in enumerate(() if roomy else lanes):
                    taken = planned[lane]
                    upto = (end - lane + stride - 1) // stride
                    if upto <= taken:
                        continue
                    new = map(_rid_of, islice(y.run, taken, upto))
                    new = list(new if member is None else filter(member, new))
                    kept_lo = y.kept + len(kept[lane])
                    room = allowed[lane] - len(kept[lane])
                    kept[lane] += new
                    planned[lane] = upto
                    if len(new) >= room + (y is not partner):
                        # a kept RID that would write a page ends the chunk
                        # before it (it is a chunk of its own); a partner's
                        # pause ends it after the RID that fills the buffer
                        mask = _keeps(member, y.run[taken:upto])
                        at = next(islice(compress(count(), mask), room - (y is partner), None))
                        end = min(end, (taken + at + (y is partner)) * stride + lane)
                        exact = True
                    if not cleared and not self._cannot_fire(
                        y, kept_lo, kept_lo + len(new), y.scanned + taken + 1,
                        y.scanned + upto, guaranteed,
                    ):
                        # near a crossing: the verdict entry by entry
                        running = accumulate(_keeps(member, y.run[taken:upto]), initial=kept_lo)
                        at = self._verdicts(
                            y, list(islice(running, 1, None)), y.scanned + taken + 1,
                            guaranteed,
                        )
                        if at is not None:
                            end, exact = min(end, (taken + at) * stride + lane + 1), True
                if end <= m:
                    if m:
                        break
                    end = 1  # the one step that writes a page
                for lane, y in enumerate(lanes):
                    # the lane's cost reaches its limit at its ``reach``-th
                    # entry of the chunk (its I/O is fixed over the run), or
                    # at its first step from ``m`` if it already has
                    reach = max(_cost_reach(y.io, cost_limit) - y.scanned,
                                (m - lane + stride - 1) // stride + 1)
                    fire = (reach - 1) * stride + lane + 1
                    if fire <= end:
                        end, exact = fire, True
                m = end
                if exact:
                    break

            # -- take the chunk's ``m`` steps
            taken_entries: list[list[Entry]] = [[], []]
            for lane, x in enumerate(lanes):
                q = (m - lane + stride - 1) // stride
                if not q:
                    continue
                lane_kept = kept[lane]
                if roomy or q != planned[lane]:
                    lane_kept = map(_rid_of, islice(x.run, q))
                    lane_kept = kept[lane] = list(
                        lane_kept if member is None else filter(member, lane_kept)
                    )
                if self.on_keep is not None and stride > 1:
                    taken_entries[lane] = x.run[:q]
                del x.run[:q]
                x.scanned += q
                if lane_kept:
                    rid_list = x.rid_list
                    spills = rid_list.spills
                    io = meter.io_reads + meter.io_writes
                    rid_list.extend(lane_kept, meter)
                    # only a chunk of one step stores a RID that writes a page
                    x.io += meter.io_reads + meter.io_writes - io
                    if rid_list.spills != spills:
                        self.trace.emit(
                            EventKind.SPILL,
                            index=x.name,
                            rids=len(rid_list),
                            region=rid_list.region.value,
                        )
                    x.kept += len(lane_kept)
                counters.index_entries_scanned += q
                counters.rids_filtered_out += q - len(lane_kept)
            if m:
                meter.charge_entries(m)
                steps += m
                if partner is not None:
                    self._turn ^= m & 1
                if self.on_keep is not None:
                    self._tap(lanes, member, kept, taken_entries, m)
            if ending is not None:
                steps += 1
                if partner is not None:
                    self._turn ^= 1
                self._complete_scan(ending)
                if self.finished:
                    return steps, True
                if self._active is None:
                    if not self._queue:
                        return steps, self._finalize()
                    self._active = self._start_scan(self._queue.pop(0))
                self._maybe_start_partner()
                member, guaranteed = self._member(), self.guaranteed_best_cost()
                cost_limit = self.criterion.scan_cost_limit_fraction * guaranteed
                continue
            if not exact:
                continue

            # -- the switch criterion, at the chunk's last entry
            last = lanes[(m - 1) % stride]
            decision, projection = self._switch_verdict(last, guaranteed)
            if decision is not SwitchDecision.CONTINUE:
                self._switch_away(last, REASONS[decision], guaranteed, projection)
        return steps, False

    def _switch_verdict(
        self, scan: _IndexScan, guaranteed: float
    ) -> tuple[SwitchDecision, float | None]:
        """The switch criterion at ``scan``'s latest entry, and the
        projection it judged: the final fetch's cost for the list the scan
        would complete at its observed keep rate (None before
        ``MIN_PROJECTION_FRACTION`` of its estimated range is scanned)."""
        projection = None
        estimate = scan.candidate.estimated_rids
        if estimate is not None:
            fraction = scan.scanned / max(estimate, float(scan.scanned))
            if fraction >= MIN_PROJECTION_FRACTION:
                projection = self.rid_fetch_cost(scan.kept / fraction, scan.rid_list)
        return self.criterion.evaluate(projection, scan.scan_cost, guaranteed), projection

    def _switch_away(
        self, scan: _IndexScan, reason: str, guaranteed: float, projection: float | None
    ) -> None:
        """Abandon ``scan`` on the switch criterion's verdict, noting the
        inputs it fired on: what the scan had cost (its I/O and scanned
        entries), what the projection said the fetch would cost (None while
        no reliable projection exists), and the guaranteed bound it lost to."""
        self.trace.note(
            DecisionKind.STAGE_TRANSITION,
            f"abandon({scan.name})",
            reason=reason,
            scanned=scan.scanned,
            kept=scan.kept,
            scan_io=scan.io,
            guaranteed=round(guaranteed, 2),
            projection=None if projection is None else round(projection, 2),
        )
        self._abandon_scan(scan, reason)
        self._maybe_start_partner()

    def _member(self) -> Callable[[RID], bool] | None:
        """The membership test of the current filter list: a set built once
        per completed in-memory list, the bitmap once spilled."""
        flt = self._filter
        if flt is None:
            return None
        cached = self._membership
        if cached is None or cached[0] is not flt:
            if flt.is_exact_filter:
                cached = (flt, frozenset(flt.iter_unsorted()).__contains__)
            else:
                cached = (flt, flt.may_contain)
            self._membership = cached
        return cached[1]

    def _fetch_reach(self, rid_list: HybridRidList, guaranteed: float) -> int:
        """The fewest RIDs at which :meth:`rid_fetch_cost` for a list in
        ``rid_list``'s region (a live list is spilled exactly when it has
        spilled) reaches ``threshold x guaranteed``
        (:func:`~repro.storage.rid.yao_reach`): the projection fires exactly
        when the projected list's whole RIDs number at least this."""
        return yao_reach(
            self.heap.page_count,
            self.heap.rows_per_page,
            self.criterion.threshold * guaranteed,
            rid_list.config.temp_rids_per_page if rid_list.spills else 0,
        )

    def _cannot_fire(
        self,
        x: _IndexScan,
        kept_lo: int,
        kept_hi: int,
        scanned_lo: int,
        scanned_hi: int,
        guaranteed: float,
    ) -> bool:
        """Whether the projection cannot fire at any entry of ``x`` that
        leaves ``scanned_lo..scanned_hi`` entries scanned and
        ``kept_lo..kept_hi`` kept — a bound from those ends. (The scan cost
        is bounded by the caller: it is a count.)
        """
        if guaranteed <= 0:
            return False
        estimate = x.candidate.estimated_rids
        if estimate is None:
            return True
        if scanned_hi / max(estimate, float(scanned_hi)) < MIN_PROJECTION_FRACTION:
            return True
        # an entry keeps at most one RID, so a projecting entry's kept count
        # over its fraction is at most ``kept_hi`` over the fraction at
        # ``pivot`` scanned entries (with room for the float operations'
        # rounding)
        pivot = max(scanned_lo, scanned_lo - 1 + kept_hi - kept_lo)
        size_hi = kept_hi / max(pivot / max(estimate, float(pivot)), MIN_PROJECTION_FRACTION)
        return int(size_hi * (1 + 1e-12)) < self._fetch_reach(x.rid_list, guaranteed)

    def _verdicts(
        self, x: _IndexScan, kept: list[int], scanned_lo: int, guaranteed: float
    ) -> int | None:
        """The first of ``x``'s entries, leaving ``kept`` RIDs kept and
        ``scanned_lo, scanned_lo + 1, ...`` scanned, at which the projection
        fires — its offset — or None."""
        if guaranteed <= 0:
            return 0
        estimate = x.candidate.estimated_rids
        scanned = range(scanned_lo, scanned_lo + len(kept))
        fractions = list(map(truediv, scanned, map(max, repeat(estimate), map(float, scanned))))
        at = bisect_left(fractions, MIN_PROJECTION_FRACTION)
        sizes = map(int, map(truediv, kept[at:], fractions[at:]))
        reach = self._fetch_reach(x.rid_list, guaranteed)
        hit = next(compress(count(), map(reach.__le__, sizes)), None)
        return None if hit is None else at + hit

    def _tap(
        self,
        lanes: tuple[_IndexScan, ...],
        member: Callable[[RID], bool] | None,
        kept: list[list[RID]],
        entries: list[list[Entry]],
        steps: int,
    ) -> None:
        """Hand a chunk's kept RIDs to :attr:`on_keep`, in step order
        (``entries``: a pair's entries the chunk took, per lane)."""
        on_keep = self.on_keep
        if len(lanes) == 1:
            position = lanes[0].position
            for rid in kept[0]:
                on_keep(rid, position)
            return
        # a pair: interleave the lanes' kept RIDs by the steps that kept them
        order = []
        for lane in (0, 1):
            rids = iter(kept[lane])
            order.append([next(rids) if keeps else None for keeps in _keeps(member, entries[lane])])
        for step in range(steps):
            rid = order[step % 2][step // 2]
            if rid is not None:
                on_keep(rid, lanes[step % 2].position)

    def _finalize(self) -> bool:
        if self._filter is not None:
            self.result_list = self._filter
            self.trace.emit(
                EventKind.RID_LIST_COMPLETE,
                rids=len(self._filter),
                region=self._filter.region.value,
            )
        else:
            self.tscan_recommended = True
            self.trace.emit(EventKind.TSCAN_RECOMMENDED)
        return True

    def _on_abandon(self) -> None:
        for scan in (self._active, self._partner):
            if scan is not None:
                scan.rid_list.discard()
        if self._filter is not None and self._filter is not self.result_list:
            self._filter.discard()

    def next_batch(self, max_rids: int) -> list[tuple[RID, int]]:
        """Advance until up to ``max_rids`` new RIDs have been kept.

        Returns the newly kept ``(rid, scan_position)`` pairs, in keep
        order. Steps run through :meth:`run_batch`, so cost accounting and
        the two-stage switch decisions are identical to repeated
        :meth:`step` calls; an installed :attr:`on_keep` tap still fires for
        every kept RID. An empty list means the joint scan ended (finished,
        empty intersection, Tscan recommendation, or abandonment) without
        keeping more RIDs.
        """
        if max_rids < 1:
            raise ValueError("max_rids must be >= 1")
        kept: list[tuple[RID, int]] = []
        outer = self.on_keep

        def capture(rid: RID, position: int) -> None:
            kept.append((rid, position))
            if outer is not None:
                outer(rid, position)

        self.on_keep = capture
        try:
            while self.active and len(kept) < max_rids:
                self.run_batch(max_rids - len(kept))
        finally:
            self.on_keep = outer
        return kept

    # -- consuming the result ------------------------------------------------------

    def sorted_result(self, meter: CostMeter | None = None) -> list[RID]:
        """Materialize the final RID list, sorted for page-clustered fetch,
        then discard the list: Jscan releases its memory and temp space
        "before any records are delivered"."""
        if self.result_list is None:
            raise RuntimeError("jscan produced no RID list")
        rids = self.result_list.sorted_rids(meter if meter is not None else self.meter)
        self.result_list.discard()
        return rids
