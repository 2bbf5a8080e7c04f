"""Run-time tracing from outside the program: wrap, record, unwrap.

Nothing under ``src/`` is edited. :class:`Tracer` replaces public callables
at layer boundaries with wrappers for the length of the traced phase and
puts every original back afterwards:

* **spans** — a wrapper around a function, a method or a step generator
  records ``(name, start, end, parent, op_id)``; a generator gets one span
  per resumption, so time between resumptions is never counted. Self time
  is duration minus the time its child spans cover, kept online so it
  survives the cap on recorded spans.
* **counted leaves** — functions called thousands of times per op get a
  wrapper that only counts calls (by enclosing span) and samples
  arguments; :meth:`Tracer.replay` later calls the original directly with
  the sampled arguments to get ns/call free of wrapper cost.

The wrappers cost time themselves: some of it falls between a span's two
clock reads (inflating its own duration), the rest outside them (inflating
its parent's self time). :meth:`Tracer.calibrate` measures both on a no-op
and :meth:`Tracer.net_self` / :meth:`Tracer.net_total` subtract them, so the
layer table describes the program and not the instrument.

Module functions are patched in every ``repro`` namespace that imported
them (``from x import f`` makes a second reference the defining module
does not see).
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from typing import Any, Callable, Iterator, Sequence

perf_counter = time.perf_counter

#: recorded spans are capped; totals and self times keep accumulating
MAX_RECORDED_SPANS = 250_000
#: argument samples kept per counted leaf
MAX_LEAF_SAMPLES = 2_048

# an open frame: the span's name, seconds covered by children so far, index
# in Tracer.spans (-2 when beyond the cap), start, direct children, spans
# anywhere below, leaf calls directly inside, leaf calls anywhere below
_NAME, _CHILD_TIME, _INDEX, _START, _CHILDREN, _BELOW, _LEAF, _LEAF_BELOW = range(8)


class Aggregate:
    """Totals of one span name."""

    __slots__ = ("count", "total", "self_time", "children", "below", "leaf_calls",
                 "leaf_below")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = 0
        self.below = 0
        self.leaf_calls = 0
        self.leaf_below = 0


class Leaf:
    """Call counts and argument samples of one counted leaf function."""

    __slots__ = ("name", "original", "calls", "by_parent", "samples", "stride")

    def __init__(self, name: str, original: Callable, stride: int) -> None:
        self.name = name
        self.original = original
        self.calls = 0
        self.by_parent: dict[str, int] = {}
        self.samples: list[tuple] = []
        #: every ``stride``-th call's arguments are sampled; the stride
        #: doubles whenever the sample buffer fills
        self.stride = stride


class Tracer:
    """Installs wrappers, collects spans, restores the originals."""

    def __init__(self) -> None:
        #: recorded spans, one column each: flat arrays hold no objects the
        #: cyclic garbage collector would have to walk on every pass
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.op_ids = array("l")
        self.dropped = 0
        self.aggregates: dict[str, Aggregate] = {}
        self.leaves: dict[str, Leaf] = {}
        self.op_id = -1
        self._stack: list[list] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.active = False
        #: wrapper cost per span inside / outside its clock reads, and per
        #: counted leaf call (seconds; set by :meth:`calibrate`)
        self.span_inside = 0.0
        self.span_outside = 0.0
        self.leaf_cost = 0.0

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str) -> list:
        stack = self._stack
        index = len(self.names)
        if index < MAX_RECORDED_SPANS:
            self.names.append(name)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self.parents.append(stack[-1][_INDEX] if stack else -1)
            self.op_ids.append(self.op_id)
        else:
            index = -2
            self.dropped += 1
        frame = [name, 0.0, index, 0.0, 0, 0, 0, 0]
        stack.append(frame)
        frame[_START] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        start = frame[_START]
        duration = end - start
        index = frame[_INDEX]
        if index >= 0:
            self.starts[index] = start
            self.ends[index] = end
        aggregate = self.aggregates.get(frame[_NAME])
        if aggregate is None:
            aggregate = self.aggregates[frame[_NAME]] = Aggregate()
        aggregate.count += 1
        aggregate.total += duration
        aggregate.self_time += duration - frame[_CHILD_TIME]
        aggregate.children += frame[_CHILDREN]
        aggregate.below += frame[_BELOW]
        aggregate.leaf_calls += frame[_LEAF]
        aggregate.leaf_below += frame[_LEAF_BELOW]
        if stack:
            parent = stack[-1]
            parent[_CHILD_TIME] += duration
            parent[_CHILDREN] += 1
            parent[_BELOW] += 1 + frame[_BELOW]
            parent[_LEAF_BELOW] += frame[_LEAF_BELOW]

    def begin_op(self, op_id: int, name: str = "harness.op") -> list:
        """Open the root span of one client op."""
        self.op_id = op_id
        return self._enter(name)

    def end_op(self, frame: list) -> None:
        self._exit(frame)
        self.op_id = -1

    # -- wrapper factories ----------------------------------------------------

    def _span_wrapper(self, original: Callable, name: str | Callable,
                      on_result: Callable | None = None) -> Callable:
        """``name`` may be a callable of the call's positional arguments
        (one wrapper serving a class hierarchy); ``on_result(label, value)``
        sees each return value (step counting)."""
        tracer = self
        dynamic = callable(name)

        if inspect.isgeneratorfunction(inspect.unwrap(original)):
            def traced_steps(*args, **kwargs):
                label = name(*args) if dynamic else name
                gen = original(*args, **kwargs)
                sent = None
                try:
                    while True:
                        frame = tracer._enter(label)
                        try:
                            item = gen.send(sent)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            tracer._exit(frame)
                        sent = yield item
                finally:
                    gen.close()

            wrapper = traced_steps
        else:
            def traced(*args, **kwargs):
                label = name(*args) if dynamic else name
                frame = tracer._enter(label)
                try:
                    value = original(*args, **kwargs)
                finally:
                    tracer._exit(frame)
                if on_result is not None:
                    on_result(label, value)
                return value

            wrapper = traced
        wrapper.__wrapped__ = original
        return wrapper

    def _leaf(self, name: str, original: Callable, stride: int) -> Leaf:
        leaf = self.leaves.get(name)
        if leaf is None:
            leaf = self.leaves[name] = Leaf(name, original, stride)
        return leaf

    def _count(self, leaf: Leaf, sample: tuple) -> None:
        leaf.calls += 1
        stack = self._stack
        if stack:
            frame = stack[-1]
            frame[_LEAF] += 1
            frame[_LEAF_BELOW] += 1
            parent = frame[_NAME]
        else:
            parent = ""
        leaf.by_parent[parent] = leaf.by_parent.get(parent, 0) + 1
        if leaf.calls % leaf.stride == 0:
            leaf.samples.append(sample)
            if len(leaf.samples) >= MAX_LEAF_SAMPLES:
                # keep every other sample and sample half as often, so the
                # samples stay spread over the whole phase
                del leaf.samples[::2]
                leaf.stride *= 2

    def _leaf_wrapper(self, original: Callable, name: str) -> Callable:
        leaf = self._leaf(name, original, stride=7)
        count = self._count

        def counted(*args, **kwargs):
            count(leaf, args)  # replayed leaves are called positionally
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    def counted_callable(self, name: str) -> Callable[[Callable], Callable]:
        """For functions that *return* a hot callable (a compiled
        predicate): returns a post-processor that wraps each returned
        callable as a counted leaf named ``name``. Samples are
        ``(callable, *args)`` so one leaf serves every callable returned;
        a callable is never wrapped twice."""
        leaf = self._leaf(name, lambda fn, *args: fn(*args), stride=61)
        count = self._count

        def shim(fn: Callable) -> Callable:
            if getattr(fn, "_e2e_counted", False):
                return fn

            def counted(*args, **kwargs):
                count(leaf, (fn, *args))
                return fn(*args, **kwargs)

            counted._e2e_counted = True
            counted.__wrapped__ = fn
            return counted

        return shim

    @staticmethod
    def _post(wrapper: Callable, original: Callable, result: Callable | None) -> Callable:
        """Pass the wrapper's return value through ``result`` (if any)."""
        if result is None:
            return wrapper

        def processed(*args, **kwargs):
            return result(wrapper(*args, **kwargs))

        processed.__wrapped__ = original
        return processed

    # -- installing -----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str | Callable,
                    leaf: bool = False, on_result: Callable | None = None,
                    result: Callable | None = None) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself, not inherited)."""
        original = cls.__dict__[attr]
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{cls.__name__}.{attr}: static/class methods are not wrapped")
        wrapper = (self._leaf_wrapper(original, name) if leaf
                   else self._span_wrapper(original, name, on_result))
        self._set(cls, attr, self._post(wrapper, original, result))

    def wrap_function(self, module: Any, attr: str, name: str,
                      leaf: bool = False, result: Callable | None = None) -> None:
        """Wrap ``module.attr`` in every ``repro`` namespace holding it.

        ``result`` post-processes the wrapped function's return value (see
        :meth:`counted_callable`)."""
        original = module.__dict__[attr]
        wrapper = (self._leaf_wrapper(original, name) if leaf
                   else self._span_wrapper(original, name))
        wrapper = self._post(wrapper, original, result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def install(self, plan: Callable[["Tracer"], None]) -> None:
        """Apply ``plan`` (a function calling the ``wrap_*`` methods)."""
        if self.active:
            raise RuntimeError("tracer already installed")
        self.active = True
        try:
            plan(self)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    # -- the instrument's own cost ------------------------------------------------

    def calibrate(self, calls: int = 20_000) -> None:
        """Measure what one span wrapper and one leaf wrapper cost, on a
        no-op, with a scratch tracer so this one's records stay clean."""
        def noop():
            return None

        scratch = Tracer()
        span = scratch._span_wrapper(noop, "calibrate.child")
        counted = scratch._leaf_wrapper(noop, "calibrate.leaf")

        def timed(fn: Callable) -> float:
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                for _ in range(calls):
                    fn()
                best = min(best, perf_counter() - start)
            return best / calls

        frame = scratch._enter("calibrate.parent")
        bare = timed(noop)
        wrapped = timed(span)
        leaf = timed(counted)
        scratch._exit(frame)
        child = scratch.aggregates["calibrate.child"]
        self.span_inside = max(0.0, child.total / child.count - bare)
        self.span_outside = max(0.0, wrapped - bare - self.span_inside)
        self.leaf_cost = max(0.0, leaf - bare)

    def net_self(self, name: str) -> float:
        """Self seconds of ``name`` without the wrappers' cost: its own
        clock-read gap, its direct children's outside cost, and the leaf
        wrappers it called directly."""
        a = self.aggregates.get(name)
        if a is None:
            return 0.0
        cost = (a.count * self.span_inside + a.children * self.span_outside
                + a.leaf_calls * self.leaf_cost)
        return max(0.0, a.self_time - cost)

    def net_total(self, name: str) -> float:
        """Total seconds of ``name`` without the cost of every wrapper at
        or below it."""
        a = self.aggregates.get(name)
        if a is None:
            return 0.0
        cost = (a.count * self.span_inside
                + a.below * (self.span_inside + self.span_outside)
                + a.leaf_below * self.leaf_cost)
        return max(0.0, a.total - cost)

    def layer_self_times(self) -> dict[str, float]:
        """Net self seconds per layer (the name's part before the dot)."""
        layers: dict[str, float] = {}
        for name in self.aggregates:
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self.net_self(name)
        return layers

    # -- results ----------------------------------------------------------------

    def spans(self) -> Iterator[tuple[str, float, float, int, int]]:
        """The recorded spans as ``(name, start, end, parent, op_id)``."""
        return zip(self.names, self.starts, self.ends, self.parents, self.op_ids)

    def replay(self, name: str, min_seconds: float = 0.5,
               prepare: Callable[[list[tuple]], list[tuple]] | None = None) -> float:
        """ns/call of a counted leaf: the original, called directly with
        the sampled arguments, for at least ``min_seconds``. Returns 0.0
        when the traced phase never called it."""
        leaf = self.leaves.get(name)
        if leaf is None or not leaf.samples:
            return 0.0
        samples = prepare(leaf.samples) if prepare is not None else leaf.samples
        if not samples:
            return 0.0
        original = leaf.original
        calls = 0
        elapsed = 0.0
        while elapsed < min_seconds:
            start = perf_counter()
            for args in samples:
                original(*args)
            elapsed += perf_counter() - start
            calls += len(samples)
        return elapsed / calls * 1e9

    def write_jsonl(self, path: str, header: dict[str, Any]) -> None:
        """One header line, one line per recorded span, one line of totals."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({
                "type": "header", **header, "recorded": len(self.names),
                "dropped": self.dropped, "span_inside_s": self.span_inside,
                "span_outside_s": self.span_outside, "leaf_cost_s": self.leaf_cost,
            }) + "\n")
            for index, (name, start, end, parent, op_id) in enumerate(self.spans()):
                out.write(
                    f'{{"id":{index},"name":"{name}","start":{start:.7f},'
                    f'"end":{end:.7f},"parent":{parent},"op":{op_id}}}\n')
            out.write(json.dumps({
                "type": "totals",
                "spans": {
                    name: {"count": a.count, "total_s": a.total, "self_s": a.self_time,
                           "net_self_s": self.net_self(name),
                           "net_total_s": self.net_total(name)}
                    for name, a in sorted(self.aggregates.items())
                },
                "leaves": {
                    name: {"calls": leaf.calls, "by_parent": leaf.by_parent}
                    for name, leaf in sorted(self.leaves.items())
                },
            }) + "\n")


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Self time of each recorded span: duration minus the time covered by
    its direct children. Works on the ``(name, start, end, parent, op)``
    records of a trace file as well as on ``list(tracer.spans())``."""
    out = [span[2] - span[1] for span in spans]
    for span in spans:
        parent = span[3]
        if parent >= 0:
            out[parent] -= span[2] - span[1]
    return out
