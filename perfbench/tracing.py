"""In-memory span tracing for the benchmark's traced run.

The program carries no tracing of its own. :class:`Tracer` records spans
from outside it: while installed, it replaces a fixed set of public entry
points (one or more per layer) with timing wrappers, and it restores the
originals when it is removed. Spans stay in memory; the benchmark turns
them into per-layer numbers when the traced pass ends.

A span records its name, layer, start, end, parent span and the figure
id it belongs to (the identifier shared by every span of one figure
request). Spans opened on the calling thread nest through a thread-local
stack. On the remote grid backend the cells run on a worker server's
connection thread while the client blocks inside ``LoweredGrid.execute``;
a span opened on a thread with an empty stack is therefore parented to
the grid dispatch that is open at that moment, so worker-side time is
subtracted from the dispatch's self time instead of counted twice.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Layer key -> the modules whose entry points the layer's spans wrap.
LAYERS: dict[str, str] = {
    "scheduler": "core.scheduler",
    "store": "core.store / core.storenet (figure tier)",
    "plan": "core.plan (lower, cell_token, assemble)",
    "rng": "rng",
    "dispatch": "core.plan LoweredGrid.execute / core.runner / core.remote",
    "cell": "core.runner run_rep_job + workloads",
    "simcore": "simcore",
    "storenet": "core.storenet (cell-lease tier)",
}

#: Time inside the traced pass that no span covers (the benchmark loop).
OUTSIDE = "outside"


@dataclass
class Span:
    """One timed call into a layer's entry point."""

    span_id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    figure: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attr_figure(attr: str) -> Callable[[tuple], str | None]:
    """Figure id read from an attribute of the first argument (``self``)."""
    return lambda args: getattr(args[0], attr, None) if args else None


def _key_figure(args: tuple) -> str | None:
    """Figure id of a store call ``(store, key, ...)``."""
    return getattr(args[1], "figure_id", None) if len(args) > 1 else None


class Tracer:
    """Records spans around the program's public entry points.

    Use as a context manager around exactly the work to trace::

        tracer = Tracer()
        with tracer:
            scheduler.run(...)
        tracer.spans   # every finished span, in finish order

    Besides spans, the tracer keeps a few counts observed at the same
    boundaries (:attr:`counts`): grid cells lowered, simulated operations
    returned by memcached cells, and the remote wire's frames and bytes.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {
            "plan.cells": 0,
            "memcached.operations": 0,
            "remote.frames": 0,
            "remote.bytes": 0,
            "remote.cells": 0,
            "store.get_hits": 0,
        }
        self.chunk_sizes: list[int] = []
        self.cell_kinds: dict[int, str] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._dispatch: int | None = None
        self._dispatch_figure: str | None = None
        self._patches: list[tuple[Any, str, Any]] = []

    # --- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[tuple[int, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(
        self, name: str, layer: str, figure: str | None = None, *, dispatch: bool = False
    ) -> tuple:
        """Start a span on this thread; pass the result to :meth:`close`."""
        stack = self._stack()
        if stack:
            parent, parent_figure = stack[-1]
        else:
            parent, parent_figure = self._dispatch, self._dispatch_figure
        figure = figure or parent_figure
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append((span_id, figure))
        previous = None
        if dispatch:
            previous = (self._dispatch, self._dispatch_figure)
            self._dispatch, self._dispatch_figure = span_id, figure
        return (span_id, name, layer, parent, figure, previous, time.perf_counter())

    def close(self, token: tuple) -> None:
        """Finish the span :meth:`open` started."""
        end = time.perf_counter()
        span_id, name, layer, parent, figure, previous, start = token
        if previous is not None:
            self._dispatch, self._dispatch_figure = previous
        self._stack().pop()
        span = Span(span_id, name, layer, start, end, parent, figure)
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    # --- patching ------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(
        self,
        original: Callable,
        name: str,
        layer: str,
        *,
        figure_of: Callable[[tuple], str | None] | None = None,
        after: Callable[[tuple, Any, int], None] | None = None,
        dispatch: bool = False,
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            figure = figure_of(args) if figure_of is not None else None
            token = tracer.open(name, layer, figure, dispatch=dispatch)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(token)
            if after is not None:
                after(args, result, token[0])
            return result

        return traced

    def install(self) -> None:
        """Replace the traced entry points with timing wrappers."""
        plan = importlib.import_module("repro.core.plan")
        runner = importlib.import_module("repro.core.runner")
        scheduler = importlib.import_module("repro.core.scheduler")
        storenet = importlib.import_module("repro.core.storenet")
        remote = importlib.import_module("repro.core.remote")
        engine = importlib.import_module("repro.simcore.engine")
        tracer = self

        def lowered(args: tuple, grid: Any, _span: int) -> None:
            tracer.count("plan.cells", grid.width)

        def got(args: tuple, result: Any, _span: int) -> None:
            if result is not None:
                tracer.count("store.get_hits")

        def ran_cell(args: tuple, result: Any, span_id: int) -> None:
            kind = type(args[0].workload).__name__
            with tracer._lock:
                tracer.cell_kinds[span_id] = kind
            operations = getattr(result, "operations", None)
            if kind == "MemcachedYcsbWorkload" and operations is not None:
                tracer.count("memcached.operations", operations)

        wrap = self._wrap
        self._patch(scheduler.ExperimentScheduler, "run", wrap(
            scheduler.ExperimentScheduler.run, "ExperimentScheduler.run", "scheduler"))
        self._patch(plan.FigurePlan, "lower", wrap(
            plan.FigurePlan.lower, "FigurePlan.lower", "plan",
            figure_of=_attr_figure("figure_id"), after=lowered))
        self._patch(plan.FigurePlan, "assemble", wrap(
            plan.FigurePlan.assemble, "FigurePlan.assemble", "plan",
            figure_of=_attr_figure("figure_id")))
        self._patch(plan, "cell_token", wrap(plan.cell_token, "plan.cell_token", "plan"))
        self._patch(plan, "materialize_streams", wrap(
            plan.materialize_streams, "rng.materialize_streams", "rng"))
        self._patch(plan.LoweredGrid, "execute", wrap(
            plan.LoweredGrid.execute, "LoweredGrid.execute", "dispatch",
            figure_of=_attr_figure("figure_id"), dispatch=True))
        # One wrapper under both names: the plan module passes it to the
        # mapper, and the remote backend pickles it by reference to the
        # runner module, where it must resolve to the same object.
        cell = wrap(runner.run_rep_job, "run_rep_job", "cell", after=ran_cell)
        self._patch(runner, "run_rep_job", cell)
        self._patch(plan, "run_rep_job", cell)
        self._patch(engine.Simulator, "run", wrap(
            engine.Simulator.run, "Simulator.run", "simcore"))
        self._patch(storenet.TieredStore, "get", wrap(
            storenet.TieredStore.get, "store.get", "store",
            figure_of=_key_figure, after=got))
        self._patch(storenet.TieredStore, "put", wrap(
            storenet.TieredStore.put, "store.put", "store", figure_of=_key_figure))
        self._patch(storenet.RemoteStore, "cell_claim", wrap(
            storenet.RemoteStore.cell_claim, "RemoteStore.cell_claim", "storenet"))
        self._patch(storenet.RemoteStore, "cell_put", wrap(
            storenet.RemoteStore.cell_put, "RemoteStore.cell_put", "storenet"))

        mapper_call = remote.RemoteMapper.__call__

        @functools.wraps(mapper_call)
        def counted_map(mapper: Any, fn: Any, items: Any) -> Any:
            # Not a span: the wire counters live on the mapper, which the
            # scheduler creates and drops per figure request.
            items = list(items)
            before = (mapper.wire_stats.frames_sent + mapper.wire_stats.frames_received,
                      mapper.wire_stats.total_bytes)
            try:
                return mapper_call(mapper, fn, items)
            finally:
                stats = mapper.wire_stats
                tracer.count("remote.frames",
                             stats.frames_sent + stats.frames_received - before[0])
                tracer.count("remote.bytes", stats.total_bytes - before[1])
                tracer.count("remote.cells", len(items))
                if mapper.last_chunk_size is not None:
                    with tracer._lock:
                        tracer.chunk_sizes.append(mapper.last_chunk_size)

        self._patch(remote.RemoteMapper, "__call__", counted_map)

    def uninstall(self) -> None:
        """Put every replaced entry point back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


# --- analysis ----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in by_id:
            parent = by_id[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children.setdefault(span.parent, []).append((start, end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, []))
        for span in spans
    }


def nesting_violations(spans: list[Span], slack: float = 1e-6) -> list[str]:
    """Spans that start before or end after their parent (should be none)."""
    by_id = {span.span_id: span for span in spans}
    problems = []
    for span in spans:
        if span.parent is None:
            continue
        parent = by_id.get(span.parent)
        if parent is None:
            problems.append(f"{span.name}#{span.span_id}: parent {span.parent} missing")
        elif span.start < parent.start - slack or span.end > parent.end + slack:
            problems.append(f"{span.name}#{span.span_id} escapes {parent.name}#{parent.span_id}")
    return problems


def layer_self_times(spans: list[Span], wall: float) -> dict[str, float]:
    """Layer -> summed self time, plus :data:`OUTSIDE`: the wall left over.

    Self times never overlap when every span nests in its parent and
    sits inside the traced ``wall``, so :data:`OUTSIDE` is then the time
    no span covers; a negative value means spans were counted twice.
    """
    own = self_times(spans)
    layers = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layers[span.layer] = layers.get(span.layer, 0.0) + own[span.span_id]
    layers[OUTSIDE] = wall - sum(layers.values())
    return layers


def summed(spans: list[Span], name: str) -> float:
    """Total inclusive duration of every span called ``name``."""
    return sum(span.duration for span in spans if span.name == name)


def self_summed(spans: list[Span], name: str) -> float:
    """Total self time of every span called ``name``."""
    own = self_times(spans)
    return sum(own[span.span_id] for span in spans if span.name == name)
