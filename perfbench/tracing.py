"""Wall-clock spans around the calls into each layer, from outside ``src/``.

The benchmark never edits the program to trace it.  :func:`instrument`
replaces public entry points on the *instances* of one deployment (each
scheduled actor's ``step``, the miner/flush callables the apply workers
and the coordinator hold, the scan engine, the query service and its
cache, the primary's DML calls) with wrappers that open and close a span;
:meth:`Tracer.imcu_builds` patches ``IMCU.build`` for the duration of one
round and restores it afterwards.  Untraced rounds use none of this.

A span is ``(name, start, end, parent)``; spans nest because the
simulator runs one actor at a time in one thread.  A span's name is the
layer it is charged to, and a layer's self time is the sum of its spans'
durations minus the parts of them that child spans cover
(:func:`self_times`).
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Optional

from load import AdhocClient, DashboardClient, OltpClient
from repro.adg.apply import RecoveryWorker
from repro.adg.coordinator import RecoveryCoordinator
from repro.adg.merger import LogMerger
from repro.imcs.imcu import IMCU
from repro.imcs.population import PopulationWorker
from repro.query.executor import QueryWorker
from repro.redo.shipping import LogShipper

#: Layer charged for a benchmark client's own steps.
GENERATOR = "bench.generator"
#: Layer of scheduled actors outside the measured layers (heartbeats,
#: undo retention, the primary's idle population workers).
OTHER = "sim.other"

_ACTOR_LAYERS = (
    (LogShipper, "redo.shipping"),
    (LogMerger, "adg.merger"),
    (RecoveryWorker, "adg.apply"),
    (RecoveryCoordinator, "adg.coordinator"),
    (QueryWorker, "query.worker"),
)
#: Layers whose scheduled steps are counted busy/idle with modeled cost.
STEP_LAYERS = (
    "redo.shipping", "adg.merger", "adg.apply", "adg.coordinator",
    "imcs.population", "query.worker",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span), so overlapping children are not double
    counted."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def covered_wall(spans: list[Span]) -> float:
    """Wall time covered by root spans (roots never overlap)."""
    return sum(s.end - s.start for s in spans if s.parent < 0)


class Tracer:
    """In-memory span recorder plus per-layer counters."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._stack: list[int] = [-1]
        #: ``"<layer>.<counter>"`` -> value.
        self.counts: dict[str, float] = defaultdict(float)
        #: (object id, attribute) pairs already wrapped.
        self._wrapped: set[tuple[int, str]] = set()
        #: ids of QuerySCN publishers already counted.
        self._subscribed: set[int] = set()

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1])
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self._ends[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def spans(self) -> list[Span]:
        return [
            Span(*fields)
            for fields in zip(self._names, self._starts, self._ends,
                              self._parents)
        ]

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; ``on_result(value)`` sees each result."""
        counts = self.counts
        calls = f"{name}.calls"

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                value = fn(*args, **kwargs)
            finally:
                self.close(index)
            counts[calls] += 1
            if on_result is not None:
                on_result(value)
            return value

        return traced

    def _step_counter(self, layer: str) -> Callable:
        counts = self.counts

        def on_step(cost) -> None:
            if cost is None:
                counts[f"{layer}.idle_steps"] += 1
            else:
                counts[f"{layer}.busy_steps"] += 1
                counts[f"{layer}.modeled_s"] += cost

        return on_step

    # -- instrumentation ----------------------------------------------------
    def instrument(self, deployment) -> None:
        """Wrap every not-yet-wrapped entry point of ``deployment``.

        Idempotent: call again after adding actors or the query service.
        """
        standby = deployment.standby
        population = standby.population
        targets: list[tuple[object, str, str, Optional[Callable]]] = []
        for actor in deployment.sched.actors:
            layer = _actor_layer(actor, population)
            targets.append((actor, "step", layer, self._step_counter(layer)))
        primary = deployment.primary
        for method in ("begin", "insert", "update", "commit", "index_fetch"):
            targets.append((primary, method, "db.primary", None))
        targets.append((standby.scan_engine, "scan", "imcs.scan",
                        self._on_scan))
        targets.append((population, "run_one_task", "imcs.population", None))
        for worker in standby.workers:
            for attr in ("sniffer", "batch_sniffer"):
                if getattr(worker, attr) is not None:
                    targets.append((worker, attr, "dbim_adg.mining", None))
            if worker.flush_helper is not None:
                targets.append((worker, "flush_helper", "dbim_adg.flush",
                                self._on_flush))
        for method in ("begin_advance", "finish_advance"):
            targets.append((standby.flush, method, "dbim_adg.flush", None))
        targets.append((standby.flush, "coordinator_flush", "dbim_adg.flush",
                        self._on_flush))
        service = deployment.query_service
        if service is not None:
            targets.append((service, "submit", "query.service", None))
            if service.cache is not None:
                targets.append((service.cache, "lookup", "query.cache",
                                self._on_lookup))
        for obj, attr, layer, on_result in targets:
            key = (id(obj), attr)
            if key in self._wrapped:
                continue
            self._wrapped.add(key)
            setattr(obj, attr, self.wrap(layer, getattr(obj, attr), on_result))
        if id(standby.query_scn) not in self._subscribed:
            self._subscribed.add(id(standby.query_scn))
            standby.query_scn.subscribe(self._on_publish)

    def _on_scan(self, result) -> None:
        counts = self.counts
        stats = result.stats
        counts["imcs.scan.rows_out"] += len(result.rows)
        counts["imcs.scan.rows_examined"] += stats.imcs_rows + stats.rowstore_rows
        counts["imcs.scan.fallback_rows"] += stats.fallback_rows
        counts["imcs.scan.imcus_pruned"] += stats.imcus_pruned
        counts["imcs.scan.imcus_seen"] += (
            stats.imcus_used + stats.imcus_pruned + stats.imcus_unusable
        )

    def _on_flush(self, flushed: int) -> None:
        if flushed > 0:
            self.counts["dbim_adg.flush.nodes_flushed"] += flushed

    def _on_lookup(self, hit) -> None:
        if hit is not None:
            self.counts["query.cache.hits"] += 1

    def _on_publish(self, scn) -> None:
        self.counts["adg.coordinator.publishes"] += 1

    @contextmanager
    def imcu_builds(self):
        """Trace ``IMCU.build`` (class-wide) while the block runs."""
        original = IMCU.__dict__["build"]
        build = self.wrap("imcs.imcu", IMCU.build, self._on_build)
        IMCU.build = staticmethod(build)
        try:
            yield
        finally:
            IMCU.build = original

    def _on_build(self, imcu) -> None:
        self.counts["imcs.imcu.build_rows"] += imcu.n_rows


def _actor_layer(actor, population) -> str:
    if isinstance(actor, (OltpClient, AdhocClient, DashboardClient)):
        return GENERATOR
    if isinstance(actor, PopulationWorker):
        return "imcs.population" if actor.engine is population else OTHER
    for cls, layer in _ACTOR_LAYERS:
        if isinstance(actor, cls):
            return layer
    return OTHER
