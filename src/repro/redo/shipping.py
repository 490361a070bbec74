"""Redo transport: primary -> standby over a simulated network.

One :class:`LogShipper` actor per primary redo thread tails that thread's
log and ships each run of new records -- transposed once into a columnar
:class:`~repro.redo.batch.CVBatch` -- to the standby's :class:`RedoReceiver`
with a configurable one-way latency (the paper: "the Primary communicates
with the Standby database over a network protocol like TCP/IP").  The
receiver buffers per-thread queues that the standby's log merger consumes.

**Gap resolution (FAL).**  Each shipment carries its starting position in
the thread's log.  If the receiver sees a batch start beyond the position
it expected -- redo was lost in transit, or the shipper was bounced past
records -- it has detected an *archive gap* and fetches the missing range
through its ``fal_fetch`` callback (Oracle's Fetch Archive Log service:
the standby pulls the gap from the primary's archived logs).  Without a
FAL source the receiver refuses to skip redo and raises, because applying
past a gap would corrupt the standby.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro import obs
from repro.chaos import sites
from repro.common.ids import InstanceId
from repro.common.scn import NULL_SCN, SCN
from repro.redo.batch import CVBatch
from repro.redo.log import LogReader, RedoLog
from repro.redo.records import RedoRecord
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler


class RedoReceiver:
    """Standby-side landing zone: one inbound queue per redo thread."""

    #: Archive gaps detected and FAL-healed.
    gaps_resolved = obs.view("_gaps_resolved")
    gap_records_fetched = obs.view("_gap_records_fetched")
    #: Already-received records discarded on redelivery (duplicated or
    #: reordered shipments; redo application must stay exactly-once).
    duplicates_discarded = obs.view("_duplicates_discarded")
    #: Whole batches dropped by an installed chaos fault.
    batches_dropped = obs.view("_batches_dropped")

    def __init__(self, fal_fetch=None) -> None:
        #: Per-thread landing queues of CVBatches.
        self._queues: dict[InstanceId, deque[CVBatch]] = {}
        #: Highest SCN received per thread (for lag measurement).
        self.received_scn: dict[InstanceId, SCN] = {}
        #: Next expected log position per thread (gap detection).
        self._expected_position: dict[InstanceId, int] = {}
        #: Records landed (queued for merge) per thread -- with contiguous
        #: delivery this always equals the expected-position watermark.
        self.records_landed: dict[InstanceId, int] = {}
        #: fal_fetch(thread, lo, hi) -> list[RedoRecord]: fetches the
        #: positions [lo, hi) from the primary's archived logs.
        self.fal_fetch = fal_fetch
        self._obs = obs.current()
        self._gaps_resolved = obs.counter("redo.receiver.gaps_resolved")
        self._gap_records_fetched = obs.counter(
            "redo.receiver.gap_records_fetched"
        )
        self._duplicates_discarded = obs.counter(
            "redo.receiver.duplicates_discarded"
        )
        self._batches_dropped = obs.counter("redo.receiver.batches_dropped")
        self._chaos = sites.declare("redo.receive", owner=self)

    def register_thread(self, thread: InstanceId) -> None:
        self._queues.setdefault(thread, deque())
        self.received_scn.setdefault(thread, NULL_SCN)
        self._expected_position.setdefault(thread, 0)
        self.records_landed.setdefault(thread, 0)

    def expected_position(self, thread: InstanceId) -> int:
        """The gap-tracking watermark: next log position expected."""
        return self._expected_position[thread]

    def deliver(
        self,
        batch: CVBatch,
        position: int | None = None,
        thread: InstanceId | None = None,
    ) -> None:
        """Land a shipment.

        ``position`` is the shipment's starting position in its thread's
        log; None disables gap tracking (direct test use).  An empty
        tracked shipment must name its ``thread`` explicitly so gap
        tracking can still advance.  A duplicate prefix is discarded by
        *splitting* the batch at the record boundary.
        """
        count = batch.n_records
        if count:
            thread = batch.thread
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult(
                "deliver",
                thread=thread,
                position=position,
                count=count,
            )
            if decision.action is sites.Action.DROP:
                self._batches_dropped.inc()
                return
        if position is not None:
            if thread is None:
                raise ValueError(
                    "empty tracked shipment: gap tracking needs an "
                    "explicit thread"
                )
            expected = self._expected_position[thread]
            if position > expected:
                # an archive gap -- even a zero-record shipment starting
                # beyond the watermark proves redo was lost in between
                self._resolve_gap(thread, expected, position)
                expected = position
            elif position < expected:
                # redelivery (duplicated or reordered shipment): the
                # prefix up to the watermark already landed -- discard it
                already = min(expected - position, count)
                self._duplicates_discarded.inc(already)
                batch = batch.slice_records(already, count)
                count -= already
                position = expected
            self._expected_position[thread] = position + count
            self.records_landed[thread] += count
        if count:
            self._land(batch)

    def _land(self, batch: CVBatch) -> None:
        self._queues[batch.thread].append(batch)
        if batch.last_scn > self.received_scn[batch.thread]:
            self.received_scn[batch.thread] = batch.last_scn
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            for view in batch.record_views():
                tracer.record_received(view)

    def _resolve_gap(self, thread: InstanceId, lo: int, hi: int) -> None:
        """FAL-heal positions [lo, hi): the answer lands as one CVBatch
        per thread, each in fetch order."""
        if self.fal_fetch is None:
            raise RuntimeError(
                f"archive gap on thread {thread}: positions [{lo}, {hi}) "
                "missing and no FAL source configured"
            )
        fetched = self.fal_fetch(thread, lo, hi)
        if len(fetched) != hi - lo:
            raise RuntimeError(
                f"FAL returned {len(fetched)} records for gap of {hi - lo}"
            )
        by_thread: dict[InstanceId, list[RedoRecord]] = {}
        for record in fetched:
            by_thread.setdefault(record.thread, []).append(record)
        for fetched_thread, records in by_thread.items():
            # FAL may answer with redo from a thread this receiver has
            # not yet registered (a late-added primary instance whose
            # first shipment is still in flight): land it rather than
            # KeyError -- gap accounting below still charges the thread
            # whose gap triggered the fetch.
            self.register_thread(fetched_thread)
            self._land(CVBatch.from_records(records))
        self.records_landed[thread] += hi - lo
        self._gaps_resolved.inc()
        self._gap_records_fetched.inc(hi - lo)

    @property
    def threads(self) -> list[InstanceId]:
        return list(self._queues)

    def queue(self, thread: InstanceId) -> deque:
        return self._queues[thread]

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())


class LogShipper(Actor):
    """Tails one redo thread and ships new records to a receiver.

    Shipping cost is charged to the primary node (redo transport service);
    delivery happens ``latency`` simulated seconds later.
    """

    #: Simulated CPU seconds per shipped record (marshalling overhead).
    COST_PER_RECORD = 2e-6

    #: Records lost in transit by an installed chaos fault.
    records_dropped = obs.view("_records_dropped")

    def __init__(
        self,
        log: RedoLog,
        receiver: RedoReceiver,
        latency: float = 0.002,
        batch: int = 256,
        node: Optional[CpuNode] = None,
        name: Optional[str] = None,
    ) -> None:
        self._reader: LogReader = log.reader()
        self._receiver = receiver
        self.latency = latency
        self.batch = batch
        self.node = node
        self.name = name or f"shipper-t{log.thread}"
        self._obs = obs.current()
        self._records_dropped = obs.counter(
            "redo.shipper.records_dropped", thread=log.thread
        )
        self._chaos = sites.declare("redo.ship", owner=self)
        receiver.register_thread(log.thread)

    @property
    def shipped_through(self) -> int:
        return self._reader.position

    def drop_next(self, n: int) -> None:
        """Fault injection: lose the next ``n`` records in transit (the
        reader advances without shipping, creating an archive gap)."""
        self._reader.take(n)

    def step(self, sched: Scheduler) -> Optional[float]:
        position = self._reader.position
        records = self._reader.take(self.batch)
        if not records:
            return None
        receiver = self._receiver
        latency = self.latency
        payload = CVBatch.from_records(records)
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult(
                "ship",
                thread=records[0].thread,
                position=position,
                count=len(records),
            )
            if decision.action is sites.Action.DROP:
                # lost in transit: the reader advanced, creating an
                # archive gap the receiver will FAL-heal
                self._records_dropped.inc(len(records))
                return self.COST_PER_RECORD * len(records)
            if decision.action is sites.Action.DELAY:
                latency += decision.delay
            elif decision.action is sites.Action.DUPLICATE:
                sched.call_after(
                    latency + self.latency,
                    lambda: receiver.deliver(payload, position),
                )
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            for record in records:
                tracer.record_shipped(record)
        sched.call_after(
            latency, lambda: receiver.deliver(payload, position)
        )
        return self.COST_PER_RECORD * len(records)


class FanOutLogShipper(Actor):
    """Tails one redo thread and ships every batch to N standby members.

    The reader-farm transport: one reader position shared across all
    destinations, so every member sees identical batch boundaries, but
    delivery is per-destination -- a chaos fault can drop or delay one
    member's copy (the chaos context carries ``dest=<member name>``)
    and only that member FAL-heals the resulting gap.  Removing a
    destination (standby loss) simply stops shipping to it; the others
    are untouched.
    """

    COST_PER_RECORD = LogShipper.COST_PER_RECORD

    records_dropped = obs.view("_records_dropped")

    def __init__(
        self,
        log: RedoLog,
        destinations: list[tuple[str, RedoReceiver]],
        latency: float = 0.002,
        batch: int = 256,
        node: Optional[CpuNode] = None,
        name: Optional[str] = None,
    ) -> None:
        self._reader: LogReader = log.reader()
        self.thread = log.thread
        self._destinations: dict[str, RedoReceiver] = {}
        self.latency = latency
        self.batch = batch
        self.node = node
        self.name = name or f"fanout-shipper-t{log.thread}"
        self._obs = obs.current()
        self._records_dropped = obs.counter(
            "redo.shipper.records_dropped", thread=log.thread, fanout=1
        )
        self._chaos = sites.declare("redo.ship", owner=self)
        for dest_name, receiver in destinations:
            self.add_destination(dest_name, receiver)

    @property
    def shipped_through(self) -> int:
        return self._reader.position

    @property
    def destinations(self) -> list[str]:
        return list(self._destinations)

    def add_destination(self, name: str, receiver: RedoReceiver) -> None:
        if name in self._destinations:
            raise ValueError(f"duplicate fan-out destination {name!r}")
        receiver.register_thread(self.thread)
        self._destinations[name] = receiver

    def remove_destination(self, name: str) -> None:
        """Stop shipping to a member (standby loss/dismount)."""
        self._destinations.pop(name, None)

    def step(self, sched: Scheduler) -> Optional[float]:
        position = self._reader.position
        records = self._reader.take(self.batch)
        if not records:
            return None
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            for record in records:
                tracer.record_shipped(record)
        # one shared batch for every member: its arrays are never
        # mutated in flight, and per-member chaos still decides per copy
        payload = CVBatch.from_records(records)
        chaos = self._chaos
        for dest, receiver in self._destinations.items():
            latency = self.latency
            if chaos.injectors is not None:
                decision = chaos.consult(
                    "ship",
                    thread=records[0].thread,
                    position=position,
                    count=len(records),
                    dest=dest,
                )
                if decision.action is sites.Action.DROP:
                    # this member's copy is lost in transit; its receiver
                    # will detect the gap and FAL-heal it
                    self._records_dropped.inc(len(records))
                    continue
                if decision.action is sites.Action.DELAY:
                    latency += decision.delay
                elif decision.action is sites.Action.DUPLICATE:
                    sched.call_after(
                        latency + self.latency,
                        lambda r=receiver: r.deliver(payload, position),
                    )
            sched.call_after(
                latency, lambda r=receiver: r.deliver(payload, position)
            )
        return self.COST_PER_RECORD * len(records) * max(
            1, len(self._destinations)
        )
