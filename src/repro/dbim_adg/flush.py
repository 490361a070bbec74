"""The Invalidation Flush Component (paper, sections III-D and III-F).

At QuerySCN advancement the recovery coordinator chops the IM-ADG Commit
Table into a **worklink** of commit-table nodes whose transactions have
commitSCN at or below the target.  For each node, the component gathers the
transaction's invalidation records through the one-step anchor reference,
organises them into **invalidation groups** (per object, chunked by block)
and routes each group to the SMUs -- directly on this instance, or over the
interconnect on RAC (the router abstraction; see ``repro.rac``).

Flush is on the critical path of QuerySCN publication, so two paper
optimisations are implemented:

* **cooperative flush** -- recovery workers drain worklink batches between
  apply batches (their ``flush_helper`` hook calls :meth:`worker_flush`);
* **commit-table partitioning** -- the chop concatenates per-partition
  prefixes instead of walking one global list.

DDL markers whose SCN is covered by the target are processed during
``begin_advance``: the object's IMCUs are dropped and the schema change is
applied, *before* the new QuerySCN becomes visible to queries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from repro import obs
from repro.chaos import sites
from repro.common.ids import DBA, ObjectId, TenantId, WorkerId
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.journal import AnchorNode, IMADGJournal
from repro.imcs.store import InMemoryColumnStore
from repro.redo.records import DDLMarkerPayload


@dataclass(slots=True)
class InvalidationGroup:
    """A batch of invalidations for one object, applied at one commitSCN.

    ``blocks`` maps DBA -> tuple of slots (empty tuple = whole block).
    Groups are the unit of routing: local application or one interconnect
    message entry on RAC.
    """

    object_id: ObjectId
    tenant: TenantId
    commit_scn: SCN
    blocks: dict[DBA, tuple[int, ...]] = field(default_factory=dict)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def gather_groups(
    anchors: Iterable[AnchorNode],
    commit_scn: SCN,
    block_limit: Optional[int] = None,
) -> list[InvalidationGroup]:
    """Organise one transaction's records into invalidation groups
    (paper, III-D: "chunks them up into invalidation groups based on the
    DBA ranges for IMCUs").

    ``anchors`` are the transaction's journal anchors -- one on a single
    instance, one per apply instance under MIRA.  One lexsort over the
    transaction's (object, dba, slot) triples replaces a per-record walk:
    each (object, dba) routes the union of its slots, and a whole-block
    entry (slot < 0) wins over any slot set.  ``block_limit`` caps
    *distinct DBAs* per group (RAC message sizing; None = one group per
    object).  Groups are cut only between DBAs, so no block's slot set is
    ever split across groups -- which would route the DBA twice (double
    epoch bumps locally, duplicate interconnect entries on RAC).
    """
    chunks = [chunk for anchor in anchors for chunk in anchor.chunks()]
    if not chunks:
        return []
    tenant = chunks[0].tenant
    if len(chunks) == 1:
        object_ids = chunks[0].object_ids
        dbas = chunks[0].dbas
        slots = chunks[0].slots
    else:
        object_ids = np.concatenate([c.object_ids for c in chunks])
        dbas = np.concatenate([c.dbas for c in chunks])
        slots = np.concatenate([c.slots for c in chunks])
    order = np.lexsort((slots, dbas, object_ids))
    obj_s = object_ids[order]
    dba_s = dbas[order]
    slot_s = slots[order]
    # Dedupe exact (object, dba, slot) triples in one vectorized shot --
    # after the lexsort, each run's surviving slots are unique and
    # ascending, so no per-run ``np.unique`` is needed.
    if obj_s.size > 1:
        keep = np.empty(obj_s.size, dtype=bool)
        keep[0] = True
        np.logical_or(obj_s[1:] != obj_s[:-1], dba_s[1:] != dba_s[:-1],
                      out=keep[1:])
        np.logical_or(keep[1:], slot_s[1:] != slot_s[:-1], out=keep[1:])
        obj_s = obj_s[keep]
        dba_s = dba_s[keep]
        slot_s = slot_s[keep]
    new_pair = np.empty(obj_s.size, dtype=bool)
    new_pair[0] = True
    np.logical_or(obj_s[1:] != obj_s[:-1], dba_s[1:] != dba_s[:-1],
                  out=new_pair[1:])
    starts = np.nonzero(new_pair)[0].tolist()
    starts.append(obj_s.size)
    # the per-run walk works on plain lists: for the short runs this loop
    # sees, list slicing beats numpy scalar extraction
    obj_l = obj_s.tolist()
    dba_l = dba_s.tolist()
    slot_l = slot_s.tolist()
    out: list[InvalidationGroup] = []
    group: Optional[InvalidationGroup] = None
    for b in range(len(starts) - 1):
        lo, hi = starts[b], starts[b + 1]
        obj = obj_l[lo]
        if (
            group is None
            or group.object_id != obj
            or (block_limit is not None and group.n_blocks >= block_limit)
        ):
            group = InvalidationGroup(
                object_id=obj, tenant=tenant, commit_scn=commit_scn
            )
            out.append(group)
        if slot_l[lo] < 0:
            # whole-block marker present (sorted first in the run)
            block_slots: tuple[int, ...] = ()
        else:
            block_slots = tuple(slot_l[lo:hi])
        group.blocks[dba_l[lo]] = block_slots
    return out


class LocalInvalidationRouter:
    """Applies invalidation groups to this instance's IMCS directly."""

    def __init__(self, store: InMemoryColumnStore) -> None:
        self.store = store
        self.groups_routed = 0

    def route(self, group: InvalidationGroup) -> None:
        # group-at-once: one epoch bump / mask write per touched SMU
        self.store.invalidate_many(
            group.object_id, group.blocks, group.commit_scn
        )
        self.groups_routed += 1

    def route_coarse(self, tenant: TenantId, scn: SCN) -> None:
        self.store.invalidate_tenant(tenant, scn)

    def drained(self) -> bool:
        return True  # local application is synchronous


class InvalidationListener:
    """Observer interface for flushed invalidations.

    The flush component notifies listeners *while* draining the worklink,
    i.e. before the coordinator publishes the new QuerySCN -- the ordering
    the QuerySCN-keyed result cache relies on (an entry is dropped before
    any query can observe the SCN that invalidated it).
    """

    def on_object_invalidated(self, object_id: ObjectId, scn: SCN) -> None:
        """A flushed invalidation group touched ``object_id``."""

    def on_group_flushed(self, group: "InvalidationGroup") -> None:
        """The full block/slot detail of a flushed group -- for listeners
        that need the touched row addresses (the CDC egress), not just
        the object id."""

    def on_coarse_invalidation(self, tenant: TenantId, scn: SCN) -> None:
        """A coarse (tenant-wide) invalidation was routed (paper, III-E)."""

    def on_object_dropped(self, object_id: ObjectId, scn: SCN) -> None:
        """A DDL marker dropped/disabled ``object_id``'s IMCUs."""


@dataclass(slots=True)
class Worklink:
    """The chopped-off commit-table prefix being flushed (paper, Fig. 8)."""

    target_scn: SCN
    nodes: deque[CommitTableNode]
    created: int = 0

    def __post_init__(self) -> None:
        self.created = len(self.nodes)

    @property
    def remaining(self) -> int:
        return len(self.nodes)


class InvalidationFlushComponent:
    """Implements the coordinator's AdvanceProtocol for DBIM-on-ADG."""

    nodes_flushed = obs.view("_nodes_flushed")
    nodes_flushed_by_workers = obs.view("_nodes_flushed_by_workers")
    groups_created = obs.view("_groups_created")
    coarse_flushes = obs.view("_coarse_flushes")
    ddl_processed = obs.view("_ddl_processed")
    #: Flush calls skipped by an installed chaos fault.
    chaos_stalls = obs.view("_chaos_stalls")
    #: Routing ops diverted to the staging buffer (deferred strategy).
    staged_ops = obs.view("_staged_ops_counter")
    #: Journal anchors retired post-publication (deferred strategy).
    staged_retired = obs.view("_staged_retired")

    def __init__(
        self,
        journal: IMADGJournal,
        commit_table: IMADGCommitTable,
        ddl_table: DDLInformationTable,
        store: InMemoryColumnStore,
        router: Optional[LocalInvalidationRouter] = None,
        ddl_applier: Optional[Callable[[DDLMarkerPayload], None]] = None,
        cooperative: bool = True,
        group_block_limit: int = 64,
    ) -> None:
        self.journal = journal
        self.commit_table = commit_table
        self.ddl_table = ddl_table
        self.store = store
        self.router = router or LocalInvalidationRouter(store)
        #: Applies schema changes on the standby (drop column, drop table,
        #: create table) when a DDL marker is processed.
        self.ddl_applier = ddl_applier
        #: Whether recovery workers participate (ablation switch).
        self.cooperative = cooperative
        #: Maximum blocks per invalidation group (RAC message sizing).
        self.group_block_limit = group_block_limit
        self.worklink: Optional[Worklink] = None
        # -- staged drain (DeferredDrainStrategy's shadow buffer) ---------
        #: When True, ``_flush_one`` appends routing work to the staging
        #: buffer instead of applying SMU masks, and defers journal
        #: anchor retirement; listeners are still notified at stage time
        #: (strictly pre-publication -- the result cache's contract).
        self._stage_mode = False
        #: Ordered routing ops awaiting :meth:`apply_staged`:
        #: ("group", group) or ("coarse", tenant, scn).
        self._staged_ops: list[tuple] = []
        #: Journal anchors awaiting post-publication retirement.
        self._pending_retire: deque = deque()
        # statistics
        self._obs = obs.current()
        self._nodes_flushed = obs.counter("dbim.flush.nodes_flushed")
        self._nodes_flushed_by_workers = obs.counter(
            "dbim.flush.nodes_flushed_by_workers"
        )
        self._groups_created = obs.counter("dbim.flush.groups_created")
        self._coarse_flushes = obs.counter("dbim.flush.coarse_flushes")
        self._ddl_processed = obs.counter("dbim.flush.ddl_processed")
        self._chaos_stalls = obs.counter("dbim.flush.chaos_stalls")
        self._staged_ops_counter = obs.counter("dbim.flush.staged_ops")
        self._staged_retired = obs.counter("dbim.flush.staged_retired")
        self._chaos = sites.declare("flush.worklink", owner=self)
        #: Observers of flushed invalidations (e.g. the query result
        #: cache).  Each listener is called *during* the flush -- i.e.
        #: strictly before the new QuerySCN is published.
        self.invalidation_listeners: list["InvalidationListener"] = []

    def add_invalidation_listener(
        self, listener: "InvalidationListener"
    ) -> None:
        self.invalidation_listeners.append(listener)

    def _notify_group(self, group: InvalidationGroup) -> None:
        for listener in self.invalidation_listeners:
            listener.on_object_invalidated(group.object_id, group.commit_scn)
            listener.on_group_flushed(group)

    def _notify_coarse(self, tenant: TenantId, scn: SCN) -> None:
        for listener in self.invalidation_listeners:
            listener.on_coarse_invalidation(tenant, scn)

    def _notify_ddl(self, object_id: ObjectId, scn: SCN) -> None:
        for listener in self.invalidation_listeners:
            listener.on_object_dropped(object_id, scn)

    # ------------------------------------------------------------------
    # AdvanceProtocol
    # ------------------------------------------------------------------
    def begin_advance(self, target_scn: SCN) -> None:
        nodes = self.commit_table.chop(target_scn)
        self.worklink = Worklink(target_scn, deque(nodes))
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            for node in nodes:
                tracer.record_chopped(node.commit_scn)
        self._process_ddl(target_scn)

    def coordinator_flush(self, batch: int) -> int:
        return self._flush_nodes(batch, by_worker=False)

    def is_advance_complete(self) -> bool:
        return (
            (self.worklink is None or self.worklink.remaining == 0)
            and self.router.drained()
        )

    def finish_advance(self, target_scn: SCN) -> None:
        self.worklink = None

    # ------------------------------------------------------------------
    # cooperative flush hook for recovery workers
    # ------------------------------------------------------------------
    def worker_flush(self, worker_id: WorkerId, batch: int) -> int:
        """Installed as the recovery workers' flush helper.

        Returns nodes flushed, or -1 when a worklink exists but draining
        is blocked -- the caller is genuinely *waiting* on the flush, not
        doing flush work, and accounts the time separately (the
        ``adg.apply.coop_flush_wait`` histogram).
        """
        if not self.cooperative:
            return 0
        flushed = self._flush_nodes(batch, by_worker=True)
        if flushed > 0:
            self._nodes_flushed_by_workers.inc(flushed)
        return flushed

    # ------------------------------------------------------------------
    def _flush_nodes(self, batch: int, by_worker: bool) -> int:
        """Drain up to ``batch`` worklink nodes.

        Returns the number flushed; 0 when there is nothing to drain; -1
        when the worklink has nodes but draining is blocked (an injected
        stall), so callers can distinguish idle from *blocked* time.
        """
        worklink = self.worklink
        if worklink is None or not worklink.nodes:
            return 0
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult(
                "flush", by_worker=by_worker, remaining=worklink.remaining
            )
            if decision.action is sites.Action.STALL:
                # worklink draining held back; the caller retries later
                self._chaos_stalls.inc()
                return -1
        flushed = 0
        while worklink.nodes and flushed < batch:
            node = worklink.nodes.popleft()
            self._flush_one(node)
            flushed += 1
        if flushed:
            self._nodes_flushed.inc(flushed)
        return flushed

    def _flush_one(self, node: CommitTableNode) -> None:
        staged = self._stage_mode
        if node.coarse:
            if staged:
                self._staged_ops.append(
                    ("coarse", node.tenant, node.commit_scn)
                )
                self._staged_ops_counter.inc()
            else:
                self.router.route_coarse(node.tenant, node.commit_scn)
            self._coarse_flushes.inc()
            self._notify_coarse(node.tenant, node.commit_scn)
        elif node.anchor is not None:
            for group in gather_groups(
                [node.anchor], node.commit_scn, self.group_block_limit
            ):
                if staged:
                    self._staged_ops.append(("group", group))
                    self._staged_ops_counter.inc()
                else:
                    self.router.route(group)
                self._groups_created.inc()
                self._notify_group(group)
        # the anchor's job is done: release it from the journal.  The flush
        # owns the advancement critical path, so an unbounded retry here
        # would livelock QuerySCN advancement if the latch holder died
        # (e.g. a recovery worker crashed mid-mine); the recovery variant
        # spins a bounded number of times and then breaks the dead
        # holder's latch.  In staged mode retirement leaves the critical
        # path entirely: anchors park until the coordinator's background
        # drain after publication (keeping the journal floor is safe --
        # it only makes restart tail replay conservatively longer).
        if staged:
            self._pending_retire.append(node.xid)
        else:
            self.journal.remove_with_recovery(node.xid, self)
        tracer = obs.tracer_of(self._obs)
        if tracer is not None:
            tracer.record_flushed(node.commit_scn)

    # ------------------------------------------------------------------
    # staged drain (DeferredDrainStrategy)
    # ------------------------------------------------------------------
    @property
    def router_is_synchronous(self) -> bool:
        """Staging needs synchronous SMU application inside the quiesce
        window; an interconnect router (SIRA RAC) applies remotely and
        asynchronously, so staged publication cannot certify it."""
        return isinstance(self.router, LocalInvalidationRouter)

    def set_staged(self, enabled: bool) -> None:
        self._stage_mode = enabled

    def apply_staged(self) -> int:
        """Route every staged op, in original drain order; returns the
        number applied.  Called inside the quiesce window, strictly
        before the publication that makes their commitSCNs visible."""
        ops, self._staged_ops = self._staged_ops, []
        for op in ops:
            if op[0] == "group":
                self.router.route(op[1])
            else:
                self.router.route_coarse(op[1], op[2])
        return len(ops)

    @property
    def has_pending_retire(self) -> bool:
        return bool(self._pending_retire)

    def retire_staged(self, batch: int) -> int:
        """Retire up to ``batch`` deferred journal anchors."""
        retired = 0
        while self._pending_retire and retired < batch:
            xid = self._pending_retire.popleft()
            self.journal.remove_with_recovery(xid, self)
            retired += 1
        if retired:
            self._staged_retired.inc(retired)
        return retired

    # ------------------------------------------------------------------
    def _process_ddl(self, target_scn: SCN) -> None:
        for entry in self.ddl_table.take_through(target_scn):
            for object_id in entry.payload.object_ids:
                self.store.drop_units(object_id)
                if entry.payload.kind in ("drop_table", "alter_no_inmemory"):
                    self.store.disable(object_id)
                self._notify_ddl(object_id, entry.scn)
            if self.ddl_applier is not None:
                self.ddl_applier(entry.payload)
            self._ddl_processed.inc()

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Instance restart: all volatile state is lost."""
        self.worklink = None
        self._staged_ops.clear()
        self._pending_retire.clear()
