"""Record-at-a-time reference interpreter for standby ingest.

The standby ingests redo as columnar :class:`~repro.redo.batch.CVBatch`
units end to end.  This module is the plain interpretation of the same
redo, one change vector at a time, kept as the oracle that the batched
path is checked against (DESIGN.md section 15) and as the baseline of the
ingest benchmark's speedup gate:

* per-CV ``hash(dba) % n_workers`` routing into ``(scn, cv)`` queues
  (:class:`RecordDistributor`);
* per-CV sniffing (:class:`RecordMiner`) into record-list anchors
  (:class:`RecordAnchorNode` holding :class:`InvalidationRecord` tuples);
  commit-table nodes are inserted as each commit record is sniffed;
* the dict-walk invalidation-group gather (:func:`gather_groups`), which
  places each record in first-seen order.

The journal latches, the commit table and the DDL information table are
the product's own structures; only the per-CV interpretation lives here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro import obs
from repro.common.ids import DBA, ObjectId, TenantId, TransactionId, WorkerId
from repro.common.scn import NULL_SCN, SCN
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.flush import InvalidationGroup
from repro.dbim_adg.journal import AnchorNode, IMADGJournal
from repro.dbim_adg.mining import MiningComponent
from repro.imcs.store import InMemoryColumnStore
from repro.redo.records import (
    CVOp,
    ChangeVector,
    CommitPayload,
    DeletePayload,
    InsertPayload,
    RedoRecord,
    TruncatePayload,
    UpdatePayload,
)


class RecordDistributor:
    """Hashes the CVs of merged records onto per-worker ``(scn, cv)``
    queues."""

    def __init__(self, n_workers: int) -> None:
        self.n_workers = n_workers
        self.queues: list[deque[tuple[SCN, ChangeVector]]] = [
            deque() for __ in range(n_workers)
        ]
        #: Highest SCN fully handed out to the queues.
        self.distributed_through: SCN = NULL_SCN

    def worker_for(self, cv: ChangeVector) -> WorkerId:
        return hash(cv.dba) % self.n_workers

    def distribute(self, records: Iterable[RedoRecord]) -> int:
        """Route every CV of the records; returns the CV count."""
        routed = 0
        for record in records:
            for cv in record.cvs:
                self.queues[self.worker_for(cv)].append((record.scn, cv))
                routed += 1
            if record.scn > self.distributed_through:
                self.distributed_through = record.scn
        return routed


@dataclass(frozen=True, slots=True)
class InvalidationRecord:
    """One mined tuple (paper, Fig. 6): which rows of which block of which
    object a transaction modified, plus the tenant for multi-tenancy.

    ``slots`` empty means the whole block is affected (e.g. truncate).
    ``scn`` is the SCN of the sniffed change vector.
    """

    object_id: ObjectId
    dba: DBA
    slots: tuple[int, ...]
    tenant: TenantId
    scn: SCN


@dataclass(slots=True)
class RecordAnchorNode(AnchorNode):
    """An anchor whose per-worker buffer areas hold record lists."""

    worker_records: dict[WorkerId, list[InvalidationRecord]] = field(
        default_factory=dict
    )

    def add(self, worker_id: WorkerId, record: InvalidationRecord) -> None:
        self.note_scn(record.scn)
        self.worker_records.setdefault(worker_id, []).append(record)

    def all_records(self) -> Iterator[InvalidationRecord]:
        for records in self.worker_records.values():
            yield from records

    @property
    def n_records(self) -> int:
        return sum(len(r) for r in self.worker_records.values())


class RecordJournal(IMADGJournal):
    """The product journal, creating :class:`RecordAnchorNode` anchors."""

    def get_or_create(
        self, xid: TransactionId, tenant: TenantId, owner: object
    ) -> Optional[RecordAnchorNode]:
        index = self._bucket_index(xid)
        latch = self.latches.latch_for(index)
        if not latch.try_acquire(owner):
            return None
        try:
            anchor = self._buckets[index].get(xid)
            if anchor is None:
                anchor = RecordAnchorNode(xid=xid, tenant=tenant)
                anchor.floor_sink = self._note_floor
                self._buckets[index][xid] = anchor
                self._anchors_created.inc()
            return anchor
        finally:
            latch.release(owner)


class RecordMiner(MiningComponent):
    """The Mining Component, sniffing one change vector at a time.

    Begin/prepare/abort handling is the product's own
    (:meth:`MiningComponent._sniff_control`); data and commit records are
    interpreted per CV here.
    """

    def sniff(
        self, cv: ChangeVector, scn: SCN, worker_id: WorkerId, owner: object
    ) -> bool:
        """Mine one CV.  False = latch miss; the worker must retry it."""
        mined = self._sniff_cv(cv, scn, worker_id, owner)
        if mined:
            tracer = obs.tracer_of(self._obs)
            if tracer is not None:
                tracer.record_mined(scn)
        return mined

    def _sniff_cv(
        self, cv: ChangeVector, scn: SCN, worker_id: WorkerId, owner: object
    ) -> bool:
        op = cv.op
        if op is CVOp.HEARTBEAT or op is CVOp.UNDO:
            # Heartbeats carry no change.  UNDO (rollback) restores rows to
            # their committed state -- which is what the IMCU already holds,
            # so aborted changes never need invalidation; the journal's
            # buffered records are discarded when the abort is mined.
            return True
        if op is CVOp.DDL_MARKER:
            self.ddl_table.add(scn, cv.payload)
            self._ddl_markers_mined.inc()
            return True
        if cv.is_control:
            if op is CVOp.TXN_COMMIT:
                return self._sniff_commit_now(cv, owner)
            return self._sniff_control(cv, scn, owner)
        return self._sniff_data(cv, scn, worker_id, owner)

    def _sniff_commit_now(self, cv: ChangeVector, owner: object) -> bool:
        payload: CommitPayload = cv.payload
        acquired, anchor = self.journal.get(cv.xid, owner)
        if not acquired:
            self._latch_misses.inc()
            return False
        if anchor is not None and anchor.has_begin:
            node = CommitTableNode(
                xid=cv.xid,
                commit_scn=payload.commit_scn,
                anchor=anchor,
                tenant=cv.tenant,
            )
        else:
            if payload.modifies_imcs is False:
                self._control_records_mined.inc()
                return True
            if self.tail_mode:
                self._tail_commits_skipped.inc()
                self._control_records_mined.inc()
                return True
            node = CommitTableNode(
                xid=cv.xid,
                commit_scn=payload.commit_scn,
                anchor=anchor,
                tenant=cv.tenant,
                coarse=True,
            )
            self._coarse_nodes_created.inc()
        if not self.commit_table.insert(node, owner):
            self._latch_misses.inc()
            if node.coarse:
                self._coarse_nodes_created.inc(-1)  # recreated on retry
            return False
        self._control_records_mined.inc()
        return True

    def _sniff_data(
        self, cv: ChangeVector, scn: SCN, worker_id: WorkerId, owner: object
    ) -> bool:
        if not self.imcs.is_enabled(cv.object_id):
            return True  # not populated here: nothing to maintain
        if cv.op is CVOp.TRUNCATE:
            # The IMCU drop rides the TRUNCATE's DDL marker; the block-wipe
            # CV's system xid never commits, so it is never journaled.
            return True
        anchor = self.journal.get_or_create(cv.xid, cv.tenant, owner)
        if anchor is None:
            self._latch_misses.inc()
            return False
        anchor.add(
            worker_id,
            InvalidationRecord(
                object_id=cv.object_id,
                dba=cv.dba,
                slots=self._changed_slots(cv),
                tenant=cv.tenant,
                scn=scn,
            ),
        )
        self._data_records_mined.inc()
        return True

    @staticmethod
    def _changed_slots(cv: ChangeVector) -> tuple[int, ...]:
        payload = cv.payload
        if isinstance(payload, (InsertPayload, UpdatePayload, DeletePayload)):
            return (payload.slot,)
        if isinstance(payload, TruncatePayload):
            return ()  # whole block
        return ()


def gather_groups(
    records: Iterable[InvalidationRecord],
    commit_scn: SCN,
    block_limit: Optional[int] = None,
) -> list[InvalidationGroup]:
    """Organise one transaction's records into invalidation groups by
    walking them in order.

    ``block_limit`` caps *distinct DBAs* per group (None = one group per
    object), so a new group may only be opened when a record adds a
    **new** DBA; a record for a DBA already placed merges into that
    group's entry, and a whole-block entry wins over any slot set.
    """
    open_group: dict[ObjectId, InvalidationGroup] = {}
    assigned: dict[tuple[ObjectId, DBA], InvalidationGroup] = {}
    out: list[InvalidationGroup] = []
    for record in records:
        key = (record.object_id, record.dba)
        group = assigned.get(key)
        if group is None:
            group = open_group.get(record.object_id)
            if group is None or (
                block_limit is not None and group.n_blocks >= block_limit
            ):
                group = InvalidationGroup(
                    object_id=record.object_id,
                    tenant=record.tenant,
                    commit_scn=commit_scn,
                )
                open_group[record.object_id] = group
                out.append(group)
            assigned[key] = group
        existing = group.blocks.get(record.dba)
        if existing is None:
            group.blocks[record.dba] = record.slots
        elif existing == () or record.slots == ():
            group.blocks[record.dba] = ()  # whole block wins
        else:
            group.blocks[record.dba] = tuple(
                sorted(set(existing) | set(record.slots))
            )
    return out


def routed_union(groups: Iterable[InvalidationGroup]) -> dict:
    """``{(object_id, dba): slots}`` over groups -- what the SMUs see,
    independent of how the records were grouped (``()`` = whole block)."""
    union: dict[tuple[ObjectId, DBA], tuple[int, ...]] = {}
    for group in groups:
        for dba, slots in group.blocks.items():
            key = (group.object_id, dba)
            existing = union.get(key)
            if existing is None:
                union[key] = tuple(sorted(slots))
            elif existing == () or slots == ():
                union[key] = ()
            else:
                union[key] = tuple(sorted(set(existing) | set(slots)))
    return union


class RecordIngest:
    """The reference interpreter's DBIM-on-ADG state: a record journal,
    commit table and DDL information table fed by a :class:`RecordMiner`
    over the product's column store."""

    def __init__(
        self,
        imcs: InMemoryColumnStore,
        n_buckets: int = 64,
        commit_table_partitions: int = 4,
    ) -> None:
        self.journal = RecordJournal(n_buckets)
        self.commit_table = IMADGCommitTable(commit_table_partitions)
        self.ddl_table = DDLInformationTable()
        self.miner = RecordMiner(
            self.journal, self.commit_table, self.ddl_table, imcs
        )
        self._owner = object()

    def mine(
        self, worker_id: WorkerId, scn_cvs: Iterable[tuple[SCN, ChangeVector]]
    ) -> None:
        for scn, cv in scn_cvs:
            assert self.miner.sniff(cv, scn, worker_id, self._owner), (
                "latch miss on the reference journal"
            )

    def advance(
        self, target_scn: SCN, block_limit: Optional[int] = None
    ) -> list[tuple[CommitTableNode, list[InvalidationGroup]]]:
        """Chop the commit table at ``target_scn``, gather each node's
        groups, retire its anchor and drop DDL entries through the
        target.  Returns ``(node, groups)`` in chop order."""
        out = []
        for node in self.commit_table.chop(target_scn):
            groups: list[InvalidationGroup] = []
            if not node.coarse and node.anchor is not None:
                groups = gather_groups(
                    node.anchor.all_records(), node.commit_scn, block_limit
                )
            self.journal.remove_with_recovery(node.xid, self._owner)
            out.append((node, groups))
        self.ddl_table.take_through(target_scn)
        return out
