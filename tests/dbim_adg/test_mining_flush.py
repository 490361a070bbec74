"""Tests for the Mining Component and Invalidation Flush Component."""

import itertools

import numpy as np
import pytest

from repro.common import TransactionId
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    InvalidationFlushComponent,
    MiningComponent,
)
from repro.imcs import IMCU, InMemoryColumnStore
from repro.redo import (
    CVBatch,
    CVChunk,
    ChangeVector,
    CVOp,
    CommitPayload,
    DDLMarkerPayload,
    InsertPayload,
    RedoRecord,
    UpdatePayload,
    ddl_marker_dba,
    txn_table_dba,
)
from repro.rowstore import BlockStore, Column, ColumnType, Schema, Table


def make_table():
    schema = Schema(
        [
            Column("id", ColumnType.NUMBER, nullable=False),
            Column("n1", ColumnType.NUMBER),
        ]
    )
    oid = itertools.count(700)
    return Table(
        "T", schema, BlockStore(),
        object_id_allocator=lambda: next(oid), rows_per_block=8,
    )


class FakeTxnView:
    def __init__(self):
        self._c = {}

    def commit(self, xid, scn):
        self._c[xid] = scn

    def commit_scn_of(self, xid):
        return self._c.get(xid)


def make_stack(table=None):
    journal = IMADGJournal(16)
    commit_table = IMADGCommitTable(4)
    ddl_table = DDLInformationTable()
    store = InMemoryColumnStore()
    if table is not None:
        store.enable(table)
    miner = MiningComponent(journal, commit_table, ddl_table, store)
    flush = InvalidationFlushComponent(journal, commit_table, ddl_table, store)
    return journal, commit_table, ddl_table, store, miner, flush


def populate(table, store, txns, n=16, clock_scn=1000):
    xid = TransactionId(1, 999)
    rowids = []
    for i in range(n):
        __, rowid = table.insert_row((i, float(i)), xid, 100 + i)
        rowids.append(rowid)
    txns.commit(xid, 200)
    segment = table.default_partition.segment
    imcu = IMCU.build(
        segment, table.schema, table.tenant, segment.dbas, clock_scn, txns
    )
    store.register_unit(imcu)
    return rowids


X1 = TransactionId(1, 1)


def sniff(miner, cv, scn, worker_id=0, owner=None):
    """Mine one CV the way a recovery worker does: as a one-CV chunk."""
    batch = CVBatch.from_records([RedoRecord(scn, 1, (cv,))])
    chunk = CVChunk(batch, np.arange(1, dtype=np.int64))
    return miner.sniff_chunk(chunk, worker_id, owner or object())


def begin_cv(xid=X1):
    return ChangeVector(CVOp.TXN_BEGIN, txn_table_dba(1), 0, 0, xid)


def commit_cv(scn, xid=X1, flag=True):
    return ChangeVector(
        CVOp.TXN_COMMIT, txn_table_dba(1), 0, 0, xid,
        CommitPayload(scn, flag),
    )


def update_cv(object_id, dba, slot, xid=X1):
    return ChangeVector(
        CVOp.UPDATE, dba, object_id, 0, xid,
        UpdatePayload(slot, (0, -1.0), ("n1",)),
    )


class TestMining:
    def test_begin_creates_anchor_with_flag(self):
        journal, *_rest, miner, __ = make_stack()
        assert sniff(miner, begin_cv(), 10, 0, object())
        acquired, anchor = journal.get(X1, object())
        assert anchor is not None and anchor.has_begin

    def test_data_cv_on_enabled_object_mined(self):
        table = make_table()
        journal, ct, dt, store, miner, flush = make_stack(table)
        oid = table.default_partition.object_id
        sniff(miner, begin_cv(), 10, 0, object())
        assert sniff(miner, update_cv(oid, dba=1, slot=2), 11, worker_id=3)
        __, anchor = journal.get(X1, object())
        (chunk,) = anchor.chunks()
        assert chunk.dbas.tolist() == [1] and chunk.slots.tolist() == [2]
        assert chunk.scns.tolist() == [11]
        assert 3 in anchor.worker_chunks

    def test_data_cv_on_disabled_object_ignored(self):
        journal, *__rest, miner, __ = make_stack()  # nothing enabled
        sniff(miner, begin_cv(), 10, 0, object())
        sniff(miner, update_cv(4242, dba=1, slot=2), 11, 0, object())
        __, anchor = journal.get(X1, object())
        assert anchor.n_records == 0
        assert miner.data_records_mined == 0

    def test_commit_creates_commit_table_node(self):
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        sniff(miner, begin_cv(), 10, 0, object())
        assert sniff(miner, commit_cv(50), 50, 0, object())
        chopped = ct.chop(50)
        assert len(chopped) == 1
        assert chopped[0].commit_scn == 50
        assert not chopped[0].coarse
        assert chopped[0].anchor is not None

    def test_commit_without_begin_and_flag_true_is_coarse(self):
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        assert sniff(miner, commit_cv(50, flag=True), 50, 0, object())
        chopped = ct.chop(50)
        assert chopped[0].coarse
        assert miner.coarse_nodes_created == 1

    def test_commit_without_begin_and_flag_false_is_skipped(self):
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        assert sniff(miner, commit_cv(50, flag=False), 50, 0, object())
        assert ct.chop(50) == []
        assert miner.coarse_nodes_created == 0

    def test_commit_without_begin_and_no_flag_pessimistic_coarse(self):
        """Specialized redo generation disabled (flag None): assume the
        worst (paper, III-E)."""
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        assert sniff(miner, commit_cv(50, flag=None), 50, 0, object())
        assert ct.chop(50)[0].coarse

    def test_abort_discards_journal_entries(self):
        table = make_table()
        journal, *__rest, miner, __ = make_stack(table)
        oid = table.default_partition.object_id
        sniff(miner, begin_cv(), 10, 0, object())
        sniff(miner, update_cv(oid, 1, 2), 11, 0, object())
        abort = ChangeVector(CVOp.TXN_ABORT, txn_table_dba(1), 0, 0, X1)
        assert sniff(miner, abort, 12, 0, object())
        assert journal.anchor_count == 0

    def test_undo_cvs_not_mined(self):
        table = make_table()
        journal, *__rest, miner, __ = make_stack(table)
        from repro.redo import UndoPayload

        oid = table.default_partition.object_id
        sniff(miner, begin_cv(), 10, 0, object())
        undo = ChangeVector(CVOp.UNDO, 1, oid, 0, X1, UndoPayload(2))
        assert sniff(miner, undo, 11, 0, object())
        __, anchor = journal.get(X1, object())
        assert anchor.n_records == 0

    def test_ddl_marker_buffered(self):
        table = make_table()
        journal, ct, ddl_table, *__rest, miner, flush = make_stack(table)
        payload = DDLMarkerPayload("drop_column", (1,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(1), 1, 0, X1, payload)
        assert sniff(miner, cv, 30, 0, object())
        assert len(ddl_table) == 1

    def test_latch_miss_propagates_false(self):
        table = make_table()
        journal, *__rest, miner, __ = make_stack(table)
        blocker = object()
        bucket = journal._bucket_index(X1)
        journal.latches.latch_for(bucket).try_acquire(blocker)
        assert not sniff(miner, begin_cv(), 10, 0, object())
        assert miner.latch_misses == 1

    def test_tail_mode_skips_missing_begin_commit(self):
        """Instant-restart tail replay: a commit whose begin lies below
        the replay floor is skipped, not coarse-invalidated."""
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        miner.tail_mode = True
        assert sniff(miner, commit_cv(50, flag=True), 50)
        assert ct.chop(50) == []
        assert miner.tail_commits_skipped == 1
        assert miner.coarse_nodes_created == 0

    def test_tail_mode_keeps_commits_with_begin(self):
        table = make_table()
        journal, ct, *__rest, miner, flush = make_stack(table)
        miner.tail_mode = True
        sniff(miner, begin_cv(), 10)
        assert sniff(miner, commit_cv(50), 50)
        (node,) = ct.chop(50)
        assert not node.coarse and node.anchor is not None
        assert miner.tail_commits_skipped == 0

    def test_latch_miss_mid_chunk_resumes_without_remining(self):
        """A latch miss part-way through a chunk keeps the progress made;
        the retry mines only the rest."""
        table = make_table()
        journal, *__rest, miner, __ = make_stack(table)
        oid = table.default_partition.object_id
        x2 = next(
            TransactionId(1, n) for n in range(2, 100)
            if journal._bucket_index(TransactionId(1, n))
            != journal._bucket_index(X1)
        )
        batch = CVBatch.from_records([
            RedoRecord(10, 1, (begin_cv(),)),
            RedoRecord(11, 1, (update_cv(oid, dba=1, slot=2),)),
            RedoRecord(12, 1, (begin_cv(x2),)),
            RedoRecord(13, 1, (update_cv(oid, dba=2, slot=0, xid=x2),)),
        ])
        chunk = CVChunk(batch, np.arange(4, dtype=np.int64))
        latch = journal.latches.latch_for(journal._bucket_index(x2))
        blocker = object()
        assert latch.try_acquire(blocker)
        assert not miner.sniff_chunk(chunk, 0, object())
        assert chunk.mined_pos == 2 and not chunk.fully_mined
        assert miner.latch_misses == 1
        latch.release(blocker)
        assert miner.sniff_chunk(chunk, 0, object())
        assert chunk.fully_mined
        assert journal.record_count == 2
        assert miner.data_records_mined == 2


class TestFlush:
    def test_flush_invalidates_committed_rows(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id

        sniff(miner, begin_cv(), 300, 0, object())
        target = rowids[3]
        sniff(miner, update_cv(oid, target.dba, target.slot), 301, 0, object())
        sniff(miner, commit_cv(310), 310, 0, object())

        flush.begin_advance(320)
        while not flush.is_advance_complete():
            flush.coordinator_flush(8)
        flush.finish_advance(320)

        smu = store.unit_covering(oid, target.dba)
        assert smu.invalid_count == 1
        assert not smu.valid_row_mask()[3]
        assert journal.anchor_count == 0  # anchor released after flush

    def test_uncommitted_transaction_not_flushed(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff(miner, begin_cv(), 300, 0, object())
        sniff(miner, update_cv(oid, rowids[0].dba, rowids[0].slot), 301, 0,
                    object())
        # no commit mined
        flush.begin_advance(400)
        assert flush.is_advance_complete()
        smu = store.unit_covering(oid, rowids[0].dba)
        assert smu.invalid_count == 0
        assert journal.anchor_count == 1  # anchor retained

    def test_commit_beyond_target_not_flushed(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff(miner, begin_cv(), 300, 0, object())
        sniff(miner, update_cv(oid, rowids[0].dba, rowids[0].slot), 301, 0,
                    object())
        sniff(miner, commit_cv(500), 500, 0, object())
        flush.begin_advance(400)  # target below commitSCN
        assert flush.is_advance_complete()
        smu = store.unit_covering(oid, rowids[0].dba)
        assert smu.invalid_count == 0
        assert len(ct) == 1  # node still waiting

    def test_coarse_node_invalidates_tenant(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff(miner, commit_cv(310, flag=True), 310, 0, object())  # no begin
        flush.begin_advance(320)
        while not flush.is_advance_complete():
            flush.coordinator_flush(8)
        assert flush.coarse_flushes == 1
        assert all(s.fully_invalid for s in store.segment(oid).live_units())

    def test_groups_merge_slots_per_block(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff(miner, begin_cv(), 300, 0, object())
        # two updates to the same block from different workers
        sniff(miner, update_cv(oid, rowids[0].dba, rowids[0].slot), 301, 0,
                    object())
        sniff(miner, update_cv(oid, rowids[1].dba, rowids[1].slot), 302, 1,
                    object())
        sniff(miner, commit_cv(310), 310, 0, object())
        flush.begin_advance(320)
        flush.coordinator_flush(8)
        assert flush.groups_created == 1  # one object, few blocks

    def test_worker_flush_respects_cooperative_switch(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        rowids = populate(table, store, txns)
        oid = table.default_partition.object_id
        sniff(miner, begin_cv(), 300, 0, object())
        sniff(miner, update_cv(oid, rowids[0].dba, rowids[0].slot), 301, 0,
                    object())
        sniff(miner, commit_cv(310), 310, 0, object())
        flush.cooperative = False
        flush.begin_advance(320)
        assert flush.worker_flush(0, 8) == 0  # ablation: workers opt out
        flush.cooperative = True
        assert flush.worker_flush(0, 8) == 1
        assert flush.nodes_flushed_by_workers == 1

    def test_ddl_processing_drops_units_and_applies_schema(self):
        table = make_table()
        txns = FakeTxnView()
        applied = []
        journal, ct, dt, store, miner, __ = make_stack(table)
        flush = InvalidationFlushComponent(
            journal, ct, dt, store, ddl_applier=applied.append
        )
        populate(table, store, txns)
        oid = table.default_partition.object_id
        payload = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0, X1,
                          payload)
        sniff(miner, cv, 350, 0, object())
        flush.begin_advance(360)
        assert store.segment(oid).live_units() == []
        assert applied == [payload]
        assert flush.ddl_processed == 1

    def test_ddl_beyond_target_deferred(self):
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        populate(table, store, txns)
        oid = table.default_partition.object_id
        payload = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0, X1,
                          payload)
        sniff(miner, cv, 500, 0, object())
        flush.begin_advance(360)
        assert store.segment(oid).live_units()  # still there
        assert len(dt) == 1

    def test_ddl_drop_happens_pre_publication_not_in_finish_advance(self):
        """Paper III-D ordering: DDL-affected IMCUs are dropped in
        ``begin_advance`` -- *before* the coordinator can publish the new
        QuerySCN -- and ``finish_advance`` is pure post-publication
        bookkeeping that performs no DDL work (this pins the protocol
        docstrings' corrected step ordering)."""
        table = make_table()
        txns = FakeTxnView()
        journal, ct, dt, store, miner, flush = make_stack(table)
        populate(table, store, txns)
        oid = table.default_partition.object_id
        payload = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n1"})
        cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0, X1,
                          payload)
        sniff(miner, cv, 350, 0, object())
        flush.begin_advance(360)
        # dropped at begin_advance time: a reader at the published SCN can
        # never see a stale unit for the DDL-affected object
        assert store.segment(oid).live_units() == []
        assert flush.ddl_processed == 1
        # a second, deferred DDL past the target stays pending across
        # finish_advance -- finishing must not process it early
        late = DDLMarkerPayload("drop_column", (oid,), "T", {"column": "n2"})
        late_cv = ChangeVector(CVOp.DDL_MARKER, ddl_marker_dba(oid), oid, 0,
                               X1, late)
        sniff(miner, late_cv, 500, 0, object())
        while not flush.is_advance_complete():
            flush.coordinator_flush(8)
        flush.finish_advance(360)
        assert flush.worklink is None  # drained worklink retired
        assert flush.ddl_processed == 1  # no DDL ran in finish_advance
        assert len(dt) == 1  # the late marker is still buffered
