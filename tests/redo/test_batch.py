"""Tests for the columnar change-vector batch layer (CVBatch/CVChunk)
and its distribution paths."""

import numpy as np

from repro.common import TransactionId
from repro.adg.apply import ApplyDistributor, DependencyAwareDistributor
from repro.redo.batch import (
    CVBatch,
    CVChunk,
    OP_CODE,
    decode_xid,
    encode_xid,
)
from repro.redo.records import (
    ChangeVector,
    CVOp,
    InsertPayload,
    RedoRecord,
    txn_table_dba,
)

from tests.reference.record_ingest import RecordDistributor

X = TransactionId(1, 1)
Y = TransactionId(2, 7)


def cv(op=CVOp.INSERT, dba=5, obj=9, xid=X, slot=0):
    payload = InsertPayload(slot, (1,)) if op is CVOp.INSERT else None
    return ChangeVector(op, dba, obj, 0, xid, payload)


def rec(scn, cvs, thread=1):
    return RedoRecord(scn, thread, tuple(cvs))


def make_batch():
    return CVBatch.from_records([
        rec(10, [cv(dba=5), cv(dba=6, xid=Y, slot=3)]),
        rec(11, [cv(op=CVOp.TXN_COMMIT, dba=txn_table_dba(1))]),
        rec(12, [cv(dba=7, slot=2)]),
    ])


class TestXidCodec:
    def test_round_trip(self):
        for xid in (X, Y, TransactionId(3, (1 << 40) - 1)):
            assert decode_xid(encode_xid(xid)) == xid

    def test_distinct_xids_distinct_codes(self):
        codes = {encode_xid(TransactionId(i, s))
                 for i in range(1, 4) for s in range(5)}
        assert len(codes) == 15


class TestCVBatch:
    def test_from_records_transposes(self):
        batch = make_batch()
        assert batch.n_records == len(batch) == 3
        assert batch.n_cvs == 4
        assert batch.scn == 10 and batch.last_scn == 12
        assert list(batch.scns) == [10, 10, 11, 12]
        assert list(batch.dbas) == [5, 6, txn_table_dba(1), 7]
        assert list(batch.ops) == [
            OP_CODE[CVOp.INSERT],
            OP_CODE[CVOp.INSERT],
            OP_CODE[CVOp.TXN_COMMIT],
            OP_CODE[CVOp.INSERT],
        ]
        assert list(batch.slots) == [0, 3, -1, 2]
        assert list(batch.xids) == [
            encode_xid(X), encode_xid(Y), encode_xid(X), encode_xid(X),
        ]

    def test_payload_side_table_preserves_identity(self):
        records = [rec(10, [cv()]), rec(11, [cv(dba=6)])]
        batch = CVBatch.from_records(records)
        assert batch.cvs[0] is records[0].cvs[0]
        assert batch.cvs[1] is records[1].cvs[0]

    def test_slice_records_is_a_view_with_rebased_starts(self):
        batch = make_batch()
        tail = batch.slice_records(1, 3)
        assert tail.n_records == 2 and tail.n_cvs == 2
        assert tail.scn == 11 and tail.last_scn == 12
        assert list(tail.record_starts) == [0, 1]
        assert tail.cvs[0] is batch.cvs[2]

    def test_split_at_scn_cuts_on_record_boundary(self):
        batch = make_batch()
        head, tail = batch.split_at_scn(11)
        assert [int(s) for s in head.record_scns] == [10, 11]
        assert [int(s) for s in tail.record_scns] == [12]
        whole, rest = batch.split_at_scn(99)
        assert whole is batch and rest is None

    def test_record_views_match_source_records(self):
        records = [
            rec(10, [cv(dba=5), cv(dba=6)]),
            rec(11, [cv(dba=7)]),
        ]
        views = list(CVBatch.from_records(records).record_views())
        assert [(v.scn, v.thread) for v in views] == [(10, 1), (11, 1)]
        assert views[0].cvs == list(records[0].cvs)
        assert views[1].cvs == list(records[1].cvs)

    def test_iter_scn_cvs(self):
        batch = make_batch()
        pairs = list(batch.iter_scn_cvs())
        assert [scn for scn, __ in pairs] == [10, 10, 11, 12]
        assert all(c is batch.cvs[i] for i, (__, c) in enumerate(pairs))


class TestDistributeBatch:
    def test_routing_matches_reference_hash(self):
        """The vectorized routing must be bit-identical to the reference
        interpreter's per-CV ``hash(cv.dba) % n`` -- including dba == -1,
        where CPython's ``hash(-1) == -2`` quirk matters."""
        dist = ApplyDistributor(n_workers=4)
        dbas = [5, -1, -2, 0, 101, -100007, -200101, txn_table_dba(3)]
        reference = RecordDistributor(n_workers=4)
        scalar = [reference.worker_for(cv(dba=d)) for d in dbas]
        vector = dist._workers_for_dbas(np.array(dbas, dtype=np.int64))
        assert list(vector) == scalar

    def test_batch_lands_as_chunks_in_scn_order(self):
        dist = ApplyDistributor(n_workers=2)
        batch = make_batch()
        dist.distribute([batch])
        assert dist.distributed_through == 12
        chunks = [q[0] for q in dist.queues if q]
        assert all(isinstance(c, CVChunk) for c in chunks)
        assert sum(c.n_cvs for c in chunks) == batch.n_cvs
        for chunk in chunks:
            scns = batch.scns[chunk.indices]
            assert list(scns) == sorted(scns)
            expected = dist._workers_for_dbas(batch.dbas[chunk.indices])
            assert len(set(expected)) == 1
        assert dist.pending() == batch.n_cvs

    def test_several_batches_queue_in_order(self):
        dist = ApplyDistributor(n_workers=2)
        first = CVBatch.from_records([rec(5, [cv(dba=5)])])
        dist.distribute([first, make_batch()])
        assert dist.pending() == 5
        queued = list(dist.queued_cvs())
        assert len(queued) == 5
        # the earlier batch's chunk sits ahead on its worker's queue
        assert dist.queues[5 % 2][0].batch is first

    def test_dependency_aware_batch_keeps_dba_affinity(self):
        dist = DependencyAwareDistributor(n_workers=3)
        batch = CVBatch.from_records([
            rec(10, [cv(dba=5), cv(dba=6)]),
            rec(11, [cv(dba=5, slot=1)]),
        ])
        dist.distribute([batch])
        follow_up = CVBatch.from_records([rec(12, [cv(dba=5, slot=2)])])
        dist.distribute([follow_up])
        homes = set()
        for w, q in enumerate(dist.queues):
            for item in q:
                if isinstance(item, CVChunk) and any(
                    int(d) == 5 for d in item.batch.dbas[item.indices]
                ):
                    homes.add(w)
        assert len(homes) == 1  # every dba-5 CV routed to its owner


class TestCVChunk:
    def make_chunk(self):
        batch = make_batch()
        return CVChunk(batch, np.arange(batch.n_cvs, dtype=np.int64))

    def test_cursors_and_head_scn(self):
        chunk = self.make_chunk()
        assert len(chunk) == chunk.n_cvs == 4
        assert chunk.head_scn == 10
        assert not chunk.fully_mined
        chunk.mined_pos = 4
        assert chunk.fully_mined
        chunk.pos = 2
        assert len(chunk) == 2 and chunk.head_scn == 11

    def test_remaining_cvs_preserves_identity(self):
        chunk = self.make_chunk()
        chunk.pos = 1
        remaining = list(chunk.remaining_cvs())
        assert remaining == chunk.batch.cvs[1:]
        assert remaining[0] is chunk.batch.cvs[1]

    def test_reset_mining_rewinds_to_apply_cursor(self):
        chunk = self.make_chunk()
        chunk.pos = 1
        chunk.mined_pos = 4
        chunk.mined_xids = {encode_xid(X)}
        chunk.pending_commits = [object()]
        chunk.stats_noted = True
        chunk.reset_mining()
        assert chunk.mined_pos == 1
        assert chunk.mined_xids is None and chunk.pending_commits is None
        assert chunk.stats_noted  # histogram must not double-count

    def test_pending_commits_block_fully_mined(self):
        chunk = self.make_chunk()
        chunk.mined_pos = 4
        chunk.pending_commits = [object()]
        assert not chunk.fully_mined
