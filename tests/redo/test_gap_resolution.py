"""Tests for archive-gap detection and FAL resolution."""

import pytest

from repro.common import TransactionId
from repro.db import Deployment, InMemoryService
from repro.imcs import Predicate
from repro.redo import (
    CVBatch,
    ChangeVector,
    CVOp,
    InsertPayload,
    LogShipper,
    RedoLog,
    RedoReceiver,
    RedoRecord,
)
from repro.sim import Scheduler

from tests.db.conftest import load, simple_table_def, small_config

X = TransactionId(1, 1)


def rec(scn, thread=1):
    cv = ChangeVector(CVOp.INSERT, 5, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, thread, (cv,))


def ship(records):
    """One shipment: the records transposed into a CVBatch."""
    return CVBatch.from_records(records)


def landed_scns(receiver, thread):
    """Record SCNs queued on one thread, in landing order."""
    return [s for b in receiver.queue(thread) for s in b.record_scns.tolist()]


class TestReceiverGapHandling:
    def test_gap_without_fal_raises(self):
        receiver = RedoReceiver()
        receiver.register_thread(1)
        receiver.deliver(ship([rec(10)]), position=0)
        with pytest.raises(RuntimeError, match="archive gap"):
            # positions 1-4 lost
            receiver.deliver(ship([rec(30)]), position=5)

    def test_gap_resolved_through_fal(self):
        log = RedoLog(1)
        for scn in range(10, 20):
            log.append(rec(scn))

        def fal(thread, lo, hi):
            return [log.record_at(i) for i in range(lo, hi)]

        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(ship([log.record_at(0)]), position=0)
        # skip positions 1..6, deliver 7..9
        receiver.deliver(
            ship([log.record_at(i) for i in range(7, 10)]), position=7
        )
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 6
        # the healed gap lands as one batch, ahead of the shipment that
        # exposed it
        assert [b.n_records for b in receiver.queue(1)] == [1, 6, 3]
        assert landed_scns(receiver, 1) == list(range(10, 20))

    def test_contiguous_delivery_no_fal_needed(self):
        receiver = RedoReceiver()  # no FAL configured
        receiver.register_thread(1)
        receiver.deliver(ship([rec(10), rec(11)]), position=0)
        receiver.deliver(ship([rec(12)]), position=2)
        assert receiver.gaps_resolved == 0

    def test_short_fal_answer_rejected(self):
        receiver = RedoReceiver(fal_fetch=lambda t, lo, hi: [])
        receiver.register_thread(1)
        receiver.deliver(ship([rec(10)]), position=0)
        with pytest.raises(RuntimeError, match="FAL returned"):
            receiver.deliver(ship([rec(30)]), position=5)


class TestReceiverGapEdges:
    def _fal_log(self, n=20):
        log = RedoLog(1)
        for scn in range(10, 10 + n):
            log.append(rec(scn))

        def fal(thread, lo, hi):
            return [log.record_at(i) for i in range(lo, hi)]

        return log, fal

    def test_gap_at_position_zero(self):
        """The very first shipment already starts beyond the watermark:
        positions [0, first) must be FAL-fetched, not silently skipped."""
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(ship([log.record_at(3)]), position=3)
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 3
        assert receiver.expected_position(1) == 4
        scns = sorted(landed_scns(receiver, 1))
        assert scns == [10, 11, 12, 13]

    def test_back_to_back_gaps_same_thread(self):
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(ship([log.record_at(0)]), position=0)
        receiver.deliver(ship([log.record_at(5)]), position=5)   # gap [1, 5)
        receiver.deliver(ship([log.record_at(9)]), position=9)   # gap [6, 9)
        assert receiver.gaps_resolved == 2
        assert receiver.gap_records_fetched == 7
        assert receiver.expected_position(1) == 10
        scns = sorted(landed_scns(receiver, 1))
        assert scns == list(range(10, 20))

    def test_short_nonempty_fal_answer_rejected(self):
        """A FAL source that returns *some* records but not the whole gap
        is as unusable as an empty one."""
        log, fal = self._fal_log()
        short = lambda thread, lo, hi: fal(thread, lo, hi)[:-1]
        receiver = RedoReceiver(fal_fetch=short)
        receiver.register_thread(1)
        receiver.deliver(ship([log.record_at(0)]), position=0)
        with pytest.raises(RuntimeError, match="FAL returned 3"):
            receiver.deliver(ship([log.record_at(5)]), position=5)

    def test_empty_tracked_shipment_advances_gap_tracking(self):
        """A zero-record shipment whose position is beyond the watermark
        still proves redo was lost in between -- it must FAL-heal and
        advance the watermark, not fall through untracked."""
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(ship([]), position=4, thread=1)
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 4
        assert receiver.expected_position(1) == 4
        assert receiver.records_landed[1] == 4

    def test_empty_tracked_shipment_requires_thread(self):
        receiver = RedoReceiver()
        receiver.register_thread(1)
        with pytest.raises(ValueError, match="explicit thread"):
            receiver.deliver(ship([]), position=4)

    def test_fal_answer_from_unregistered_thread_lands(self):
        """Regression: a FAL source may answer with redo from a thread
        this receiver has not registered yet (a late-added primary
        instance whose own first shipment is still in flight).  Those
        records must land in a fresh queue, not KeyError the heal."""

        def fal(thread, lo, hi):
            # the archived range interleaves thread-2 redo
            return [rec(100 + i, thread=2) for i in range(lo, hi)]

        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(ship([rec(10)]), position=0)
        receiver.deliver(ship([rec(30)]), position=5)  # gap [1, 5)
        assert receiver.gaps_resolved == 1
        assert receiver.gap_records_fetched == 4
        assert 2 in receiver.threads
        assert landed_scns(receiver, 2) == [101, 102, 103, 104]
        assert receiver.received_scn[2] == 104
        # gap accounting still charges the thread whose gap triggered it
        assert receiver.records_landed[1] == 1 + 4 + 1
        assert receiver.expected_position(1) == 6

    def test_fal_answer_spanning_threads_lands_one_batch_per_thread(self):
        """A FAL answer interleaving two threads' redo lands as one
        CVBatch per thread, each keeping its thread's fetch order."""
        answer = [rec(20, 1), rec(21, 2), rec(22, 1), rec(23, 2), rec(24, 1)]

        receiver = RedoReceiver(fal_fetch=lambda thread, lo, hi: answer)
        receiver.register_thread(1)
        receiver.register_thread(2)
        receiver.deliver(ship([rec(30, 1)]), position=5)  # gap [0, 5)
        assert receiver.gaps_resolved == 1
        healed_1, shipped_1 = receiver.queue(1)
        (healed_2,) = receiver.queue(2)
        assert healed_1.thread == 1 and healed_2.thread == 2
        assert healed_1.record_scns.tolist() == [20, 22, 24]
        assert healed_2.record_scns.tolist() == [21, 23]
        assert shipped_1.record_scns.tolist() == [30]
        assert receiver.received_scn == {1: 30, 2: 23}
        assert receiver.expected_position(1) == 6
        assert receiver.records_landed == {1: 6, 2: 0}

    def test_duplicate_redelivery_discarded(self):
        """Redelivering an already-landed batch (duplicated or reordered
        shipment) must not apply redo twice."""
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        batch = ship([log.record_at(i) for i in range(3)])
        receiver.deliver(batch, position=0)
        receiver.deliver(batch, position=0)  # exact duplicate
        assert receiver.duplicates_discarded == 3
        assert landed_scns(receiver, 1) == [10, 11, 12]
        assert receiver.expected_position(1) == 3

    def test_partially_overlapping_redelivery_keeps_the_new_suffix(self):
        log, fal = self._fal_log()
        receiver = RedoReceiver(fal_fetch=fal)
        receiver.register_thread(1)
        receiver.deliver(
            ship([log.record_at(i) for i in range(3)]), position=0
        )
        # positions 1..4: 1 and 2 already landed, 3 and 4 are new
        receiver.deliver(
            ship([log.record_at(i) for i in range(1, 5)]), position=1
        )
        assert receiver.duplicates_discarded == 2
        assert receiver.expected_position(1) == 5
        scns = sorted(landed_scns(receiver, 1))
        assert scns == list(range(10, 15))


class TestEndToEndGap:
    def test_dropped_shipments_heal_and_standby_stays_consistent(self):
        """Fault injection: lose records in transit mid-workload; the
        receiver FAL-fetches the gap and the standby converges exactly."""
        deployment = Deployment.build(config=small_config())
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()

        shipper = next(
            a for a in deployment.sched.actors if isinstance(a, LogShipper)
        )
        txn = deployment.primary.begin()
        for rowid in rowids[:20]:
            deployment.primary.update(txn, "T", rowid, {"n1": -6.0})
        deployment.primary.commit(txn)
        shipper.drop_next(10)  # lose 10 records in transit
        deployment.catch_up()
        assert deployment.standby.receiver.gaps_resolved >= 1
        result = deployment.standby.query("T", [Predicate.eq("n1", -6.0)])
        assert len(result.rows) == 20

        snapshot = deployment.standby.query_scn.value
        table = deployment.primary.catalog.table("T")
        expected = sorted(
            values for __, values in table.full_scan(
                snapshot, deployment.primary.txn_table
            )
        )
        assert sorted(deployment.standby.query("T").rows) == expected
