"""Tests for the log merger's SCN ordering and watermark discipline."""

from repro.adg import LogMerger
from repro.common import TransactionId
from repro.redo import (
    CVBatch,
    ChangeVector,
    CVOp,
    InsertPayload,
    RedoReceiver,
    RedoRecord,
)

X = TransactionId(1, 1)


def rec(scn, thread=1, dba=5):
    cv = ChangeVector(CVOp.INSERT, dba, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, thread, (cv,))


def ship(*records):
    return CVBatch.from_records(list(records))


def merged_scns(batches):
    return [s for b in batches for s in b.record_scns.tolist()]


def make(threads=(1,)):
    receiver = RedoReceiver()
    for t in threads:
        receiver.register_thread(t)
    return receiver, LogMerger(receiver)


def test_single_thread_merges_everything():
    receiver, merger = make()
    receiver.deliver(ship(rec(10), rec(11), rec(12)))
    assert merger.merge_available() == 3
    assert merged_scns(merger.take_merged(10)) == [10, 11, 12]
    assert merger.merged_through_scn == 12


def test_watermark_holds_back_fast_thread():
    """Records above the slowest thread's delivered SCN must wait."""
    receiver, merger = make(threads=(1, 2))
    receiver.deliver(ship(rec(10, 1), rec(20, 1)))
    # thread 2 has delivered nothing: nothing can be released
    assert merger.merge_available() == 0
    receiver.deliver(ship(rec(15, 2)))
    # watermark = min(20, 15) = 15 -> scn 10 and 15 release, 20 waits
    assert merger.merge_available() == 2
    assert merged_scns(merger.take_merged(10)) == [10, 15]
    receiver.deliver(ship(rec(25, 2)))
    assert merger.merge_available() == 1
    assert merged_scns(merger.take_merged(10)) == [20]


def test_interleaved_threads_come_out_scn_sorted():
    receiver, merger = make(threads=(1, 2))
    receiver.deliver(ship(rec(10, 1), rec(30, 1), rec(50, 1)))
    receiver.deliver(ship(rec(20, 2), rec(40, 2), rec(60, 2)))
    merger.merge_available()
    scns = merged_scns(merger.take_merged(100))
    assert scns == [10, 20, 30, 40, 50]  # 60 held back by thread 1 at 50


def test_take_merged_respects_batch():
    receiver, merger = make()
    for scn in range(10, 20):
        receiver.deliver(ship(rec(scn)))
    merger.merge_available()
    assert len(merger.take_merged(3)) == 3
    assert merger.pending_merged == 7


def test_take_merged_hands_out_whole_runs():
    """A merged run is never split for the distributor: the record
    budget is checked between runs."""
    receiver, merger = make()
    receiver.deliver(ship(*(rec(s) for s in range(10, 20))))
    assert merger.merge_available() == 10
    (run,) = merger.take_merged(3)
    assert run.n_records == 10
    assert merger.pending_merged == 0


def test_step_as_actor_charges_cost():
    from repro.sim import Scheduler

    receiver, merger = make()
    sched = Scheduler()
    sched.add_actor(merger)
    receiver.deliver(ship(rec(10)))
    sched.run_until(0.1)
    assert merger.pending_merged == 1
