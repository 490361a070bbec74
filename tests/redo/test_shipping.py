"""Tests for log shipping over the simulated network."""

from repro.common import TransactionId
from repro.redo import (
    ChangeVector,
    CVOp,
    InsertPayload,
    LogShipper,
    RedoLog,
    RedoReceiver,
    RedoRecord,
)
from repro.sim import CpuNode, Scheduler

X = TransactionId(1, 1)


def rec(scn, thread=1):
    cv = ChangeVector(CVOp.INSERT, 5, 9, 0, X, InsertPayload(0, (1,)))
    return RedoRecord(scn, thread, (cv,))


def test_records_arrive_after_latency():
    sched = Scheduler()
    log = RedoLog(1)
    receiver = RedoReceiver()
    shipper = LogShipper(log, receiver, latency=0.1)
    sched.add_actor(shipper)
    log.append(rec(10))
    sched.run_until(0.05)
    assert receiver.pending() == 0  # still in flight
    sched.run_until(0.2)
    assert receiver.pending() == 1
    assert receiver.received_scn[1] == 10


def test_batching_preserves_order():
    sched = Scheduler()
    log = RedoLog(1)
    receiver = RedoReceiver()
    sched.add_actor(LogShipper(log, receiver, latency=0.01, batch=2))
    for scn in range(10, 20):
        log.append(rec(scn))
    sched.run_until(1.0)
    assert len(receiver.queue(1)) == 5  # one CVBatch per shipment
    scns = [s for b in receiver.queue(1) for s in b.record_scns.tolist()]
    assert scns == list(range(10, 20))


def test_two_threads_land_in_separate_queues():
    sched = Scheduler()
    log1, log2 = RedoLog(1), RedoLog(2)
    receiver = RedoReceiver()
    sched.add_actor(LogShipper(log1, receiver, latency=0.01))
    sched.add_actor(LogShipper(log2, receiver, latency=0.01))
    log1.append(rec(10, 1))
    log2.append(rec(11, 2))
    sched.run_until(1.0)
    assert [r.scn for r in receiver.queue(1)] == [10]
    assert [r.scn for r in receiver.queue(2)] == [11]


def test_shipping_charges_primary_cpu():
    sched = Scheduler()
    node = CpuNode("primary")
    log = RedoLog(1)
    receiver = RedoReceiver()
    sched.add_actor(LogShipper(log, receiver, latency=0.01, node=node))
    for scn in range(10, 110):
        log.append(rec(scn))
    sched.run_until(1.0)
    assert node.busy_seconds > 0
