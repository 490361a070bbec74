"""Tests for recovery-worker stall handling and single-sniff guarantees."""

from repro.adg import ApplyDistributor, ApplyStall, RecoveryWorker
from repro.common import TransactionId
from repro.redo import CVBatch, ChangeVector, CVOp, InsertPayload, RedoRecord
from repro.sim import Scheduler

X = TransactionId(1, 1)


def ship(*scns, dba=1):
    """One shipment of single-CV records at ``scns``."""
    cv = ChangeVector(CVOp.INSERT, dba, 9, 0, X, InsertPayload(0, (1,)))
    return CVBatch.from_records([RedoRecord(scn, 1, (cv,)) for scn in scns])


class StallingApplier:
    """Fails the first ``stalls`` apply attempts of each CV."""

    def __init__(self, stalls=3):
        self.stalls = stalls
        self.attempts = 0
        self.applied = []

    def apply_cv(self, cv, scn):
        self.attempts += 1
        if self.attempts <= self.stalls:
            raise ApplyStall("dependency not ready")
        self.applied.append(scn)


def test_stalled_cv_retries_until_applied():
    distributor = ApplyDistributor(1)
    applier = StallingApplier(stalls=3)
    worker = RecoveryWorker(0, distributor, applier)
    distributor.distribute([ship(10, 11)])
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.1)
    assert applier.applied == [10, 11]
    assert worker.apply_stalls == 3


def test_stalled_cv_is_sniffed_exactly_once():
    """The mining hook must not double-count a CV whose apply stalls."""
    distributor = ApplyDistributor(1)
    applier = StallingApplier(stalls=4)
    sniffed = []

    def sniff_chunk(chunk, worker_id, owner):
        for i in chunk.indices[chunk.mined_pos:]:
            sniffed.append(int(chunk.batch.scns[i]))
        chunk.mined_pos = len(chunk.indices)
        return True

    worker = RecoveryWorker(0, distributor, applier, batch_sniffer=sniff_chunk)
    distributor.distribute([ship(10)])
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.1)
    assert applier.applied == [10]
    assert sniffed == [10]  # exactly once, despite 4 stalls


def test_stall_blocks_consistency_progress():
    distributor = ApplyDistributor(1)
    applier = StallingApplier(stalls=10**9)  # never succeeds
    worker = RecoveryWorker(0, distributor, applier)
    distributor.distribute([ship(10)])
    sched = Scheduler()
    sched.add_actor(worker)
    sched.run_until(0.05)
    assert worker.applied_through() == 9  # stuck just below the stalled CV
