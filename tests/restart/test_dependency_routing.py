"""Dependency-aware apply routing: ordering invariants + stall removal."""

from __future__ import annotations

from repro.adg.apply import ApplyDistributor, DependencyAwareDistributor
from repro.common import TransactionId
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import Deployment, InMemoryService
from repro.redo.batch import CVBatch
from repro.redo.records import (
    ChangeVector,
    CVOp,
    DDLMarkerPayload,
    InsertPayload,
    RedoRecord,
)

from tests.db.conftest import load, simple_table_def

X = TransactionId(1, 1)


def data_cv(dba, object_id=9):
    return ChangeVector(
        CVOp.INSERT, dba, object_id, 0, X, InsertPayload(0, (1,))
    )


def marker_cv(dba, object_ids):
    return ChangeVector(
        CVOp.DDL_MARKER, dba, object_ids[0], 0, X,
        DDLMarkerPayload("create_table", tuple(object_ids), "T"),
    )


def rec(scn, *cvs):
    return RedoRecord(scn, 1, tuple(cvs))


def ship(*records):
    """One shipment: the records transposed into a CVBatch."""
    return CVBatch.from_records(list(records))


def queued_scns(queue):
    return [
        int(chunk.batch.scns[i]) for chunk in queue for i in chunk.indices
    ]


def queue_lengths(d):
    return [sum(len(chunk) for chunk in queue) for queue in d.queues]


class TestRouting:
    def test_same_dba_chains_to_one_worker_in_scn_order(self):
        d = DependencyAwareDistributor(4)
        d.distribute([ship(rec(10, data_cv(5)), rec(11, data_cv(5)),
                           rec(12, data_cv(5)))])
        owners = {
            i for i, queue in enumerate(d.queues) for __ in queue
        }
        assert len(owners) == 1
        queue = d.queues[owners.pop()]
        assert queued_scns(queue) == [10, 11, 12]
        assert d.chained_cvs == 2  # first CV opened the chain unencumbered

    def test_unrelated_dbas_spread_by_load(self):
        d = DependencyAwareDistributor(4)
        records = [rec(10 + i, data_cv(100 + i)) for i in range(4)]
        d.distribute([ship(*records)])
        assert queue_lengths(d) == [1, 1, 1, 1]
        assert d.chained_cvs == 0

    def test_create_table_marker_pulls_object_cvs(self):
        """Data CVs for a just-created object follow the queued marker to
        its worker even on never-seen DBAs -- the cross-worker dictionary
        stall under hashing cannot happen."""
        d = DependencyAwareDistributor(4)
        d.distribute([ship(rec(10, marker_cv(dba=1, object_ids=[77])))])
        d.distribute([ship(rec(11, data_cv(200, object_id=77)),
                           rec(12, data_cv(300, object_id=77)))])
        owners = {
            i for i, queue in enumerate(d.queues) for __ in queue
        }
        assert len(owners) == 1

    def test_note_applied_releases_edges(self):
        d = DependencyAwareDistributor(2)
        marker = marker_cv(dba=1, object_ids=[77])
        cv = data_cv(5, object_id=77)
        d.distribute([ship(rec(10, marker), rec(11, cv))])
        d.note_applied(marker)
        d.note_applied(cv)
        assert not d._dba_owner
        assert not d._object_owner

    def test_partial_application_keeps_dba_edge(self):
        """An edge lives until the *last* in-flight CV on its block is
        applied, so late arrivals still chain behind unapplied work."""
        d = DependencyAwareDistributor(2)
        first, second = data_cv(5), data_cv(5)
        d.distribute([ship(rec(10, first), rec(11, second))])
        d.note_applied(first)
        assert 5 in d._dba_owner
        d.note_applied(second)
        assert 5 not in d._dba_owner

    def test_base_distributor_note_applied_is_a_noop(self):
        d = ApplyDistributor(2)
        d.distribute([ship(rec(10, data_cv(5)))])
        d.note_applied(data_cv(5))  # must not raise


class TestEndToEnd:
    def build(self, routing):
        config = SystemConfig(
            imcs=IMCSConfig(imcu_target_rows=64, population_workers=1),
            apply=ApplyConfig(n_workers=4, routing=routing),
        )
        deployment = Deployment.build(config=config)
        deployment.create_table(simple_table_def())
        rowids, __ = load(deployment, n=250)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()
        primary = deployment.primary
        txn = primary.begin()
        for rowid in rowids[::3]:
            primary.update(txn, "T", rowid, {"n1": 9999.0})
        primary.commit(txn)
        deployment.catch_up()
        return deployment

    def test_dependency_routing_matches_hash_routing(self):
        hash_rows = sorted(self.build("hash").standby.query("T").rows)
        dep = self.build("dependency")
        assert isinstance(dep.standby.distributor, DependencyAwareDistributor)
        dep_rows = sorted(dep.standby.query("T").rows)
        assert dep_rows == hash_rows
        assert dep.standby.distributor.chained_cvs > 0
        # all edges drained once apply caught up
        assert not dep.standby.distributor._dba_owner
