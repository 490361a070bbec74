"""Tests for the IM-ADG Journal and Commit Table structures."""

import pytest

from repro.common import TransactionId
from repro.dbim_adg import (
    CommitTableNode,
    IMADGCommitTable,
    IMADGJournal,
)

from tests.dbim_adg.helpers import add_records


def xid(n):
    return TransactionId(1, n)


def record(obj=9, dba=5, slot=0, scn=10):
    return (obj, dba, slot, scn)


class TestJournal:
    def test_get_or_create_then_get(self):
        journal = IMADGJournal(8)
        owner = object()
        anchor = journal.get_or_create(xid(1), 0, owner)
        assert anchor is not None
        acquired, again = journal.get(xid(1), owner)
        assert acquired and again is anchor
        assert journal.anchor_count == 1

    def test_per_worker_areas_accumulate_without_latch(self):
        journal = IMADGJournal(8)
        anchor = journal.get_or_create(xid(1), 0, object())
        add_records(anchor, 0, [record(scn=10)])
        add_records(anchor, 1, [record(scn=11)])
        add_records(anchor, 0, [record(scn=12)])
        assert anchor.n_records == 3
        assert len(anchor.worker_chunks) == 2
        assert len(anchor.worker_chunks[0]) == 2
        assert {
            int(s) for chunk in anchor.chunks() for s in chunk.scns
        } == {10, 11, 12}

    def test_latch_miss_returns_none(self):
        journal = IMADGJournal(1)  # single bucket: guaranteed collision
        blocker = object()
        latch = journal.latches.latch_for(0)
        assert latch.try_acquire(blocker)
        assert journal.get_or_create(xid(1), 0, object()) is None
        assert journal.remove(xid(1), object()) is None
        acquired, __ = journal.get(xid(1), object())
        assert not acquired
        latch.release(blocker)
        assert journal.get_or_create(xid(1), 0, object()) is not None

    def test_remove(self):
        journal = IMADGJournal(8)
        owner = object()
        journal.get_or_create(xid(1), 0, owner)
        assert journal.remove(xid(1), owner) is True
        assert journal.remove(xid(1), owner) is False
        assert journal.anchor_count == 0

    def test_clear_drops_everything(self):
        journal = IMADGJournal(8)
        owner = object()
        for i in range(10):
            anchor = journal.get_or_create(xid(i), 0, owner)
            add_records(anchor, 0, [record()])
        journal.clear()
        assert journal.anchor_count == 0
        assert journal.record_count == 0

    def test_distinct_buckets_no_contention(self):
        journal = IMADGJournal(64)
        owner = object()
        for i in range(32):
            journal.get_or_create(xid(i), 0, owner)
        assert journal.latches.total_misses == 0


class TestCommitTable:
    def node(self, n, scn, coarse=False):
        return CommitTableNode(
            xid=xid(n), commit_scn=scn, anchor=None, tenant=0, coarse=coarse
        )

    def test_insert_sorted_within_partition(self):
        table = IMADGCommitTable(n_partitions=1)
        owner = object()
        for scn in (30, 10, 20):
            assert table.insert(self.node(scn, scn), owner)
        chopped = table.chop(100)
        assert [n.commit_scn for n in chopped] == [10, 20, 30]

    def test_chop_respects_boundary(self):
        table = IMADGCommitTable(n_partitions=4)
        owner = object()
        for scn in range(10, 20):
            table.insert(self.node(scn, scn), owner)
        chopped = table.chop(14)
        assert sorted(n.commit_scn for n in chopped) == [10, 11, 12, 13, 14]
        assert len(table) == 5
        assert table.min_pending_scn == 15

    def test_chop_merges_partitions_in_scn_order(self):
        table = IMADGCommitTable(n_partitions=4)
        owner = object()
        for scn in (55, 12, 78, 31, 44, 9):
            table.insert(self.node(scn, scn), owner)
        chopped = table.chop(1000)
        scns = [n.commit_scn for n in chopped]
        assert scns == sorted(scns)

    def test_partition_latch_miss(self):
        table = IMADGCommitTable(n_partitions=1)
        blocker = object()
        assert table.latches.latch_for(0).try_acquire(blocker)
        assert not table.insert(self.node(1, 10), object())
        table.latches.latch_for(0).release(blocker)
        assert table.insert(self.node(1, 10), object())

    def test_empty_chop(self):
        table = IMADGCommitTable()
        assert table.chop(100) == []
        assert table.min_pending_scn is None

    def test_partitioning_reduces_contention_vs_single_list(self):
        """Ablation rationale: with one partition every insert contends on
        one latch; with many, concurrent owners mostly hit different
        latches.  We emulate 'concurrency' by holding one latch while
        inserting from another owner."""
        single = IMADGCommitTable(n_partitions=1)
        many = IMADGCommitTable(n_partitions=16)
        holder = object()
        single.latches.latch_for(0).try_acquire(holder)
        many.latches.latch_for(0).try_acquire(holder)
        single_misses = many_misses = 0
        for i in range(64):
            if not single.insert(self.node(i, i), object()):
                single_misses += 1
            if not many.insert(self.node(i, i), object()):
                many_misses += 1
        assert single_misses == 64
        assert many_misses < 16


class TestInsertBatch:
    def node(self, n, scn):
        return CommitTableNode(
            xid=xid(n), commit_scn=scn, anchor=None, tenant=0
        )

    def test_tail_extend_fast_path(self):
        table = IMADGCommitTable(n_partitions=1)
        owner = object()
        table.insert(self.node(0, 5), owner)
        leftover = table.insert_batch(
            [self.node(1, 20), self.node(2, 10)], owner
        )
        assert leftover == []
        assert [n.commit_scn for n in table.chop(100)] == [5, 10, 20]

    def test_merge_matches_bisect_right_on_ties(self):
        """Batch insertion with tied commitSCNs must order existing
        nodes before new ones -- exactly what repeated bisect_right
        single inserts produce."""
        batched = IMADGCommitTable(n_partitions=1)
        serial = IMADGCommitTable(n_partitions=1)
        owner = object()
        first = [(1, 10), (2, 20), (3, 20)]
        second = [(4, 20), (5, 5), (6, 20)]
        for n, scn in first:
            batched.insert(self.node(n, scn), owner)
            serial.insert(self.node(n, scn), owner)
        assert batched.insert_batch(
            [self.node(n, scn) for n, scn in second], owner
        ) == []
        for n, scn in second:
            serial.insert(self.node(n, scn), owner)
        assert [(n.xid, n.commit_scn) for n in batched.chop(100)] == [
            (n.xid, n.commit_scn) for n in serial.chop(100)
        ]

    def test_latch_miss_returns_leftover(self):
        table = IMADGCommitTable(n_partitions=1)
        blocker = object()
        assert table.latches.latch_for(0).try_acquire(blocker)
        nodes = [self.node(1, 10), self.node(2, 20)]
        assert table.insert_batch(nodes, object()) == nodes
        assert len(table) == 0
        table.latches.latch_for(0).release(blocker)
        assert table.insert_batch(nodes, object()) == []
        assert len(table) == 2


class TestChopStableOrder:
    """Regression: the heapq.merge chop must preserve the ordering the
    old collect-then-stable-sort implementation gave -- commitSCN ties
    resolve by partition index, then by insertion order."""

    def test_ties_resolve_partition_then_insertion_order(self):
        table = IMADGCommitTable(n_partitions=4)
        owner = object()
        nodes = []
        for i in range(40):
            node = CommitTableNode(
                xid=xid(i), commit_scn=10 + (i % 3) * 5,
                anchor=None, tenant=0,
            )
            nodes.append(node)
            assert table.insert(node, owner)
        # the old implementation: concatenate partitions in index order,
        # then one stable sort by commitSCN
        expected = []
        for index in range(table.n_partitions):
            expected.extend(
                n for n in nodes
                if hash(n.xid) % table.n_partitions == index
            )
        expected.sort(key=lambda n: n.commit_scn)  # stable
        chopped = table.chop(1000)
        assert [(n.xid, n.commit_scn) for n in chopped] == [
            (n.xid, n.commit_scn) for n in expected
        ]

    def test_partial_chop_keeps_remainder_sorted(self):
        table = IMADGCommitTable(n_partitions=3)
        owner = object()
        for i, scn in enumerate((9, 44, 12, 44, 31, 78, 44, 9)):
            table.insert(
                CommitTableNode(
                    xid=xid(i), commit_scn=scn, anchor=None, tenant=0
                ),
                owner,
            )
        first = table.chop(44)
        scns = [n.commit_scn for n in first]
        assert scns == sorted(scns) and max(scns) <= 44
        rest = table.chop(1000)
        assert [n.commit_scn for n in rest] == [78]


class TestFloorHeap:
    """min_first_scn is served from a lazy-deletion min-heap; it must
    stay exact across removes, latch-recovery removes, and anchor
    re-creation."""

    def seed(self, journal, floors):
        owner = object()
        for i, scn in floors.items():
            anchor = journal.get_or_create(xid(i), 0, owner)
            anchor.note_scn(scn)
        return owner

    def test_tracks_minimum(self):
        journal = IMADGJournal(8)
        self.seed(journal, {1: 30, 2: 10, 3: 20})
        assert journal.min_first_scn() == 10

    def test_empty_journal_is_zero(self):
        assert IMADGJournal(8).min_first_scn() == 0

    def test_survives_remove(self):
        journal = IMADGJournal(8)
        owner = self.seed(journal, {1: 30, 2: 10, 3: 20})
        assert journal.remove(xid(2), owner) is True
        assert journal.min_first_scn() == 20
        assert journal.remove(xid(3), owner) is True
        assert journal.min_first_scn() == 30
        assert journal.remove(xid(1), owner) is True
        assert journal.min_first_scn() == 0

    def test_survives_remove_with_recovery(self):
        journal = IMADGJournal(1)  # one bucket: recovery breaks its latch
        owner = self.seed(journal, {1: 30, 2: 10})
        blocker = object()
        assert journal.latches.latch_for(0).try_acquire(blocker)
        assert journal.remove_with_recovery(xid(2), owner) is True
        assert journal.min_first_scn() == 30

    def test_floor_decrease_reflected(self):
        journal = IMADGJournal(8)
        owner = self.seed(journal, {1: 30})
        assert journal.min_first_scn() == 30
        anchor = journal.get_or_create(xid(1), 0, owner)
        anchor.note_scn(7)
        assert journal.min_first_scn() == 7
        anchor.note_scn(50)  # first_scn never increases
        assert journal.min_first_scn() == 7

    def test_recreated_anchor_gets_fresh_floor(self):
        journal = IMADGJournal(8)
        owner = self.seed(journal, {1: 10, 2: 40})
        assert journal.remove(xid(1), owner) is True
        anchor = journal.get_or_create(xid(1), 0, owner)
        anchor.note_scn(25)
        assert journal.min_first_scn() == 25

    def test_clear_resets_heap(self):
        journal = IMADGJournal(8)
        self.seed(journal, {1: 10})
        journal.clear()
        assert journal.min_first_scn() == 0
        anchor = journal.get_or_create(xid(9), 0, object())
        anchor.note_scn(99)
        assert journal.min_first_scn() == 99

    def test_batch_adds_feed_the_heap(self):
        import numpy as np

        journal = IMADGJournal(8)
        anchor = journal.get_or_create(xid(1), 0, object())
        anchor.add_batch(
            0,
            np.array([9, 9], dtype=np.int64),
            np.array([5, 6], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([42, 17], dtype=np.int64),
            tenant=0,
        )
        assert anchor.first_scn == 17
        assert journal.min_first_scn() == 17
