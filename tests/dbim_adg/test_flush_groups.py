"""Regression tests for invalidation-group gathering (`gather_groups`),
the journal-latch livelock in `_flush_one`, and commit-table chop order.

The gathering bug: when a group reached ``group_block_limit``, a record
for a DBA *already present* in the full group used to spawn a fresh
group instead of merging -- splitting one block's slot set across groups
(defeating whole-block-wins) and routing the DBA twice.  Each case here
buffers every record as its own slice, spread over several workers'
areas, so one DBA's records sit in different slices -- as they do when
several workers mine one transaction.
"""

from __future__ import annotations

import pytest

from repro.common import TransactionId
from repro.dbim_adg import (
    DDLInformationTable,
    IMADGCommitTable,
    IMADGJournal,
    InvalidationFlushComponent,
    gather_groups,
)
from repro.dbim_adg.commit_table import CommitTableNode
from repro.dbim_adg.journal import AnchorNode
from repro.imcs import InMemoryColumnStore

from tests.dbim_adg.helpers import WHOLE_BLOCK, add_records

XID = TransactionId(1, 7)


def make_flush(group_block_limit=64):
    journal = IMADGJournal(8)
    flush = InvalidationFlushComponent(
        journal,
        IMADGCommitTable(4),
        DDLInformationTable(),
        InMemoryColumnStore(),
        group_block_limit=group_block_limit,
    )
    return journal, flush


def node_with_records(records, commit_scn=100):
    """A committed node whose anchor buffers each record as its own
    slice, spread round-robin over three workers' areas."""
    anchor = AnchorNode(xid=XID, tenant=0, has_begin=True)
    for i, rows in enumerate(records):
        add_records(anchor, i % 3, rows)
    return CommitTableNode(
        xid=XID, commit_scn=commit_scn, anchor=anchor, tenant=0
    )


def rec(dba, slots, object_id=900, scn=50):
    """One mined record's rows: a slot list, or () for the whole block."""
    return [(object_id, dba, slot, scn) for slot in slots] or [
        (object_id, dba, WHOLE_BLOCK, scn)
    ]


def gather(flush, node):
    return gather_groups([node.anchor], node.commit_scn,
                         flush.group_block_limit)


def dba_assignments(groups):
    """Map (object_id, dba) -> list of groups containing it."""
    where = {}
    for group in groups:
        for dba in group.blocks:
            where.setdefault((group.object_id, dba), []).append(group)
    return where


class TestGatherGroups:
    def test_repeat_dba_merges_into_full_group(self):
        """A record for a DBA already in a full group must merge there,
        not open a split group (the headline regression)."""
        __, flush = make_flush(group_block_limit=2)
        node = node_with_records([
            rec(1, (1,)),
            rec(2, (5,)),      # group now at the limit
            rec(1, ()),        # whole-block for an already-placed DBA
        ])
        groups = gather(flush, node)
        assert len(groups) == 1
        assert groups[0].blocks == {1: (), 2: (5,)}

    def test_no_dba_ever_lands_in_two_groups(self):
        __, flush = make_flush(group_block_limit=2)
        records = []
        for round_ in range(3):
            for dba in (1, 2, 3, 4, 5):
                records.append(rec(dba, (round_,)))
        groups = gather(flush, node_with_records(records))
        where = dba_assignments(groups)
        doubled = {k: len(v) for k, v in where.items() if len(v) > 1}
        assert not doubled, f"DBAs routed twice: {doubled}"
        # every record's slot landed in its DBA's single group
        for dba in (1, 2, 3, 4, 5):
            (group,) = where[(900, dba)]
            assert group.blocks[dba] == (0, 1, 2)

    def test_limit_one_one_group_per_dba(self):
        __, flush = make_flush(group_block_limit=1)
        groups = gather(flush, node_with_records([
            rec(1, (0,)), rec(2, (0,)), rec(1, (3,)), rec(3, ()),
            rec(2, ()),
        ]))
        assert len(groups) == 3
        where = dba_assignments(groups)
        assert all(len(v) == 1 for v in where.values())
        (g1,) = where[(900, 1)]
        assert g1.blocks[1] == (0, 3)
        (g2,) = where[(900, 2)]
        assert g2.blocks[2] == ()  # whole block wins across the merge

    def test_whole_block_wins_across_forced_split(self):
        """With limit=2 a third distinct DBA forces a split; later
        whole-block records for DBAs of the *first* group must still
        reach the first group."""
        __, flush = make_flush(group_block_limit=2)
        groups = gather(flush, node_with_records([
            rec(1, (1,)), rec(2, (2,)),   # group A (full)
            rec(3, (3,)),                 # group B (split point)
            rec(1, ()),                   # must merge into A
            rec(3, (9,)),                 # must merge into B
        ]))
        assert len(groups) == 2
        a, b = groups
        assert a.blocks == {1: (), 2: (2,)}
        assert b.blocks == {3: (3, 9)}

    def test_groups_split_per_object_independently(self):
        __, flush = make_flush(group_block_limit=2)
        groups = gather(flush, node_with_records([
            rec(1, (0,), object_id=900),
            rec(1, (0,), object_id=901),
            rec(2, (0,), object_id=900),
            rec(2, (0,), object_id=901),
            rec(3, (0,), object_id=900),  # only 900 splits
        ]))
        by_object = {}
        for group in groups:
            by_object.setdefault(group.object_id, []).append(group)
        assert len(by_object[900]) == 2
        assert len(by_object[901]) == 1

    def test_routed_group_count_matches_gathered(self):
        journal, flush = make_flush(group_block_limit=1)
        node = node_with_records(
            [rec(1, (0,)), rec(2, (0,)), rec(1, (4,))]
        )
        journal.get_or_create(XID, 0, object())  # so removal succeeds
        flush._flush_one(node)
        assert flush.router.groups_routed == 2  # one per distinct DBA


class TestFlushLatchRecovery:
    def test_flush_one_breaks_dead_holders_latch(self):
        """A crashed worker holding the journal bucket latch used to
        livelock `_flush_one` forever; now the latch is broken after a
        bounded spin and advancement proceeds."""
        journal, flush = make_flush()
        journal.get_or_create(XID, 0, object())
        dead_worker = object()
        bucket = journal._bucket_index(XID)
        assert journal.latches.latch_for(bucket).try_acquire(dead_worker)

        node = node_with_records([rec(1, (0,))])
        flush._flush_one(node)  # must terminate

        assert journal.latch_breaks == 1
        assert journal.anchor_count == 0
        assert not journal.latches.latch_for(bucket).is_held()

    def test_remove_with_recovery_no_contention_no_break(self):
        journal, __ = make_flush()
        journal.get_or_create(XID, 0, object())
        assert journal.remove_with_recovery(XID, object()) is True
        assert journal.latch_breaks == 0

    def test_get_with_recovery_breaks_latch(self):
        journal, __ = make_flush()
        journal.get_or_create(XID, 0, object())
        bucket = journal._bucket_index(XID)
        journal.latches.latch_for(bucket).try_acquire(object())
        anchor = journal.get_with_recovery(XID, object())
        assert anchor is not None and anchor.xid == XID
        assert journal.latch_breaks == 1


class TestChopStableOrder:
    def test_equal_commit_scns_straddling_partitions(self):
        """`chop` merges per-partition prefixes with a stable sort: nodes
        with equal commitSCN come out in partition-index order, and
        within one partition in insertion order."""
        table = IMADGCommitTable(4)
        owner = object()
        # craft xids landing in different partitions
        by_partition = {}
        for low in range(1, 200):
            xid = TransactionId(1, low)
            index = table._partition_index(xid)
            by_partition.setdefault(index, []).append(xid)
            if all(len(by_partition.get(i, ())) >= 2 for i in range(4)):
                break
        assert len(by_partition) == 4
        inserted = []
        for index in range(4):
            for xid in by_partition[index][:2]:
                node = CommitTableNode(
                    xid=xid, commit_scn=500, anchor=None, tenant=0
                )
                assert table.insert(node, owner)
                inserted.append(node)
        chopped = table.chop(500)
        assert len(chopped) == 8
        # stable: equal-SCN nodes keep partition-index-then-insertion order
        assert [n.xid for n in chopped] == [n.xid for n in inserted]

    def test_chop_mixed_scns_sorted_and_stable_within_ties(self):
        table = IMADGCommitTable(2)
        owner = object()
        nodes = []
        for low in range(1, 40):
            xid = TransactionId(1, low)
            scn = 100 + (low % 3)  # many ties
            node = CommitTableNode(
                xid=xid, commit_scn=scn, anchor=None, tenant=0
            )
            assert table.insert(node, owner)
            nodes.append(node)
        chopped = table.chop(200)
        scns = [n.commit_scn for n in chopped]
        assert scns == sorted(scns)
        # partition straddle: each tie class contains xids from both
        # partitions and no node is lost or duplicated
        assert len(chopped) == len(nodes)
        assert {id(n) for n in chopped} == {id(n) for n in nodes}
