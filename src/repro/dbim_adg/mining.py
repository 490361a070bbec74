"""The Mining Component (paper, section III-B, Fig. 6).

"The DBIM-on-ADG Mining Component piggybacks on the recovery workers to
'sniff' each CV.  If the CV modifies an object that is specified to be
loaded in the IMCS on the Standby database, a tuple consisting of the
Object Identifier, Data Block Identifier (DBA) and the list of changed rows
in the data block is noted down in the IM-ADG Journal. [...]  In addition
to mining changes to the data in the IMCS, DBIM-on-ADG protocols need to
mine certain control information [...] viz. transaction state changes like
Transaction Begin, Prepare, Commit and Abort and the commitSCN associated
with each transaction."

The :meth:`MiningComponent.sniff_chunk` method is installed as the
recovery workers' batch sniffer: it mines a worker's whole chunk *before*
any of it is applied and returns False on a journal/commit-table latch
miss, making the worker retry the chunk (partial progress kept) on its
next step.

Restart protocol (section III-E): a mined commit record whose transaction
has no 'begin' in the journal is a pre-restart transaction.  If the commit
record's flag says it modified IMCS-enabled objects -- or specialized redo
generation is off and we must be pessimistic -- a *coarse* commit-table
node is created, whose flush invalidates every IMCU of the tenant.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro import obs
from repro.common.ids import TransactionId, WorkerId
from repro.common.scn import SCN
from repro.dbim_adg.commit_table import CommitTableNode, IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.journal import IMADGJournal
from repro.imcs.store import InMemoryColumnStore
from repro.redo.batch import (
    BULK_DATA_LOOKUP,
    OP_CODE,
    SPECIAL_LOOKUP,
    CVChunk,
    decode_xid,
)
from repro.redo.records import CVOp, ChangeVector, CommitPayload


class MiningComponent:
    """Sniffs change vectors during redo apply."""

    data_records_mined = obs.view("_data_records_mined")
    control_records_mined = obs.view("_control_records_mined")
    ddl_markers_mined = obs.view("_ddl_markers_mined")
    latch_misses = obs.view("_latch_misses")
    coarse_nodes_created = obs.view("_coarse_nodes_created")
    #: Missing-begin commits skipped during instant-restart tail replay.
    tail_commits_skipped = obs.view("_tail_commits_skipped")

    def __init__(
        self,
        journal: IMADGJournal,
        commit_table: IMADGCommitTable,
        ddl_table: DDLInformationTable,
        imcs: InMemoryColumnStore,
    ) -> None:
        self.journal = journal
        self.commit_table = commit_table
        self.ddl_table = ddl_table
        self.imcs = imcs
        #: Optional hook fired when a transaction abort is mined (used by
        #: MIRA to garbage-collect the transaction's anchors on *other*
        #: apply instances, which never see the abort control CV).
        self.on_abort: Optional[Callable[[TransactionId, SCN], None]] = None
        #: Instant-restart tail replay (:mod:`repro.restart`): while set,
        #: a mined commit whose transaction has no 'begin' is *skipped*
        #: instead of triggering the III-E coarse invalidation.  The
        #: checkpoint's tail floor proves such a transaction's begin lies
        #: below the replay window, which in turn proves its invalidations
        #: were flushed into the checkpointed SMU masks before capture --
        #: the knowledge whose absence is the whole reason the coarse path
        #: exists.
        self.tail_mode = False
        # statistics
        self._obs = obs.current()
        self._data_records_mined = obs.counter("dbim.miner.data_records")
        self._control_records_mined = obs.counter(
            "dbim.miner.control_records"
        )
        self._ddl_markers_mined = obs.counter("dbim.miner.ddl_markers")
        self._latch_misses = obs.counter("dbim.miner.latch_misses")
        self._coarse_nodes_created = obs.counter("dbim.miner.coarse_nodes")
        self._tail_commits_skipped = obs.counter(
            "dbim.miner.tail_commits_skipped"
        )
        #: CVs per bulk-mined chunk.
        self._batch_cvs = obs.histogram("dbim.mine.batch_cvs")

    # ------------------------------------------------------------------
    def _sniff_control(
        self, cv: ChangeVector, scn: SCN, owner: object
    ) -> bool:
        op = cv.op
        if op is CVOp.TXN_BEGIN:
            anchor = self.journal.get_or_create(cv.xid, cv.tenant, owner)
            if anchor is None:
                self._latch_misses.inc()
                return False
            anchor.has_begin = True
            anchor.note_scn(scn)
            self._control_records_mined.inc()
            return True
        if op is CVOp.TXN_PREPARE:
            anchor = self.journal.get_or_create(cv.xid, cv.tenant, owner)
            if anchor is None:
                self._latch_misses.inc()
                return False
            anchor.prepared = True
            anchor.note_scn(scn)
            self._control_records_mined.inc()
            return True
        if op is CVOp.TXN_ABORT:
            removed = self.journal.remove(cv.xid, owner)
            if removed is None:
                self._latch_misses.inc()
                return False
            self._control_records_mined.inc()
            if self.on_abort is not None:
                self.on_abort(cv.xid, scn)
            return True
        raise ValueError(f"unhandled control op {op}")

    # ------------------------------------------------------------------
    def sniff_chunk(
        self, chunk: CVChunk, worker_id: WorkerId, owner: object
    ) -> bool:
        """Mine a worker's whole chunk, bulk-grouping data CVs by xid.

        The chunk is walked as alternating *data gaps* (runs of
        non-control CVs, grouped by transaction with one stable sort and
        appended to journal anchors as columnar RecordChunks) and
        *special* positions (transaction state changes and DDL markers,
        processed one at a time, in order).  Commit-table inserts are
        deferred into one :meth:`IMADGCommitTable.insert_batch` at the
        end of the chunk -- safe because the flush chop is gated behind
        the chunk being fully *applied*, which requires it fully mined.
        Returns False on a latch miss; partial progress stays on the
        chunk (``mined_pos`` / ``mined_xids`` / ``pending_commits``) and
        the worker retries next step.
        """
        indices = chunk.indices
        n = len(indices)
        if not chunk.stats_noted:
            chunk.stats_noted = True
            self._batch_cvs.observe(n)
        batch = chunk.batch
        cvs = batch.cvs
        scns = batch.scns
        tracer = obs.tracer_of(self._obs)
        # One pass of vectorized classification for the whole call: the
        # special positions to walk in order, and the minable-data mask
        # (bulk data op AND IMCS-enabled object).  Nothing can change the
        # enabled set *within* a call, so hoisting the filter out of the
        # per-gap path is exact.
        chunk_ops = batch.ops[indices]
        special_positions = np.nonzero(SPECIAL_LOOKUP[chunk_ops])[0]
        data_mask = BULK_DATA_LOOKUP[chunk_ops]
        # TRUNCATE CVs are invalidated via their DDL marker, never
        # journaled: the IMCU drop rides the marker (processed at
        # QuerySCN advancement), and the system xid the block-wipe CV
        # carries never commits, so an anchor for it would pin the
        # journal floor forever.
        data_mask &= chunk_ops != OP_CODE[CVOp.TRUNCATE]
        if data_mask.any():
            enabled = self.imcs.enabled_object_ids
            if not enabled:
                data_mask[:] = False
            elif len(enabled) <= 8:
                # A handful of enabled objects: a few equality passes beat
                # np.isin's sort/unique machinery by an order of magnitude.
                object_ids = batch.object_ids[indices]
                enabled_mask = np.zeros(n, dtype=bool)
                for object_id in enabled:
                    enabled_mask |= object_ids == object_id
                data_mask &= enabled_mask
            else:
                data_mask &= np.isin(
                    batch.object_ids[indices],
                    np.fromiter(
                        enabled, dtype=np.int64, count=len(enabled)
                    ),
                    kind="sort",
                )
        pos = chunk.mined_pos
        while pos < n:
            k = int(np.searchsorted(special_positions, pos))
            gap_end = (
                int(special_positions[k])
                if k < special_positions.size
                else n
            )
            if gap_end > pos:
                if not self._mine_data_gap(
                    chunk, pos, gap_end, data_mask, worker_id, owner, tracer
                ):
                    return False
                pos = gap_end
                chunk.mined_pos = pos
                chunk.mined_xids = None
                continue
            i = int(indices[pos])
            cv = cvs[i]
            scn = int(scns[i])
            if not self._sniff_special(cv, scn, chunk, owner):
                chunk.mined_pos = pos
                return False
            pos += 1
            chunk.mined_pos = pos
            if tracer is not None:
                tracer.record_mined(scn)
        if chunk.pending_commits:
            leftover = self.commit_table.insert_batch(
                chunk.pending_commits, owner
            )
            if leftover:
                self._latch_misses.inc()
                chunk.pending_commits = leftover
                return False
            chunk.pending_commits = None
        return True

    def _mine_data_gap(
        self,
        chunk: CVChunk,
        lo: int,
        hi: int,
        data_mask: np.ndarray,
        worker_id: WorkerId,
        owner: object,
        tracer,
    ) -> bool:
        """Bulk-mine one run of non-control CVs: take the caller's
        precomputed minable-data mask, group by xid with one stable sort,
        and append each group to its journal anchor as a single columnar
        slice.  ``mined_xids`` carries per-group progress across
        latch-miss retries of the same gap."""
        batch = chunk.batch
        idx = chunk.indices[lo:hi]
        mask = data_mask[lo:hi]
        if mask.any():
            sel = np.nonzero(mask)[0]
            xids = batch.xids[idx[sel]]
            order = np.argsort(xids, kind="stable")
            sorted_xids = xids[order]
            starts = np.nonzero(
                np.concatenate(([True], sorted_xids[1:] != sorted_xids[:-1]))
            )[0]
            ends = np.append(starts[1:], sel.size)
            mined = chunk.mined_xids
            if mined is None:
                mined = chunk.mined_xids = set()
            for g in range(starts.size):
                code = int(sorted_xids[starts[g]])
                if code in mined:
                    continue
                # back to chunk order: SCN-ascending within the group
                grp = idx[sel[np.sort(order[starts[g] : ends[g]])]]
                tenant = int(batch.tenants[grp[0]])
                anchor = self.journal.get_or_create(
                    decode_xid(code), tenant, owner
                )
                if anchor is None:
                    self._latch_misses.inc()
                    return False
                anchor.add_batch(
                    worker_id,
                    batch.object_ids[grp],
                    batch.dbas[grp],
                    batch.slots[grp],
                    batch.scns[grp],
                    tenant,
                )
                self._data_records_mined.inc(int(grp.size))
                mined.add(code)
        if tracer is not None:
            for s in batch.scns[idx]:
                tracer.record_mined(int(s))
        return True

    def _sniff_special(
        self, cv: ChangeVector, scn: SCN, chunk: CVChunk, owner: object
    ) -> bool:
        """Mine one in-order special CV during a chunk walk; commits
        defer their commit-table insert to the chunk's batch insert."""
        if cv.op is CVOp.DDL_MARKER:
            self.ddl_table.add(scn, cv.payload)
            self._ddl_markers_mined.inc()
            return True
        if cv.op is CVOp.TXN_COMMIT:
            return self._sniff_commit(cv, chunk, owner)
        return self._sniff_control(cv, scn, owner)

    def _sniff_commit(
        self, cv: ChangeVector, chunk: CVChunk, owner: object
    ) -> bool:
        """Build the commit-table node for a mined commit record; it lands
        on the chunk's ``pending_commits`` (inserted once per chunk)."""
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
            # Missing 'transaction begin': mined state predates an instance
            # restart (paper, III-E).  The commit-record flag decides:
            #   False      -> transaction touched no IMCS object; skip.
            #   True/None  -> coarse invalidation of the tenant's IMCUs
            #                 (None = no specialized redo: be pessimistic).
            if payload.modifies_imcs is False:
                self._control_records_mined.inc()
                return True
            if self.tail_mode:
                # Instant-restart tail replay: a commit whose begin lies
                # below the tail floor belongs to a transaction whose
                # invalidations were flushed into the checkpointed masks
                # before capture (see repro.restart.replay) -- skipping is
                # exact, not pessimistic.
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
        if chunk.pending_commits is None:
            chunk.pending_commits = []
        chunk.pending_commits.append(node)
        self._control_records_mined.inc()
        return True

    def clear(self) -> None:
        """Reset statistics (state lives in the journal/tables)."""
        self.data_records_mined = 0
        self.control_records_mined = 0
        self.ddl_markers_mined = 0
        self.latch_misses = 0
        self.coarse_nodes_created = 0
