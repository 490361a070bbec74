"""Columnar change-vector batches: the unit of redo flow on the standby.

A shipment's records are transposed **once**, at the shipper, into
struct-of-arrays form (scn/dba/object-id/op-code/xid/tenant/slot numpy
arrays) and the arrays travel through delivery, merge, distribution,
mining and flush.  Worker hashing, xid grouping, enabled-object filtering
and slot extraction are each one numpy operation per batch.

The original ``ChangeVector`` objects ride along as the **payload
side-table** (``cvs``): physical apply still needs the payload tuples,
and keeping the original objects preserves ``id(cv)`` identity, which the
instant-restart tail replay uses to exclude still-queued CVs.

Record boundaries are kept (``record_starts`` / ``record_scns``) so a
batch can be *split* wherever record semantics demand it: duplicate-
prefix discard at the receiver, watermark cuts at the merger.  Chaos
drop/delay decisions are taken per shipment.

:class:`CVChunk` is the per-worker view of one distributed batch: an
index array into the batch plus apply/mine progress cursors.
"""

from __future__ import annotations

import operator
from typing import Iterator, Optional

import numpy as np

from repro.common.ids import InstanceId, TransactionId
from repro.common.scn import SCN
from repro.redo.records import (
    CVOp,
    ChangeVector,
    DeletePayload,
    InsertPayload,
    RedoRecord,
    UpdatePayload,
)

#: Stable integer code per CVOp (CVOp definition order).
OP_CODE: dict[CVOp, int] = {op: i for i, op in enumerate(CVOp)}
OPS_BY_CODE: tuple[CVOp, ...] = tuple(CVOp)

#: Data ops the miner bulk-ingests; UNDO/HEARTBEAT carry nothing
#: minable.
BULK_DATA_CODES = frozenset(
    OP_CODE[op]
    for op in (CVOp.INSERT, CVOp.UPDATE, CVOp.DELETE, CVOp.TRUNCATE)
)
#: Ops the miner must process one at a time, in order (transaction state
#: machine + DDL information table).
SPECIAL_CODES = frozenset(
    OP_CODE[op]
    for op in (
        CVOp.TXN_BEGIN,
        CVOp.TXN_PREPARE,
        CVOp.TXN_COMMIT,
        CVOp.TXN_ABORT,
        CVOp.DDL_MARKER,
    )
)

#: Op-code -> bool lookup arrays for vectorized op classification
#: (index with an int8 ops array to get a boolean mask).
BULK_DATA_LOOKUP = np.zeros(len(OPS_BY_CODE), dtype=bool)
for _code in BULK_DATA_CODES:
    BULK_DATA_LOOKUP[_code] = True
SPECIAL_LOOKUP = np.zeros(len(OPS_BY_CODE), dtype=bool)
for _code in SPECIAL_CODES:
    SPECIAL_LOOKUP[_code] = True

#: xid encoding: (instance << 40) | sequence fits both components of a
#: :class:`TransactionId` into one int64 array element.
_XID_SHIFT = 40

#: C-level field extractors for the transpose hot loop.
_GET_DBA = operator.attrgetter("dba")
_GET_OBJECT = operator.attrgetter("object_id")
_GET_OP = operator.attrgetter("op")
_GET_XID = operator.attrgetter("xid")
_GET_TENANT = operator.attrgetter("tenant")
_GET_PAYLOAD = operator.attrgetter("payload")


def encode_xid(xid: TransactionId) -> int:
    return (xid.instance << _XID_SHIFT) | xid.sequence


def decode_xid(code: int) -> TransactionId:
    return TransactionId(
        instance=code >> _XID_SHIFT,
        sequence=code & ((1 << _XID_SHIFT) - 1),
    )


class _RecordView:
    """A lightweight record facade over one batch record (tracer use)."""

    __slots__ = ("scn", "thread", "cvs")

    def __init__(self, scn: SCN, thread: InstanceId, cvs: list) -> None:
        self.scn = scn
        self.thread = thread
        self.cvs = cvs


class CVBatch:
    """Struct-of-arrays view of a run of redo records from one thread.

    All arrays are per-CV and row-aligned with ``cvs`` (the payload
    side-table of original ChangeVector objects).  ``record_starts`` /
    ``record_scns`` are per-record: the CV offset where each record
    begins, and its SCN.  Slices share the underlying arrays (numpy
    views), so splitting at the receiver or merger is O(1) in data.
    """

    __slots__ = (
        "thread",
        "scns",
        "dbas",
        "object_ids",
        "ops",
        "xids",
        "tenants",
        "slots",
        "cvs",
        "record_starts",
        "record_scns",
    )

    def __init__(
        self,
        thread: InstanceId,
        scns: np.ndarray,
        dbas: np.ndarray,
        object_ids: np.ndarray,
        ops: np.ndarray,
        xids: np.ndarray,
        tenants: np.ndarray,
        slots: np.ndarray,
        cvs: list[ChangeVector],
        record_starts: np.ndarray,
        record_scns: np.ndarray,
    ) -> None:
        self.thread = thread
        self.scns = scns
        self.dbas = dbas
        self.object_ids = object_ids
        self.ops = ops
        self.xids = xids
        self.tenants = tenants
        self.slots = slots
        self.cvs = cvs
        self.record_starts = record_starts
        self.record_scns = record_scns

    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: list[RedoRecord]) -> "CVBatch":
        """Transpose a contiguous run of one thread's records.

        Field extraction runs as one comprehension per column feeding
        ``np.fromiter`` -- several times faster than element-wise array
        stores, and this is the shipper's per-shipment hot path.
        """
        counts = [len(r.cvs) for r in records]
        n_cvs = sum(counts)
        cvs: list[ChangeVector] = [cv for r in records for cv in r.cvs]
        record_scns = np.fromiter(
            (r.scn for r in records), np.int64, len(records)
        )
        record_starts = np.zeros(len(records), dtype=np.int64)
        if len(records) > 1:
            np.cumsum(counts[:-1], out=record_starts[1:])
        scns = np.repeat(record_scns, counts)
        # C-level extraction: map + attrgetter avoid per-CV interpreter
        # frames for the plain attribute columns
        dbas = np.fromiter(map(_GET_DBA, cvs), np.int64, n_cvs)
        object_ids = np.fromiter(map(_GET_OBJECT, cvs), np.int64, n_cvs)
        # int64 fromiter + downcast beats fromiter's int8 path
        ops = np.fromiter(
            map(OP_CODE.__getitem__, map(_GET_OP, cvs)), np.int64, n_cvs
        ).astype(np.int8)
        shift = _XID_SHIFT
        xids = np.fromiter(
            (
                (xid.instance << shift) | xid.sequence
                for xid in map(_GET_XID, cvs)
            ),
            np.int64,
            n_cvs,
        )
        tenants = np.fromiter(map(_GET_TENANT, cvs), np.int64, n_cvs)
        slotted = (InsertPayload, UpdatePayload, DeletePayload)
        slots = np.fromiter(
            (
                payload.slot if isinstance(payload, slotted) else -1
                for payload in map(_GET_PAYLOAD, cvs)
            ),
            np.int64,
            n_cvs,
        )
        thread = records[0].thread if records else 0
        return cls(
            thread,
            scns,
            dbas,
            object_ids,
            ops,
            xids,
            tenants,
            slots,
            cvs,
            record_starts,
            record_scns,
        )

    # ------------------------------------------------------------------
    @property
    def n_cvs(self) -> int:
        return len(self.cvs)

    @property
    def n_records(self) -> int:
        return int(self.record_scns.size)

    def __len__(self) -> int:
        return int(self.record_scns.size)

    @property
    def scn(self) -> SCN:
        """First record's SCN (heap/merged-deque ordering key, mirroring
        ``RedoRecord.scn``)."""
        return int(self.record_scns[0])

    @property
    def last_scn(self) -> SCN:
        return int(self.record_scns[-1])

    # ------------------------------------------------------------------
    def slice_records(self, lo: int, hi: int) -> "CVBatch":
        """The sub-batch covering records ``[lo, hi)`` (array views)."""
        starts = self.record_starts
        cv_lo = int(starts[lo]) if lo < starts.size else len(self.cvs)
        cv_hi = int(starts[hi]) if hi < starts.size else len(self.cvs)
        return CVBatch(
            self.thread,
            self.scns[cv_lo:cv_hi],
            self.dbas[cv_lo:cv_hi],
            self.object_ids[cv_lo:cv_hi],
            self.ops[cv_lo:cv_hi],
            self.xids[cv_lo:cv_hi],
            self.tenants[cv_lo:cv_hi],
            self.slots[cv_lo:cv_hi],
            self.cvs[cv_lo:cv_hi],
            starts[lo:hi] - cv_lo,
            self.record_scns[lo:hi],
        )

    def split_at_scn(
        self, scn: SCN
    ) -> tuple["CVBatch", Optional["CVBatch"]]:
        """Cut at a record boundary: (records with SCN <= ``scn``, rest).

        The caller guarantees at least the first record qualifies.  The
        second element is None when every record qualifies.
        """
        cut = int(np.searchsorted(self.record_scns, scn, side="right"))
        if cut >= self.record_scns.size:
            return self, None
        return (
            self.slice_records(0, cut),
            self.slice_records(cut, self.record_scns.size),
        )

    # ------------------------------------------------------------------
    def record_views(self) -> Iterator[_RecordView]:
        """Per-record facades (``.scn`` / ``.thread`` / ``.cvs``) for the
        lifecycle tracer; only materialised when a tracer is armed."""
        starts = self.record_starts
        scns = self.record_scns
        cvs = self.cvs
        n = starts.size
        for r_i in range(n):
            lo = int(starts[r_i])
            hi = int(starts[r_i + 1]) if r_i + 1 < n else len(cvs)
            yield _RecordView(int(scns[r_i]), self.thread, cvs[lo:hi])

    def iter_scn_cvs(self) -> Iterator[tuple[SCN, ChangeVector]]:
        scns = self.scns
        for i, cv in enumerate(self.cvs):
            yield int(scns[i]), cv


class CVChunk:
    """One worker's share of a distributed :class:`CVBatch`.

    ``indices`` selects this worker's CVs (in SCN order) out of the
    batch; ``pos`` is the apply cursor and ``mined_pos`` the mining
    cursor.  The whole chunk is mined before any of it is applied (the
    paper's sniff-then-apply discipline at chunk scale);
    ``mined_xids`` and ``pending_commits`` carry partial bulk-mine
    progress across latch-miss retries, so no CV is mined twice.
    """

    __slots__ = (
        "batch",
        "indices",
        "pos",
        "mined_pos",
        "mined_xids",
        "pending_commits",
        "stats_noted",
    )

    def __init__(self, batch: CVBatch, indices: np.ndarray) -> None:
        self.batch = batch
        self.indices = indices
        #: Chunk position of the next CV to apply.
        self.pos = 0
        #: Chunk position of the next CV to mine.
        self.mined_pos = 0
        #: True once the miner's batch-size histogram saw this chunk
        #: (kept across latch-miss retries and restarts).
        self.stats_noted = False
        #: xid codes bulk-mined within the current data gap (partial
        #: progress on a latch-miss retry), or None.
        self.mined_xids: Optional[set[int]] = None
        #: Commit-table nodes built but not yet inserted (deferred to one
        #: ``insert_batch`` per chunk), or None.
        self.pending_commits: Optional[list] = None

    def __len__(self) -> int:
        """CVs remaining to apply."""
        return len(self.indices) - self.pos

    @property
    def n_cvs(self) -> int:
        return len(self.indices)

    @property
    def head_scn(self) -> SCN:
        return int(self.batch.scns[self.indices[self.pos]])

    @property
    def fully_mined(self) -> bool:
        return self.mined_pos >= len(self.indices) and not self.pending_commits

    def remaining_cvs(self) -> Iterator[ChangeVector]:
        """The original (unapplied) ChangeVector objects -- identity-
        preserving, for the instant-restart queue-exclusion check."""
        cvs = self.batch.cvs
        for i in self.indices[self.pos :]:
            yield cvs[i]

    def reset_mining(self) -> None:
        """Instance restart: the journal was cleared, so everything not
        yet applied must be re-mined at apply time."""
        self.mined_pos = self.pos
        self.mined_xids = None
        self.pending_commits = None
