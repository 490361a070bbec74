"""Redo generation, logging and shipping.

The redo stream is the *only* channel between the primary and the standby:
every row change, transaction state change and DDL travels as change
vectors inside SCN-stamped redo records (section II-A of the paper).  The
shipper transposes each run of records once into a columnar ``CVBatch``,
the unit the standby merges, applies and mines.
"""

from repro.redo.records import (
    CVOp,
    ChangeVector,
    RedoRecord,
    InsertPayload,
    UpdatePayload,
    DeletePayload,
    UndoPayload,
    CommitPayload,
    TruncatePayload,
    DDLMarkerPayload,
    txn_table_dba,
    ddl_marker_dba,
    truncate_dba,
)
from repro.redo.batch import CVBatch, CVChunk
from repro.redo.log import RedoLog, LogReader
from repro.redo.shipping import FanOutLogShipper, LogShipper, RedoReceiver

__all__ = [
    "CVOp",
    "ChangeVector",
    "RedoRecord",
    "InsertPayload",
    "UpdatePayload",
    "DeletePayload",
    "UndoPayload",
    "CommitPayload",
    "TruncatePayload",
    "DDLMarkerPayload",
    "txn_table_dba",
    "ddl_marker_dba",
    "truncate_dba",
    "CVBatch",
    "CVChunk",
    "RedoLog",
    "LogReader",
    "FanOutLogShipper",
    "LogShipper",
    "RedoReceiver",
]
