"""Shared helpers for the DBIM-on-ADG unit tests."""

from __future__ import annotations

import numpy as np

#: Slot value meaning "the whole block" in a journal RecordChunk.
WHOLE_BLOCK = -1


def add_records(anchor, worker_id, rows, tenant=0):
    """Append ``(object_id, dba, slot, scn)`` rows to one worker's area of
    ``anchor`` as a single bulk-mined slice (slot -1 = whole block)."""
    columns = [np.array(c, dtype=np.int64).reshape(-1) for c in zip(*rows)]
    if not columns:
        columns = [np.empty(0, dtype=np.int64)] * 4
    object_ids, dbas, slots, scns = columns
    anchor.add_batch(worker_id, object_ids, dbas, slots, scns, tenant)
