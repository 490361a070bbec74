"""The array invalidation-group gather against the reference dict walk.

``repro.dbim_adg.flush.gather_groups`` is the one gather both the flush
component and the MIRA coordinator call.  Hypothesis feeds it random
(object, dba, slot) triples -- whole-block markers and duplicates
included -- spread over several worker areas and several anchors (MIRA
gathers one transaction from every apply instance's journal), with
``group_block_limit`` from 1 upwards and MIRA's unbounded mode, and checks
it against the record-at-a-time dict walk of
``tests/reference/record_ingest.py``:

* every (object, dba) routes the same slot union, whole block winning;
* no DBA is split across groups;
* no group holds more than the limit of blocks (unbounded: exactly one
  group per object).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import TransactionId
from repro.dbim_adg.flush import gather_groups
from repro.dbim_adg.journal import AnchorNode

from tests.dbim_adg.helpers import WHOLE_BLOCK, add_records
from tests.reference.record_ingest import (
    InvalidationRecord,
    gather_groups as reference_gather_groups,
    routed_union,
)

XID = TransactionId(1, 7)
COMMIT_SCN = 500

TRIPLES = st.lists(
    st.tuples(
        st.integers(900, 903),  # object
        st.integers(0, 24),  # dba
        st.integers(WHOLE_BLOCK, 5),  # slot; -1 = whole block
    ),
    max_size=80,
)


@settings(max_examples=300, deadline=None)
@given(
    triples=TRIPLES,
    block_limit=st.one_of(st.none(), st.integers(1, 30)),
    n_slices=st.integers(1, 6),
    n_anchors=st.integers(1, 3),
)
def test_array_gather_matches_reference_dict_walk(
    triples, block_limit, n_slices, n_anchors
):
    anchors = [
        AnchorNode(xid=XID, tenant=3, has_begin=True)
        for __ in range(n_anchors)
    ]
    slices = [triples[i::n_slices] for i in range(n_slices)]
    records = []
    for i, rows in enumerate(slices):
        anchor = anchors[i % n_anchors]
        add_records(
            anchor,
            i % 4,
            [(obj, dba, slot, 10 + k) for k, (obj, dba, slot) in
             enumerate(rows)],
            tenant=3,
        )
        records.extend(
            InvalidationRecord(
                object_id=obj,
                dba=dba,
                slots=() if slot == WHOLE_BLOCK else (slot,),
                tenant=3,
                scn=10 + k,
            )
            for k, (obj, dba, slot) in enumerate(rows)
        )

    groups = gather_groups(anchors, COMMIT_SCN, block_limit)
    expected = reference_gather_groups(records, COMMIT_SCN, block_limit)

    assert routed_union(groups) == routed_union(expected)
    whole = {(obj, dba) for obj, dba, slot in triples if slot == WHOLE_BLOCK}
    union = routed_union(groups)
    assert all(union[key] == () for key in whole)
    placed = set()
    for group in groups:
        assert group.commit_scn == COMMIT_SCN and group.tenant == 3
        assert group.n_blocks >= 1
        for dba in group.blocks:
            key = (group.object_id, dba)
            assert key not in placed, f"DBA {key} split across groups"
            placed.add(key)
    if block_limit is None:
        objects = [group.object_id for group in groups]
        assert len(objects) == len(set(objects)) == len(
            {obj for obj, __, __ in triples}
        )
    else:
        assert all(group.n_blocks <= block_limit for group in groups)
