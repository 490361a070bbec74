"""Batched ingest vs the record-at-a-time reference (DESIGN.md section 15).

The standby ingests redo as columnar ``CVBatch``/``CVChunk`` units from
the shipper to flush.  The batching is a pure performance transformation:
for any redo stream it must leave the DBIM-on-ADG structures exactly as
the per-CV reference interpreter (``tests/reference/record_ingest.py``)
leaves them.  Hypothesis drives randomized histories -- multi-transaction
DML, rollbacks, DDL markers (CREATE TABLE mid-stream), TRUNCATEs, and
stretches that ship only control CVs or heartbeats -- through one live
deployment, while a shadow feeds the reference every chunk a production
worker mines (CV by CV, same worker id) and chops the reference commit
table whenever production begins a QuerySCN advancement.  After every
shipment the receiver lands, and after every scheduler slice, we compare

* commit-table length, and the chopped ``(xid, commit_scn, coarse)``
  order at every advancement;
* outside an in-flight drain: journal anchor count, record count and
  floor (``min_first_scn``), and the routed invalidation union per
  commit -- production's groups (the array gather) against the
  reference's dict walk;
* after every slice: standby rows at the published QuerySCN against the
  primary's Consistent Read at that SCN.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.dbim_adg.flush import InvalidationListener

from tests.reference.record_ingest import RecordIngest, routed_union


def build_deployment(seed: int) -> Deployment:
    config = SystemConfig(
        imcs=IMCSConfig(
            imcu_target_rows=32,
            population_workers=1,
            repopulate_invalid_fraction=0.3,
            repopulate_min_interval=0.05,
        ),
        apply=ApplyConfig(n_workers=3),
        seed=seed,
    )
    deployment = Deployment.build(config=config)
    deployment.create_table(
        TableDef(
            "T",
            (
                ColumnDef.number("id", nullable=False),
                ColumnDef.number("n1"),
                ColumnDef.varchar("c1"),
            ),
            rows_per_block=4,
            indexes=("id",),
        )
    )
    return deployment


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 200)),
        st.tuples(st.just("update"), st.integers(0, 30)),
        st.tuples(st.just("delete"), st.integers(0, 30)),
        st.tuples(st.just("commit"), st.just(0)),
        st.tuples(st.just("rollback"), st.just(0)),
        st.tuples(st.just("new_txn"), st.just(0)),
        # DDL marker mid-stream: a second table materialises over redo
        st.tuples(st.just("ddl"), st.just(0)),
        # whole-object TRUNCATE: block-level CVs + marker
        st.tuples(st.just("truncate"), st.just(0)),
        # idle slices ship heartbeat/control-only batches
        st.tuples(st.just("run"), st.integers(1, 20)),
        st.tuples(st.just("check"), st.just(0)),
    ),
    min_size=5,
    max_size=50,
)


class ReferenceShadow(InvalidationListener):
    """Mirrors a live standby's mining and advancement into the
    record-at-a-time reference and compares the two."""

    def __init__(self, deployment: Deployment):
        standby = deployment.standby
        self.standby = standby
        journal_cfg = deployment.config.journal
        self.ref = RecordIngest(
            standby.imcs,
            n_buckets=journal_cfg.n_buckets,
            commit_table_partitions=journal_cfg.commit_table_partitions,
        )
        #: commit_scn -> routed union, as production flushed it
        self.routed: dict = {}
        #: commit_scn -> routed union, as the reference gathered it
        self.expected: dict = {}
        self.advancements = 0
        for worker in standby.workers:
            worker.batch_sniffer = self._mirror_mining(worker.batch_sniffer)
        flush = standby.flush
        begin_advance = flush.begin_advance

        def mirrored_begin_advance(target_scn):
            begin_advance(target_scn)
            self._mirror_advance(target_scn)

        flush.begin_advance = mirrored_begin_advance
        flush.add_invalidation_listener(self)
        deliver = standby.receiver.deliver

        def deliver_then_compare(batch, position=None, thread=None):
            deliver(batch, position, thread)
            self.compare()

        standby.receiver.deliver = deliver_then_compare

    def _mirror_mining(self, sniff_chunk):
        def mine(chunk, worker_id, owner):
            start = chunk.mined_pos
            assert sniff_chunk(chunk, worker_id, owner), (
                "latch miss on a fault-free standby"
            )
            batch = chunk.batch
            self.ref.mine(
                worker_id,
                (
                    (int(batch.scns[i]), batch.cvs[i])
                    for i in chunk.indices[start:]
                ),
            )
            return True

        return mine

    def _mirror_advance(self, target_scn):
        self.advancements += 1
        worklink = self.standby.flush.worklink
        chopped = [(n.xid, n.commit_scn, n.coarse) for n in worklink.nodes]
        gathered = self.ref.advance(
            target_scn, self.standby.flush.group_block_limit
        )
        assert chopped == [
            (n.xid, n.commit_scn, n.coarse) for n, __ in gathered
        ], f"chop order diverged at target {target_scn}"
        for node, groups in gathered:
            if node.coarse:
                self.expected[node.commit_scn] = ("coarse", node.tenant)
            elif groups:
                self.expected[node.commit_scn] = routed_union(groups)

    # -- InvalidationListener (production flush) -------------------------
    def on_group_flushed(self, group):
        union = self.routed.setdefault(group.commit_scn, {})
        for key, slots in routed_union([group]).items():
            assert key not in union, f"{key} routed twice"
            union[key] = slots

    def on_coarse_invalidation(self, tenant, scn):
        self.routed[scn] = ("coarse", tenant)

    # -------------------------------------------------------------------
    def compare(self):
        standby, ref = self.standby, self.ref
        assert len(standby.commit_table) == len(ref.commit_table)
        if not standby.flush.is_advance_complete():
            # mid-drain: production retires anchors node by node, the
            # reference retired them all at the chop
            return
        assert standby.journal.anchor_count == ref.journal.anchor_count
        assert standby.journal.record_count == ref.journal.record_count
        assert standby.journal.min_first_scn() == (
            ref.journal.min_first_scn()
        )
        assert self.routed == self.expected, (
            "routed invalidations diverged from the reference"
        )


class Session:
    """One live deployment, its client history and its shadow."""

    def __init__(self, seed: int):
        self.deployment = build_deployment(seed)
        self.deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        self.shadow = ReferenceShadow(self.deployment)
        self.txns = [self.deployment.primary.begin()]
        self.rowids: list = []
        self.ddl_count = 0

    def active(self):
        if not self.txns[-1].is_active:
            self.txns.append(self.deployment.primary.begin())
        return self.txns[-1]

    def attempt(self, fn):
        try:
            fn()
        except Exception:  # row-lock conflict etc.
            return False
        return True

    def run(self, seconds):
        self.deployment.run(seconds)
        self.check()

    def check(self):
        self.shadow.compare()
        deployment = self.deployment
        snapshot = deployment.standby.query_scn.value
        for name in ["T"] + [f"T{i}" for i in range(self.ddl_count)]:
            table = deployment.primary.catalog.table(name)
            if any(
                part.segment.truncate_scn is not None
                and part.segment.truncate_scn > snapshot
                for part in table.partitions.values()
            ):
                # TRUNCATE is a non-versioned wipe: the primary can no
                # longer serve a CR below it
                continue
            expected = sorted(
                values
                for __, values in table.full_scan(
                    snapshot, deployment.primary.txn_table
                )
            )
            got = sorted(deployment.standby.query(name).rows)
            assert got == expected, f"standby rows diverged on {name}"


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=OPS, seed=st.integers(0, 2**20))
def test_batched_ingest_matches_record_oracle(ops, seed):
    session = Session(seed)
    primary = session.deployment.primary
    rng_ids = iter(range(10_000, 100_000))

    for kind, arg in ops:
        if kind == "insert":
            value = next(rng_ids)
            txn = session.active()
            if session.attempt(
                lambda: primary.insert(
                    txn, "T", (value, float(arg), f"v{arg % 7}")
                )
            ):
                session.rowids.append(txn.changes[-1].rowid)
        elif kind in ("update", "delete") and session.rowids:
            rowid = session.rowids[arg % len(session.rowids)]
            txn = session.active()
            if kind == "update":
                session.attempt(
                    lambda: primary.update(txn, "T", rowid, {"n1": arg * 2.0})
                )
            elif session.attempt(lambda: primary.delete(txn, "T", rowid)):
                session.rowids.remove(rowid)
        elif kind == "commit":
            session.attempt(lambda: primary.commit(session.active()))
        elif kind == "rollback":
            txn = session.active()
            removed = {
                c.rowid for c in txn.changes if c.kind.name == "INSERT"
            }
            session.attempt(lambda: primary.rollback(txn))
            session.rowids[:] = [
                r for r in session.rowids if r not in removed
            ]
        elif kind == "new_txn":
            session.txns.append(primary.begin())
        elif kind == "ddl":
            name = f"T{session.ddl_count}"
            session.ddl_count += 1
            session.deployment.create_table(
                TableDef(
                    name,
                    (ColumnDef.number("id", nullable=False),),
                    rows_per_block=4,
                )
            )
            session.deployment.enable_inmemory(
                name, service=InMemoryService.BOTH
            )
        elif kind == "truncate":
            session.attempt(lambda: primary.truncate_table("T"))
        elif kind == "run":
            session.run(arg / 100.0)
        elif kind == "check":
            session.run(0.05)

    for txn in session.txns:
        if txn.is_active:
            primary.rollback(txn)
    session.deployment.catch_up()
    session.check()
    assert session.shadow.advancements > 0
