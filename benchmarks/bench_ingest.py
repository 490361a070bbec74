"""Ingest gauntlet: columnar change-vector batches vs the record reference.

The standby ingests redo as columnar ``CVBatch`` structures (DESIGN.md
section 15) and keeps them columnar through distribution, mining,
commit-table insertion, chop and flush.  This bench measures the speedup
of that machinery directly, with an **in-run ablation**: the same
captured redo stream is pushed through freshly built apply-side
components twice -- once as ``CVBatch`` shipments through the product's
distributor, miner and gather, and once record-at-a-time through the
reference interpreter of ``tests/reference/record_ingest.py`` (per-CV
routing, per-CV sniff into record-list anchors, dict-walk gather) -- and
the apply-side CV throughput is compared.

Two things are deliberately excluded from the timed region:

* the lifecycle tracer (disarmed after build): per-CV stamping costs the
  same in both modes and would only dilute the ratio being measured;
* the physical rowstore apply: it is byte-identical work in both modes
  (version-chain walks that never vectorize) and is not part of the
  batched redo machinery.
"""

from __future__ import annotations

import pathlib
import sys
import time

import pytest

from repro import obs
from repro.adg.apply import ApplyDistributor
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db.deployment import Deployment, InMemoryService
from repro.db.schema_def import ColumnDef, TableDef
from repro.dbim_adg.commit_table import IMADGCommitTable
from repro.dbim_adg.ddl import DDLInformationTable
from repro.dbim_adg.flush import InvalidationFlushComponent, gather_groups
from repro.dbim_adg.journal import IMADGJournal
from repro.dbim_adg.mining import MiningComponent
from repro.redo.batch import CVBatch

from conftest import save_json, save_report

# the record-at-a-time reference lives with the tests, outside the package
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))
from tests.reference import record_ingest  # noqa: E402

#: Records per shipment in the gauntlet -- a drain-shaped firehose (the
#: shipper's steady-state batch is smaller; large shipments are what a
#: catch-up after a standby outage looks like).
SHIPMENT_RECORDS = 2048
#: The gate: apply-side CVs/s, batched over the record reference, same
#: stream.
REQUIRED_SPEEDUP = 3.0
BEST_OF = 3

N_ROWS = 4_000
N_UPDATE_TXNS = 200
UPDATES_PER_TXN = 100


@pytest.fixture(scope="module")
def firehose():
    """One DML firehose captured on a live deployment.

    The deployment itself drains the stream end-to-end -- its metrics
    registry must show the batch histograms afterwards -- and its redo
    log is then replayed through fresh components by the ablation.
    """
    config = SystemConfig(
        imcs=IMCSConfig(
            imcu_target_rows=1024,
            population_workers=2,
            repopulate_invalid_fraction=0.02,
            repopulate_min_interval=0.1,
        ),
        apply=ApplyConfig(n_workers=4),
        seed=7,
    )
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        deployment = Deployment.build(config=config)
        # Disarm the per-CV lifecycle stamps (counters/histograms stay):
        # both ablation modes would pay the same tracer tax, diluting the
        # machinery ratio this bench exists to measure.
        registry.tracer = None
        deployment.create_table(
            TableDef(
                "T",
                tuple(
                    [ColumnDef.number("id", nullable=False)]
                    + [ColumnDef.number(f"n{i}") for i in range(4)]
                ),
                rows_per_block=64,
                indexes=("id",),
            )
        )
        primary = deployment.primary
        rowids = []
        txn = primary.begin()
        for i in range(N_ROWS):
            rowids.append(
                primary.insert(txn, "T", tuple([i] + [float(i)] * 4))
            )
        primary.commit(txn)
        deployment.catch_up()
        deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
        deployment.catch_up()
        for t in range(N_UPDATE_TXNS):
            txn = primary.begin()
            for j in range(UPDATES_PER_TXN):
                row = rowids[(t * 31 + j * 7) % len(rowids)]
                primary.update(txn, "T", row, {"n1": float(j)})
            primary.commit(txn)
        deployment.catch_up()
        records = list(primary.redo_logs[0]._records)
    return deployment, registry, records


def drain_once(deployment, records, batched: bool) -> dict[str, float]:
    """Push the captured stream through fresh apply-side components,
    timing each stage: transpose, distribute, mine, chop, flush.
    ``batched=False`` runs the record-at-a-time reference instead."""
    owner = object()
    imcs = deployment.standby.imcs
    if batched:
        journal = IMADGJournal(64)
        commit_table = IMADGCommitTable(4)
        miner = MiningComponent(
            journal, commit_table, DDLInformationTable(), imcs
        )
    else:
        ref = record_ingest.RecordIngest(imcs, 64, 4)
        journal, commit_table, miner = ref.journal, ref.commit_table, ref.miner
    flush = InvalidationFlushComponent(
        journal, commit_table, DDLInformationTable(), imcs
    )
    limit = flush.group_block_limit
    times: dict[str, float] = {}

    t0 = time.perf_counter()
    if batched:
        items = [
            CVBatch.from_records(records[i:i + SHIPMENT_RECORDS])
            for i in range(0, len(records), SHIPMENT_RECORDS)
        ]
    else:
        items = records
    times["transpose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if batched:
        distributor = ApplyDistributor(4)
    else:
        distributor = record_ingest.RecordDistributor(4)
    distributor.distribute(items)
    times["distribute"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if batched:
        for worker, queue in enumerate(distributor.queues):
            for chunk in queue:
                assert miner.sniff_chunk(chunk, worker, owner), "latch miss"
    else:
        for worker, queue in enumerate(distributor.queues):
            for scn, cv in queue:
                assert miner.sniff(cv, scn, worker, owner), "latch miss"
    times["mine"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    nodes = commit_table.chop(10**9)
    times["chop"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for node in nodes:
        if node.anchor is not None:
            if batched:
                groups = gather_groups([node.anchor], node.commit_scn, limit)
            else:
                groups = record_ingest.gather_groups(
                    node.anchor.all_records(), node.commit_scn, limit
                )
            for group in groups:
                flush.router.route(group)
        journal.remove_with_recovery(node.xid, flush)
    times["flush"] = time.perf_counter() - t0
    assert journal.record_count == 0, "flush left journal residue"
    return times


def test_ingest_gauntlet(firehose, benchmark):
    deployment, registry, records = firehose
    total_cvs = sum(len(r.cvs) for r in records)
    assert total_cvs > 20_000, "firehose too small to be meaningful"

    results = {}
    for label, batched in (("reference", False), ("batched", True)):
        best = None
        for __ in range(BEST_OF):
            times = drain_once(deployment, records, batched)
            total = sum(times.values())
            if best is None or total < best[0]:
                best = (total, times)
        total, times = best
        results[label] = {
            "stage_ms": {k: round(v * 1e3, 3) for k, v in times.items()},
            "total_ms": round(total * 1e3, 3),
            "cvs_per_s": round(total_cvs / total),
        }

    speedup = (
        results["batched"]["cvs_per_s"] / results["reference"]["cvs_per_s"]
    )

    # the live deployment really ran the columnar path end-to-end
    snapshot = registry.snapshot()
    apply_hist = snapshot.get("adg.apply.batch_cvs")
    mine_hist = snapshot.get("dbim.mine.batch_cvs")
    assert apply_hist is not None and apply_hist["count"] > 0, (
        "no columnar batches crossed the apply distributor"
    )
    assert mine_hist is not None and mine_hist["count"] > 0, (
        "no columnar chunks were mined"
    )

    save_json("ingest", {
        "bench": "ingest_gauntlet",
        "shipment_records": SHIPMENT_RECORDS,
        "total_cvs": total_cvs,
        "total_records": len(records),
        "best_of": BEST_OF,
        "results": results,
        "speedup": round(speedup, 3),
        "required_speedup": REQUIRED_SPEEDUP,
        "live_batch_histograms": {
            "adg.apply.batch_cvs": apply_hist,
            "dbim.mine.batch_cvs": mine_hist,
        },
    })

    lines = [
        "Ingest gauntlet: apply-side CVs/s, batched vs record reference",
        f"  stream: {len(records)} records / {total_cvs} CVs, "
        f"shipments of {SHIPMENT_RECORDS} records, best of {BEST_OF}",
    ]
    for label in ("reference", "batched"):
        r = results[label]
        stages = "  ".join(
            f"{k}={v:.1f}ms" for k, v in r["stage_ms"].items()
        )
        lines.append(
            f"  {label:9s} {r['cvs_per_s']:>9,} cvs/s  "
            f"({r['total_ms']:.1f}ms: {stages})"
        )
    lines.append(f"  speedup: {speedup:.2f}x (gate: >= {REQUIRED_SPEEDUP}x)")
    save_report("ingest_gauntlet", "\n".join(lines))

    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched ingest only {speedup:.2f}x over the record reference "
        f"(gate {REQUIRED_SPEEDUP}x): {results}"
    )

    # wall-clock: transposing one shipment into columnar form
    benchmark(lambda: CVBatch.from_records(records[:SHIPMENT_RECORDS]))
