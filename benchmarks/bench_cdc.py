"""CDC egress under a DML firehose: feed lag and backfill throughput.

The CDC egress (DESIGN.md section 16) turns the standby's invalidation
stream into a change feed: certified cuts at each published QuerySCN for
live changes, DBLog-style watermark-windowed chunk selects for the
backfill.  This bench drives a firehose of update/insert bursts against
a deployment whose subscriber attaches *after* the initial load -- so
the run exercises both paths at once -- and gates on:

* **feed lag p95**: simulated seconds between a change's certified cut
  being published and its delivery to the subscriber.  Certified-cut
  batching means lag is dominated by the pump interval, not by the
  backlog, so the p95 must stay bounded under the firehose;
* **replay equality**: after the drain, replaying the feed reconstructs
  exactly the standby's visible rows (the correctness gate -- a fast
  feed that diverges is worthless).

Results land in ``BENCH_cdc.json`` for cross-run diffing.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.cdc import ReplaySubscriber
from repro.db.deployment import Deployment, InMemoryService
from repro.db.schema_def import ColumnDef, TableDef

from conftest import bench_system_config, save_json, save_report

N_ROWS = 4_000
N_BURSTS = 120
UPDATES_PER_BURST = 25
INSERTS_PER_BURST = 3
BURST_GAP = 0.02

#: The gate: p95 publication-to-delivery lag, simulated seconds.  The
#: pump runs at a short interval; a healthy feed delivers every
#: certified cut within a couple of pump ticks even while backfill
#: chunks are interleaved.  Measured ~0.0009s on the reference run;
#: ~10x headroom.
MAX_LAG_P95 = 0.01


@pytest.fixture(scope="module")
def firehose():
    registry = obs.MetricsRegistry()
    with obs.collecting(registry):
        deployment = Deployment.build(
            config=bench_system_config(seed=7)
        )
        deployment.create_table(
            TableDef(
                "T",
                (
                    ColumnDef.number("id", nullable=False),
                    ColumnDef.number("n1"),
                    ColumnDef.varchar("c1"),
                ),
                rows_per_block=64,
                indexes=("id",),
            )
        )
        primary = deployment.primary
        txn = primary.begin()
        rowids = []
        for i in range(N_ROWS):
            rowids.append(
                primary.insert(txn, "T", (i, i * 1.0, f"v{i % 7}"))
            )
        primary.commit(txn)
        deployment.enable_inmemory("T", service=InMemoryService.BOTH)
        deployment.catch_up()
        # subscriber attaches *after* the load: the 4k preexisting rows
        # must arrive via watermark-windowed backfill chunks while the
        # firehose races them through the live path
        egress = deployment.start_cdc(tables=["T"])
        replica = ReplaySubscriber()
        egress.subscribe(replica, name="replica")
        next_id = N_ROWS
        for burst in range(N_BURSTS):
            txn = primary.begin()
            for k in range(UPDATES_PER_BURST):
                rowid = rowids[(burst * 37 + k * 11) % len(rowids)]
                primary.update(
                    txn, "T", rowid, {"n1": float(burst * 100 + k)}
                )
            for __ in range(INSERTS_PER_BURST):
                rowids.append(
                    primary.insert(
                        txn, "T", (next_id, -1.0, f"v{next_id % 7}")
                    )
                )
                next_id += 1
            primary.commit(txn)
            deployment.run(BURST_GAP)
        deployment.catch_up()
        assert deployment.sched.run_until_condition(
            lambda: egress.drained, max_time=300.0
        ), "CDC egress never drained after the firehose"
    return deployment, egress, replica


def test_feed_lag_bounded_and_replay_exact(firehose):
    deployment, egress, replica = firehose
    lag = egress._lag_hist.stats()
    windows = egress._cut_window.stats()
    assert lag["count"] > 0, "no deliveries recorded"

    # correctness gate first: the feed must reconstruct the standby
    expected = sorted(deployment.standby.query("T").rows)
    assert replica.rows("T") == expected
    assert len(expected) == N_ROWS + N_BURSTS * INSERTS_PER_BURST

    payload = {
        "rows_final": len(expected),
        "bursts": N_BURSTS,
        "events_emitted": int(egress.emitted.value),
        "cuts_resolved": int(egress.resolved.value),
        "backfill_rows": int(egress.backfill_rows.value),
        "backfill_chunks": int(egress.backfill_chunks.value),
        "backfill_deduped": int(egress.backfill_deduped.value),
        "resyncs": int(egress.resyncs.value),
        "feed_lag_p50": lag["p50"],
        "feed_lag_p95": lag["p95"],
        "feed_lag_max": lag["max"],
        "cut_window_mean": windows["mean"] if windows["count"] else 0.0,
        "gate_max_lag_p95": MAX_LAG_P95,
    }
    save_json("cdc", payload)
    lines = [
        "CDC egress firehose (live certified cuts + chunked backfill)",
        f"  final rows            {payload['rows_final']:>8}",
        f"  events emitted        {payload['events_emitted']:>8}",
        f"  certified cuts        {payload['cuts_resolved']:>8}",
        f"  backfill rows/chunks  {payload['backfill_rows']:>8}"
        f" / {payload['backfill_chunks']}",
        f"  live-wins deduped     {payload['backfill_deduped']:>8}",
        f"  feed lag p50/p95/max  "
        f"{payload['feed_lag_p50']:.4f} / {payload['feed_lag_p95']:.4f}"
        f" / {payload['feed_lag_max']:.4f} s",
        f"  gate                  p95 < {MAX_LAG_P95} s",
    ]
    save_report("cdc", "\n".join(lines))

    assert lag["p95"] < MAX_LAG_P95, (
        f"feed lag p95 {lag['p95']:.4f}s breaches the {MAX_LAG_P95}s gate"
    )
