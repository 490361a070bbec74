"""Extension benchmark: MIRA scale-out of redo apply (paper, section V).

"With Multi Instance Redo Apply (MIRA), ADG can scale-out redo apply to
multiple instances with Oracle RAC, providing faster log advancement on
the Standby Database."

We generate a redo burst whose apply cost exceeds one instance's
throughput (the per-CV apply cost is raised to create pressure, the
documented lever in ApplyConfig), then measure how long each configuration
needs to drain it:

* SIRA -- the classic single-instance apply master;
* MIRA with 2 apply instances sharing the mounted database.

Shape expectation: MIRA drains the same burst in clearly less simulated
time, while DBIM-on-ADG consistency (mining, cross-journal gather, flush)
holds on both.
"""

from __future__ import annotations

import pytest

from repro.common.config import ApplyConfig, IMCSConfig, RACConfig, SystemConfig
from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.db.primary import PrimaryDatabase
from repro.imcs import Predicate
from repro.obs.render import render_table
from repro.rac.mira import MIRAStandbyCluster
from repro.sim import Scheduler

from conftest import save_report

N_ROWS = 3_000
APPLY_COST = 2e-4  # pressure: ~5k CVs/s per instance


def burst_config() -> SystemConfig:
    return SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=512, population_workers=1),
        apply=ApplyConfig(n_workers=4, apply_cost_per_cv=APPLY_COST),
        rac=RACConfig(primary_instances=1),
    )


def table_def():
    return TableDef(
        "T",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=32,
        indexes=("id",),
    )


def generate_burst(primary, n=N_ROWS):
    rowids = []
    for base in range(0, n, 200):
        txn = primary.begin()
        for i in range(base, min(base + 200, n)):
            rowids.append(primary.insert(txn, "T", (i, i * 1.0, f"v{i % 5}")))
        primary.commit(txn)
    return rowids


def run_sira():
    deployment = Deployment.build(config=burst_config(), heartbeats=False)
    deployment.create_table(table_def())
    start_scn = deployment.primary.clock.current
    generate_burst(deployment.primary)
    target = deployment.primary.clock.current
    start = deployment.sched.now
    ok = deployment.sched.run_until_condition(
        lambda: deployment.standby.query_scn.value >= target, max_time=600.0
    )
    assert ok
    return {
        "drain_seconds": deployment.sched.now - start,
        "scns": target - start_scn,
        "deployment": deployment,
    }


def run_mira(n_instances=2):
    config = burst_config()
    sched = Scheduler(seed=config.seed, jitter=0.05)
    primary = PrimaryDatabase(config)
    primary.attach_actors(sched, heartbeats=False)
    cluster = MIRAStandbyCluster(primary, sched, n_instances=n_instances,
                                 config=config)
    primary.create_table(table_def())
    start_scn = primary.clock.current
    generate_burst(primary)
    target = primary.clock.current
    start = sched.now
    ok = sched.run_until_condition(
        lambda: cluster.query_scn.value >= target, max_time=600.0
    )
    assert ok
    return {
        "drain_seconds": sched.now - start,
        "scns": target - start_scn,
        "primary": primary,
        "cluster": cluster,
        "sched": sched,
    }


@pytest.fixture(scope="module")
def runs():
    return {"SIRA (1 apply instance)": run_sira(),
            "MIRA (2 apply instances)": run_mira()}


def test_mira_drains_redo_faster(runs, benchmark):
    sira = runs["SIRA (1 apply instance)"]
    mira = runs["MIRA (2 apply instances)"]
    rows = [
        [name, data["scns"], data["drain_seconds"],
         data["scns"] / data["drain_seconds"]]
        for name, data in runs.items()
    ]
    save_report(
        "mira_scaleout",
        render_table(
            ["configuration", "redo SCNs", "drain time (sim s)",
             "SCNs applied / s"],
            rows,
            title="MIRA scale-out: time to drain one redo burst under "
                  "apply pressure",
        ),
    )
    # the scale-out claim: two apply instances drain clearly faster
    assert mira["drain_seconds"] < sira["drain_seconds"] * 0.75

    # and DBIM-on-ADG consistency holds on the MIRA side
    primary, cluster, sched = (
        mira["primary"], mira["cluster"], mira["sched"]
    )
    cluster.enable_inmemory("T")
    primary.note_standby_enablement(cluster.catalog.table("T").object_ids)
    assert sched.run_until_condition(cluster.fully_populated, max_time=600.0)
    txn = primary.begin()
    table = primary.catalog.table("T")
    for i in range(0, N_ROWS, 7):
        rowid = table.indexes["id"].search(i)
        primary.update(txn, "T", rowid, {"n1": -4.0})
    primary.commit(txn)
    target = primary.clock.current
    assert sched.run_until_condition(
        lambda: cluster.query_scn.value >= target, max_time=600.0
    )
    result = cluster.query("T", [Predicate.eq("n1", -4.0)])
    assert len(result.rows) == len(range(0, N_ROWS, 7))

    benchmark(cluster.coordinator.cluster.instances[0].consistency_point)
