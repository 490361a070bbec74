"""Figure 9: Q1/Q2 response times on the standby, update-only workload.

Paper setup: 4000 ops/s with 70% updates + 29% index fetches on the
primary and 1% full scans on the standby; response time compared without
vs with DBIM-on-ADG; "the response time has improved by almost 100x".

Shape check: with DBIM-on-ADG both queries' median/average/p95 must
improve by a large factor (we assert >= 20x; the cost model's per-row gap
puts the ceiling around 400x, bounded below by SMU-reconcile fallback for
freshly updated rows).
"""

from __future__ import annotations

import pytest

from repro.db.deployment import InMemoryService
from repro.imcs.scan import Predicate
from repro.obs.render import render_table, speedup

from conftest import bench_oltap_config, run_scenario, save_report, summary_rows


def update_only_config():
    return bench_oltap_config(
        pct_update=0.70, pct_insert=0.0, pct_scan=0.01
    )


@pytest.fixture(scope="module")
def without_dbim():
    return run_scenario(update_only_config(), service=None)


@pytest.fixture(scope="module")
def with_dbim():
    return run_scenario(update_only_config(), service=InMemoryService.STANDBY)


def test_fig9_update_only_speedup(without_dbim, with_dbim, benchmark):
    __, workload_without = without_dbim
    deployment_with, workload_with = with_dbim

    base_q1 = workload_without.query_driver.q1.stats()
    base_q2 = workload_without.query_driver.q2.stats()
    fast_q1 = workload_with.query_driver.q1.stats()
    fast_q2 = workload_with.query_driver.q2.stats()
    for stats in (base_q1, base_q2, fast_q1, fast_q2):
        assert stats["count"] >= 3, "not enough scan samples collected"

    rows = [
        summary_rows("Q1 without DBIM-on-ADG", base_q1),
        summary_rows("Q1 with DBIM-on-ADG", fast_q1),
        ["Q1 speedup (median)", "",
         speedup(base_q1["p50"], fast_q1["p50"]), "", ""],
        summary_rows("Q2 without DBIM-on-ADG", base_q2),
        summary_rows("Q2 with DBIM-on-ADG", fast_q2),
        ["Q2 speedup (median)", "",
         speedup(base_q2["p50"], fast_q2["p50"]), "", ""],
    ]
    save_report(
        "fig9_update_only",
        render_table(
            ["series", "n", "median (ms)", "average (ms)", "p95 (ms)"],
            rows,
            title="Fig. 9: standby query response times, update-only "
                  "workload (70% upd / 29% fetch / 1% scan)",
        ),
    )

    # the paper's shape: ~100x; require at least 20x on every statistic
    for base, fast in ((base_q1, fast_q1), (base_q2, fast_q2)):
        for stat in ("p50", "mean", "p95"):
            assert speedup(base[stat], fast[stat]) >= 20

    # wall-clock benchmark: a live standby Q1 with DBIM-on-ADG enabled
    table_name = workload_with.config.table_name
    benchmark(
        lambda: deployment_with.standby.query(
            table_name, [Predicate.eq("n1", 42.0)]
        )
    )
