"""Ablation: In-Memory Expressions vs per-row evaluation (section V).

"In-Memory Expressions are now supported on the Standby database and
provide even faster performance for complex, analytical expressions used
in reporting queries."

We define a moderately expensive expression over two columns, query
through it twice on the same standby: once with the expression
materialised into the IMCUs (columnar filter on the precomputed vector),
once by scanning the base columns and evaluating per row in Python.
"""

from __future__ import annotations

import pytest

from repro.db.deployment import InMemoryService
from repro.imcs import Expression, Predicate
from repro.obs.render import render_table

from conftest import bench_oltap_config, best_of, run_scenario, save_report


def score(n1, n2):
    if n1 is None or n2 is None:
        return None
    return round((n1 * 3.0 + n2 * 0.5) % 997.0, 2)


@pytest.fixture(scope="module")
def scenario():
    config = bench_oltap_config(duration=0.5, pct_update=0.0, pct_scan=0.0)
    deployment, workload = run_scenario(
        config, service=InMemoryService.STANDBY
    )
    deployment.standby.add_inmemory_expression(
        workload.config.table_name,
        Expression("risk_score", ("n1", "n2"), score),
    )
    deployment.catch_up()  # repopulate with the materialised expression
    return deployment, workload


def test_inmemory_expression_speedup(scenario, benchmark):
    deployment, workload = scenario
    standby = deployment.standby
    table_name = workload.config.table_name
    table = standby.catalog.table(table_name)
    snapshot = standby.query_scn.value

    def materialised():
        return standby.query(
            table_name, [Predicate.lt("risk_score", 100.0)],
            columns=["id", "risk_score"],
        )

    def per_row():
        out = []
        for __, values in table.full_scan(snapshot, standby.txn_table):
            value = score(
                values[table.schema.column_index("n1")],
                values[table.schema.column_index("n2")],
            )
            if value is not None and value < 100.0:
                out.append((values[0], value))
        return out

    fast = materialised()
    assert fast.stats.imcus_used >= 1
    assert sorted(fast.rows) == sorted(per_row())

    t_fast = best_of(materialised, 15)
    t_slow = best_of(per_row, 15)
    save_report(
        "ablation_expressions",
        render_table(
            ["path", "wall time (ms)", "speedup"],
            [
                ["evaluate expression per row", t_slow * 1e3, 1.0],
                ["materialised In-Memory Expression", t_fast * 1e3,
                 t_slow / t_fast],
            ],
            title="Ablation: In-Memory Expression vs per-row evaluation "
                  f"({workload.config.n_rows} rows)",
        ),
    )
    assert t_slow / t_fast >= 5

    benchmark(materialised)
