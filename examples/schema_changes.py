"""Schema changes under DBIM-on-ADG (paper, section III-G).

DDL on the primary reaches the standby two ways at once: the physical
change replays through ordinary redo apply, and a *redo marker* tells the
DBIM-on-ADG mining component that the object's definition changed so its
IMCUs must be dropped at the next QuerySCN advancement (and repopulated
against the new definition).

This example walks through DROP COLUMN, TRUNCATE and DROP TABLE.

Run:  python examples/schema_changes.py
"""

from repro.db import ColumnDef, Deployment, InMemoryService, TableDef
from repro.imcs import Predicate


def populated_deployment():
    deployment = Deployment.build()
    deployment.create_table(
        TableDef(
            "EVENTS",
            (
                ColumnDef.number("event_id", nullable=False),
                ColumnDef.number("payload_size"),
                ColumnDef.varchar("kind"),
                ColumnDef.varchar("legacy_tag"),
            ),
            indexes=("event_id",),
        )
    )
    primary = deployment.primary
    txn = primary.begin()
    for i in range(600):
        primary.insert(
            txn, "EVENTS",
            (i, float(i % 97), f"kind{i % 4}", f"legacy{i % 9}"),
        )
    primary.commit(txn)
    deployment.enable_inmemory("EVENTS", service=InMemoryService.STANDBY)
    deployment.catch_up()
    return deployment


def main() -> None:
    deployment = populated_deployment()
    primary, standby = deployment.primary, deployment.standby

    oid = standby.catalog.table("EVENTS").object_ids[0]
    units_before = len(standby.imcs.segment(oid).live_units())
    print(f"standby IMCUs before DDL: {units_before}")

    print("\n== DROP COLUMN legacy_tag (dictionary-only on the primary) ==")
    primary.drop_column("EVENTS", "legacy_tag")
    deployment.catch_up()
    assert standby.catalog.table("EVENTS").schema.is_dropped("legacy_tag")
    result = standby.query("EVENTS", [Predicate.eq("kind", "kind2")])
    widths = {len(row) for row in result.rows}
    print(f"   standby rows now have {widths} columns "
          f"(IMCUs used: {result.stats.imcus_used})")
    assert widths == {3}
    assert result.stats.imcus_used >= 1  # repopulated without the column
    print(f"   DDL markers processed on the standby: "
          f"{standby.flush.ddl_processed.value}")

    print("\n== TRUNCATE ==")
    primary.truncate_table("EVENTS")
    deployment.catch_up()
    assert standby.query("EVENTS").rows == []
    print("   standby sees an empty table")

    txn = primary.begin()
    for i in range(50):
        primary.insert(txn, "EVENTS", (10_000 + i, 1.0, "fresh", None))
    primary.commit(txn)
    deployment.catch_up()
    fresh = standby.query("EVENTS")
    print(f"   reloaded after truncate: {len(fresh.rows)} rows on the standby")
    assert len(fresh.rows) == 50

    print("\n== DROP TABLE ==")
    primary.drop_table("EVENTS")
    deployment.run(1.0)
    assert "EVENTS" not in standby.catalog
    print("   table gone from the standby's dictionary")
    print("schema changes OK")


if __name__ == "__main__":
    main()
