"""Deployment: a primary cluster + physical standby, wired and scheduled.

This is the top of the public API:

    from repro.db import Deployment, TableDef, ColumnDef, InMemoryService

    deployment = Deployment.build()
    deployment.create_table(TableDef("T", (ColumnDef.number("id"), ...)))
    deployment.enable_inmemory("T", service=InMemoryService.STANDBY)
    ...DML on deployment.primary...
    deployment.catch_up()
    result = deployment.standby.query("T", [Predicate.eq("n1", 5)])

The in-memory *service* decides where partitions populate (paper, Fig. 2):
``PRIMARY`` / ``STANDBY`` / ``BOTH``.  Whatever the choice, the primary is
told about standby enablement so its commit records carry the section
III-E flag.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro import obs
from repro.common.config import SystemConfig
from repro.redo.shipping import LogShipper
from repro.sim.scheduler import Scheduler
from repro.db.primary import PrimaryDatabase
from repro.db.schema_def import TableDef
from repro.db.standby import StandbyDatabase
from repro.rowstore.table import Table


class InMemoryService(enum.Enum):
    """Which databases populate an object into their IMCS."""

    PRIMARY = "primary"
    STANDBY = "standby"
    BOTH = "both"


class Deployment:
    """A primary + standby pair sharing one deterministic scheduler."""

    def __init__(
        self,
        primary: PrimaryDatabase,
        standby: StandbyDatabase,
        sched: Scheduler,
        config: SystemConfig,
    ) -> None:
        self.primary = primary
        self.standby = standby
        self.sched = sched
        self.config = config
        #: Optional SIRA standby RAC (see add_standby_cluster).
        self.standby_cluster = None
        #: Optional query service layer (see start_query_service).
        self.query_service = None
        #: Optional CDC egress (see start_cdc).
        self.cdc = None
        #: The metrics registry that was collecting while the pipeline was
        #: constructed (None outside ``obs.collecting``); its ``tracer``
        #: stamps redo through the lifecycle stages.
        self.obs = obs.current()

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: Optional[SystemConfig] = None,
        dbim_on_adg: bool = True,
        heartbeats: bool = True,
    ) -> "Deployment":
        """Construct and wire a fresh deployment."""
        config = config or SystemConfig()
        sched = Scheduler(seed=config.seed, jitter=0.05)
        registry = obs.current()
        if registry is not None and registry.tracer is None:
            # arm the redo-lifecycle tracer before any component (or
            # redo record) exists, so stage stamps start at generation
            registry.tracer = obs.RedoLifecycleTracer(sched, registry)
        primary = PrimaryDatabase(config)
        standby = StandbyDatabase(config, dbim_enabled=dbim_on_adg)

        def fal_fetch(thread, lo, hi):
            # Fetch Archive Log: the standby pulls an archive gap straight
            # from the primary's (never-recycled) log files.
            log = primary.redo_logs[thread - 1]
            return [log.record_at(i) for i in range(lo, hi)]

        standby.receiver.fal_fetch = fal_fetch
        for log in primary.redo_logs:
            sched.add_actor(
                LogShipper(
                    log,
                    standby.receiver,
                    latency=config.ship_latency,
                    node=primary.instances[log.thread - 1].node,
                )
            )
        primary.attach_actors(sched, heartbeats=heartbeats)
        standby.attach_actors(sched)
        # undo retention: bound version-chain growth on both databases
        from repro.rowstore.undo_retention import UndoRetentionManager

        keep = config.rowstore.undo_retention_versions
        sched.add_actor(UndoRetentionManager(
            primary.block_store, keep, name="primary-undo-retention",
            node=primary.instances[0].node,
        ))
        sched.add_actor(UndoRetentionManager(
            standby.block_store, keep, name="standby-undo-retention",
            node=standby.node,
        ))
        return cls(primary, standby, sched, config)

    def add_standby_cluster(self, n_instances: int = 2):
        """Scale the standby out to a SIRA RAC (paper, III-F).

        The existing standby becomes the apply master; ``n_instances - 1``
        satellites host remotely-homed IMCUs and local coordinators.
        Call before enabling objects in-memory on the standby.
        """
        from repro.rac.cluster import StandbyCluster

        self.standby_cluster = StandbyCluster(
            self.standby, self.sched, n_instances=n_instances,
            config=self.config,
        )
        self.standby_cluster.attach_actors(self.sched)
        return self.standby_cluster

    # ------------------------------------------------------------------
    # query service + routing liveness
    # ------------------------------------------------------------------
    @property
    def standby_mounted(self) -> bool:
        """Whether the standby is still serving: its recovery coordinator
        is scheduled.  ``failover()`` removes it, which flips
        PRIMARY_AND_STANDBY routing back to the (new) primary."""
        return self.standby.coordinator in self.sched.actors

    def start_query_service(
        self,
        n_workers: int = 4,
        cache_capacity: int = 256,
        enable_cache: bool = True,
        parallel_backend: str = "sim",
    ):
        """Attach a morsel-parallel query service to the standby.

        ``parallel_backend="process"`` executes columnar morsels in real
        OS processes over shared-memory CU buffers (see
        :mod:`repro.query.parallel`); the default ``"sim"`` stays on the
        deterministic virtual clock.
        """
        from repro.query.service import QueryService

        self.query_service = QueryService(
            self.standby, self.sched,
            n_workers=n_workers,
            cache_capacity=cache_capacity,
            enable_cache=enable_cache,
            parallel_backend=parallel_backend,
        )
        return self.query_service

    # ------------------------------------------------------------------
    # CDC egress (repro.cdc)
    # ------------------------------------------------------------------
    def start_cdc(
        self,
        tables: Optional[list[str]] = None,
        backfill: bool = True,
        pump_batch: int = 64,
    ):
        """Attach a CDC egress + pump to the standby.

        ``tables`` must already be in-memory enabled on the standby
        (mining only journals IMCS-enabled objects, so the feed covers
        exactly those).  Returns the :class:`~repro.cdc.egress.CDCEgress`;
        attach subscribers with ``egress.subscribe(...)``.
        """
        from repro.cdc import CDCEgress, CDCPump

        egress = CDCEgress(self.standby, self.sched)
        for name in tables or []:
            egress.capture(name, backfill=backfill)
        self.sched.add_actor(
            CDCPump(egress, batch=pump_batch, node=self.standby.node)
        )
        self.cdc = egress
        return egress

    # ------------------------------------------------------------------
    # instant restart (repro.restart)
    # ------------------------------------------------------------------
    def enable_restart_checkpoints(self):
        """Arm instant restart: schedule a background checkpoint writer
        and give the standby a redo-tail fetch over the primary's logs
        (the same never-recycled archive the FAL path reads).

        Returns the :class:`~repro.restart.checkpoint.CheckpointStore`.
        """
        from repro.restart.checkpoint import CheckpointStore, CheckpointWriter

        restart_cfg = self.config.restart
        store = CheckpointStore(keep_versions=restart_cfg.keep_versions)
        primary_logs = self.primary.redo_logs

        def redo_tail_fetch(lo_scn, hi_scn):
            tail = []
            for log in primary_logs:
                for record in log.records_from(0):
                    if record.scn > hi_scn:
                        break
                    if record.scn >= lo_scn:
                        tail.append(record)
            tail.sort(key=lambda record: record.scn)
            return tail

        self.standby.enable_restart_checkpoints(store, redo_tail_fetch)
        self.sched.add_actor(
            CheckpointWriter(
                self.standby,
                store,
                interval=restart_cfg.checkpoint_interval,
                node=self.standby.node,
            )
        )
        return store

    def restart_standby(self, cold: bool = False):
        """Bounce the standby and return its restart report."""
        self.standby.restart(cold=cold)
        return self.standby.last_restart_report

    # ------------------------------------------------------------------
    # schema + in-memory management
    # ------------------------------------------------------------------
    def create_table(self, table_def: TableDef) -> Table:
        """Create on the primary; the standby materialises it from the
        create-table redo marker."""
        return self.primary.create_table(table_def)

    def enable_inmemory(
        self,
        table_name: str,
        service: InMemoryService = InMemoryService.BOTH,
        partition: Optional[str] = None,
        columns: Optional[list[str]] = None,
    ) -> None:
        if service in (InMemoryService.PRIMARY, InMemoryService.BOTH):
            self.primary.enable_inmemory(table_name, partition, columns)
        if service in (InMemoryService.STANDBY, InMemoryService.BOTH):
            # the standby's dictionary learns about new tables via redo:
            # make sure the marker has been applied first
            self.run_until_standby_has(table_name)
            if self.standby_cluster is not None:
                object_ids = self.standby_cluster.enable_inmemory(
                    table_name, partition, columns
                )
            else:
                object_ids = self.standby.enable_inmemory(
                    table_name, partition, columns
                )
            self.primary.note_standby_enablement(object_ids)

    # ------------------------------------------------------------------
    # simulation control
    # ------------------------------------------------------------------
    def run(self, duration: float) -> None:
        self.sched.run_for(duration)

    def run_until_standby_has(self, table_name: str, timeout: float = 60.0) -> None:
        ok = self.sched.run_until_condition(
            lambda: table_name in self.standby.catalog, max_time=timeout
        )
        if not ok:
            raise TimeoutError(
                f"standby never received table {table_name!r}"
            )

    def catch_up(self, timeout: float = 600.0) -> None:
        """Run until the standby's QuerySCN covers all primary redo
        generated so far and population backlogs are drained."""
        target = self.primary.clock.current

        def caught_up() -> bool:
            if self.standby.query_scn.value < target:
                return False
            if not self.primary.population.fully_populated():
                return False
            if self.standby_cluster is not None:
                return self.standby_cluster.fully_populated() and all(
                    s.query_scn.value >= target
                    for s in self.standby_cluster.satellites
                )
            return self.standby.population.fully_populated()

        if not self.sched.run_until_condition(caught_up, max_time=timeout):
            raise TimeoutError(
                f"standby lagging: QuerySCN {self.standby.query_scn.value} "
                f"< {target} after {timeout}s"
            )

    # ------------------------------------------------------------------
    # lag metric (Fig. 11)
    # ------------------------------------------------------------------
    @property
    def redo_lag_scns(self) -> int:
        """How far the published QuerySCN trails primary redo generation."""
        newest = max(log.last_scn for log in self.primary.redo_logs)
        return max(0, newest - self.standby.query_scn.value)
