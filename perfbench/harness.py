"""One benchmark round: set up, run the steady phase, check, measure.

A round builds a fresh deployment, bulk-loads the workload's table,
enables it in-memory on the standby and catches up until it is fully
populated (``setup_s``), then runs the clients for the workload's
simulated duration and catches up again (the steady phase behind
``pipeline_ops_per_s``).  Correctness is checked on every round:

* a seeded sample of in-run ad-hoc queries against the primary's
  consistent read at the query's SCN (time spent checking is kept out of
  every timed figure);
* every commit must be covered by a published QuerySCN after catch-up;
* the golden invariant after catch-up -- a standby scan at the published
  QuerySCN equals the primary's consistent read at that SCN.  A mismatch
  raises :class:`GoldenMismatch`.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from calibration import Calibration
from load import (
    TABLE,
    AdhocClient,
    DashboardClient,
    Inputs,
    OltpClient,
    Query,
    Recorder,
    WorkloadSpec,
    table_def,
)
from repro.common.config import ApplyConfig, IMCSConfig, SystemConfig
from repro.db.deployment import Deployment, InMemoryService
from tracing import Tracer

#: Rows per bulk-load transaction.
LOAD_BATCH = 500
#: Simulated seconds allowed for any catch-up.
CATCH_UP_TIMEOUT = 600.0


class GoldenMismatch(Exception):
    """The standby's scan at its QuerySCN differs from the primary's CR."""


def system_config() -> SystemConfig:
    """The one configuration every workload runs on."""
    return SystemConfig(
        imcs=IMCSConfig(
            imcu_target_rows=1024,
            population_workers=2,
            repopulate_invalid_fraction=0.02,
            repopulate_min_interval=0.1,
        ),
        apply=ApplyConfig(n_workers=4),
    )


@dataclass
class Round:
    """Everything measured in one round.

    ``*_ref_s`` figures are the same wall times in reference seconds
    (calibration.py); a traced round is not rescaled, so there they equal
    the wall figures.
    """

    setup_s: float
    steady_s: float
    recorder: Recorder
    check_s: float
    setup_ref_s: float = 0.0
    steady_ref_s: float = 0.0
    #: Wall time of each ad-hoc query, in reference seconds.
    adhoc_ref_s: list[float] = field(default_factory=list)
    sim_end: float = 0.0
    quiesce_retries: int = 0
    tracer: Optional[Tracer] = None

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.steady_s

    def sim_signature(self) -> tuple:
        """Modeled results and counts that must repeat exactly per seed."""
        rec = self.recorder
        return (
            rec.ops_issued, rec.commits, rec.attempted, rec.failed,
            tuple(rec.adhoc_sim_s), tuple(rec.service_sim_s),
            tuple(rec.lag_sim_s), self.sim_end,
        )


class _Checker:
    """Primary consistent-read oracle, timed apart from everything else."""

    def __init__(self, deployment: Deployment,
                 tracer: Optional[Tracer]) -> None:
        self.deployment = deployment
        self.tracer = tracer
        self.seconds = 0.0

    def _expected(self, scn: int, query: Query) -> list:
        primary = self.deployment.primary
        table = primary.catalog.table(TABLE)
        schema = table.schema
        tests = [
            (schema.column_index(p.column), p) for p in query.predicates
        ]
        names = query.columns or [c.name for c in schema.live_columns]
        picks = [schema.column_index(name) for name in names]
        return sorted(
            tuple(values[i] for i in picks)
            for __, values in table.full_scan(scn, primary.txn_table)
            if all(p.matches(values[i]) for i, p in tests)
        )

    @contextmanager
    def timed(self):
        start = perf_counter()
        span = self.tracer.span("bench.check") if self.tracer else nullcontext()
        try:
            with span:
                yield
        finally:
            self.seconds += perf_counter() - start

    def matches(self, scn: int, query: Query, rows: list) -> bool:
        with self.timed():
            return sorted(rows) == self._expected(scn, query)

    def golden(self) -> None:
        """Standby full scan at its QuerySCN == primary CR at that SCN."""
        standby = self.deployment.standby
        with self.timed():
            scn = standby.query_scn.value
            rows = standby.query(TABLE).rows
            if sorted(rows) != self._expected(scn, Query((), None)):
                raise GoldenMismatch(
                    f"standby scan at QuerySCN {scn} differs from the "
                    f"primary's consistent read ({len(rows)} standby rows)"
                )


class _Timeline:
    """A round's wall clock, less the time spent checking and calibrating.

    When calibrating, every reading may first take a kernel sample, and
    the clock is read at every scheduler step (:meth:`watch`), so the
    samples follow the round wherever its time goes.
    """

    def __init__(self, calibrate: bool) -> None:
        self.calibration = Calibration()
        self.calibrate = calibrate
        self.checker: Optional[_Checker] = None
        self._watched: set[int] = set()

    def now(self) -> float:
        checked = self.checker.seconds if self.checker else 0.0
        return perf_counter() - checked - self.calibration.seconds

    def __call__(self) -> float:
        if self.calibrate:
            self.calibration.tick(self.now())
        return self.now()

    def watch(self, sched) -> None:
        """Read the clock before every step of ``sched``'s actors;
        idempotent, so call it again after adding actors."""
        if not self.calibrate:
            return
        for actor in sched.actors:
            if id(actor) in self._watched:
                continue
            self._watched.add(id(actor))
            step = actor.step

            def ticking(sched, step=step):
                self()
                return step(sched)

            actor.step = ticking

    def reference_s(self, start: float, end: float) -> float:
        """Timeline stretch ``[start, end]`` in reference seconds (its
        wall seconds when not calibrating)."""
        if not self.calibrate:
            return end - start
        return self.calibration.rescale(start, end)

    def reference_at(self, wall_s: float, at: float) -> float:
        """``wall_s`` spent at timeline point ``at``, in reference seconds."""
        if not self.calibrate:
            return wall_s
        return wall_s * self.calibration.scale(at)


def run_round(spec: WorkloadSpec, inputs: Inputs,
              tracer: Optional[Tracer] = None) -> Round:
    """Run one round of ``spec`` on ``inputs``; traced when ``tracer``."""
    gc.collect()
    builds = tracer.imcu_builds() if tracer else nullcontext()
    with builds:
        return _run_round(spec, inputs, tracer)


def time_setup(spec: WorkloadSpec, inputs: Inputs) -> float:
    """Reference seconds of one more set-up alone (``setup_s`` samples)."""
    gc.collect()
    timeline = _Timeline(calibrate=True)
    start = timeline()
    _setup(spec, inputs, None, timeline)
    return timeline.reference_s(start, timeline())


def _setup(spec: WorkloadSpec, inputs: Inputs, tracer: Optional[Tracer],
           timeline: _Timeline) -> tuple[Deployment, list]:
    """Build, create, bulk-load, enable in-memory, catch up; returns the
    deployment and the rowid of every loaded key."""
    deployment = Deployment.build(config=system_config())
    if tracer:
        tracer.instrument(deployment)
    timeline.watch(deployment.sched)
    primary = deployment.primary
    deployment.create_table(table_def(spec))
    rowids = []
    for lo in range(0, spec.n_rows, LOAD_BATCH):
        timeline()
        txn = primary.begin()
        for row in inputs.rows[lo:lo + LOAD_BATCH]:
            rowids.append(primary.insert(txn, TABLE, row))
        primary.commit(txn)
    deployment.enable_inmemory(TABLE, service=InMemoryService.STANDBY)
    deployment.catch_up(timeout=CATCH_UP_TIMEOUT)
    return deployment, rowids


def _run_round(spec: WorkloadSpec, inputs: Inputs,
               tracer: Optional[Tracer]) -> Round:
    clock = _Timeline(calibrate=tracer is None)
    setup_start = clock()
    deployment, rowids = _setup(spec, inputs, tracer, clock)
    setup_end = clock()

    # -- steady phase ------------------------------------------------------
    checker = clock.checker = _Checker(deployment, tracer)
    steady_start = clock()
    recorder = Recorder(checker.matches, clock)
    sched = deployment.sched
    service = deployment.start_query_service()
    standby = deployment.standby
    standby.query_scn.subscribe(
        lambda scn: recorder.on_published(scn, sched.now)
    )
    oltp = OltpClient(deployment, inputs, rowids, spec, recorder)
    adhoc = AdhocClient(deployment, inputs.adhoc, spec.adhoc_interval,
                        recorder)
    dashboards = [
        DashboardClient(i, service, inputs.dashboard, think, recorder)
        for i, think in enumerate(inputs.dashboard_think)
    ]
    clients = [oltp, adhoc, *dashboards]
    for client in clients:
        sched.add_actor(client)
    if tracer:
        tracer.instrument(deployment)
    clock.watch(sched)
    deployment.run(spec.duration)
    for client in dashboards:
        client.stopped = True
    if not sched.run_until_condition(
        lambda: all(c.pending is None for c in dashboards),
        max_time=CATCH_UP_TIMEOUT,
    ):
        raise TimeoutError("dashboard queries did not complete")
    for client in clients:
        sched.remove_actor(client)
    oltp.commit(sched.now)
    deployment.catch_up(timeout=CATCH_UP_TIMEOUT)
    # commits that no published QuerySCN covers are lost writes
    recorder.failed += len(recorder.unpublished)
    checker.golden()
    steady_end = clock()
    return Round(
        setup_s=setup_end - setup_start,
        steady_s=steady_end - steady_start,
        recorder=recorder,
        check_s=checker.seconds,
        setup_ref_s=clock.reference_s(setup_start, setup_end),
        steady_ref_s=clock.reference_s(steady_start, steady_end),
        adhoc_ref_s=[
            clock.reference_at(wall_s, at) for wall_s, at in
            zip(recorder.adhoc_wall_s, recorder.adhoc_at)
        ],
        sim_end=sched.now,
        quiesce_retries=standby.population.quiesce_retries,
        tracer=tracer,
    )

