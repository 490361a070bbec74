"""Workload definitions and the benchmark's own seeded load generator.

Everything the system is asked to do is generated here from ``--seed``
before the deployment exists, so a change to ``src/`` cannot change the
offered load: :func:`make_inputs` is a pure function of the workload spec
and the seed, and the client actors below only replay those inputs
through the public ``PrimaryDatabase`` / ``StandbyDatabase`` /
``QueryService`` API.

Clients are scheduler actors (the simulator runs one actor at a time, so
everything stays in one thread):

* :class:`OltpClient` -- one primary session replaying the DML/fetch
  stream open-loop at the workload's rate (one session, so no lock
  conflicts by construction);
* :class:`AdhocClient` -- closed-loop synchronous ``StandbyDatabase.query``
  calls (Q1 numeric-eq / Q2 varchar-eq of the paper's Table 1) with a
  fixed think time;
* :class:`DashboardClient` -- closed-loop clients re-submitting a small
  fixed set of predicate/projection queries through ``QueryService``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

from repro.common.errors import ReproError
from repro.db.schema_def import ColumnDef, PartitionScheme, TableDef
from repro.imcs.scan import Predicate
from repro.sim.scheduler import Actor

TABLE = "BENCH_T"
#: Sim seconds a dashboard client waits before polling its handle again.
POLL_S = 1e-4
#: Sim cost of submitting an asynchronous query (client side).
SUBMIT_S = 1e-5
#: Number domain of every NUMBER column.
NUMBER_DOMAIN = 10_000
#: Distinct values of every VARCHAR2 column (the paper workload's 50).
VARCHAR_CARDINALITY = 50


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload's generated inputs (the SystemConfig is
    shared by all workloads; README.md says why each workload exists)."""

    name: str
    n_rows: int
    n_number: int
    n_varchar: int
    rows_per_block: int
    #: Simulated seconds of the steady phase.
    duration: float
    #: Primary operations (DML + index fetches) per simulated second.
    ops_per_s: float
    p_update: float
    #: Insert share; the remainder of the DML stream is index fetches.
    p_insert: float
    #: DML statements per transaction, drawn uniformly from this range.
    txn_statements: tuple[int, int]
    #: Fraction of the loaded keys that are hot (0 = uniform updates).
    hot_key_frac: float
    #: Share of updates that hit a hot key.
    hot_update_frac: float
    #: Ad-hoc query think time (simulated seconds between queries).
    adhoc_interval: float
    #: Share of ad-hoc queries checked against the primary's CR.
    adhoc_check_frac: float
    dashboard_clients: int
    dashboard_queries: int
    dashboard_interval: float
    #: Primary operations per OltpClient step (pacing granularity).
    ops_per_step: int = 8


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # Fig. 9 mix on the paper's 101-column table: uniform updates push
        # every wide IMCU over the repopulation threshold (IMCU builds)
        WorkloadSpec(
            name="wide_update",
            n_rows=6_000, n_number=50, n_varchar=50, rows_per_block=50,
            duration=6.0, ops_per_s=600.0, p_update=0.70, p_insert=0.0,
            txn_statements=(1, 2), hot_key_frac=0.0, hot_update_frac=0.0,
            adhoc_interval=6.0 / 1100, adhoc_check_frac=0.01,
            dashboard_clients=1, dashboard_queries=16,
            dashboard_interval=0.005,
        ),
        # narrow table at the paper's 4,000 ops/s, hot-key skew: the redo
        # path and primary DML, with little population
        WorkloadSpec(
            name="hot_firehose",
            n_rows=25_000, n_number=4, n_varchar=3, rows_per_block=100,
            duration=4.0, ops_per_s=4000.0, p_update=0.60, p_insert=0.05,
            txn_statements=(1, 2), hot_key_frac=0.01, hot_update_frac=0.95,
            adhoc_interval=4.0 / 1100, adhoc_check_frac=0.01,
            dashboard_clients=1, dashboard_queries=4,
            dashboard_interval=0.0035,
        ),
        # light updates under heavy ad-hoc scans and repeating dashboard
        # queries: scan, query service and result cache
        WorkloadSpec(
            name="scan_dashboard",
            n_rows=20_000, n_number=50, n_varchar=50, rows_per_block=50,
            duration=11.0, ops_per_s=100.0, p_update=1.0, p_insert=0.0,
            txn_statements=(1, 1), hot_key_frac=0.0, hot_update_frac=0.0,
            adhoc_interval=11.0 / 1050, adhoc_check_frac=0.005,
            dashboard_clients=2, dashboard_queries=4,
            dashboard_interval=0.008, ops_per_step=1,
        ),
    )
}


# ----------------------------------------------------------------------
# generated inputs (pure functions of spec + seed)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Op:
    """One primary operation: ``kind`` is 'U' (update), 'I' (insert) or
    'F' (index fetch); ``commit`` ends the session's transaction."""

    kind: str
    key: int
    column: Optional[str] = None
    value: object = None
    row: Optional[tuple] = None
    commit: bool = False


@dataclass(frozen=True)
class Query:
    predicates: tuple[Predicate, ...]
    columns: Optional[tuple[str, ...]]
    check: bool = False


@dataclass(frozen=True)
class Inputs:
    rows: list[tuple]
    ops: list[Op]
    #: Sim seconds before each OltpClient step: a jittered grid (step k
    #: starts in [k, k+1) x the mean gap), so commits keep the workload's
    #: rate without phase-locking with the coordinator's fixed cadence.
    oltp_gaps: list[float]
    adhoc: list[Query]
    dashboard: list[Query]
    #: Per dashboard client, its successive think times (sim seconds).
    dashboard_think: list[list[float]]


def table_def(spec: WorkloadSpec) -> TableDef:
    columns = [ColumnDef.number("id", nullable=False)]
    columns += [ColumnDef.number(f"n{i}") for i in range(1, spec.n_number + 1)]
    columns += [
        ColumnDef.varchar(f"c{i}") for i in range(1, spec.n_varchar + 1)
    ]
    return TableDef(
        TABLE,
        tuple(columns),
        rows_per_block=spec.rows_per_block,
        scheme=PartitionScheme.single(),
        indexes=("id",),
    )


def _varchar(rng: random.Random) -> str:
    return f"s{rng.randrange(VARCHAR_CARDINALITY):05d}"


def _row(spec: WorkloadSpec, key: int, rng: random.Random) -> tuple:
    numbers = [
        float(rng.randrange(NUMBER_DOMAIN)) for __ in range(spec.n_number)
    ]
    strings = [_varchar(rng) for __ in range(spec.n_varchar)]
    return (key, *numbers, *strings)


def _ops(spec: WorkloadSpec, rng: random.Random) -> list[Op]:
    n_ops = round(spec.ops_per_s * spec.duration)
    n_hot = round(spec.n_rows * spec.hot_key_frac)
    # the hot keys are the most recently loaded ones (recent orders): one
    # contiguous range at a fixed place, so every seed hits the same IMCU
    # structure and only the choice of keys within it varies
    first_hot = spec.n_rows - n_hot
    committed = spec.n_rows  # keys visible to the session's next txn
    next_key = spec.n_rows
    remaining = 0  # statements left in the open transaction
    ops: list[Op] = []
    last_dml = -1
    for __ in range(n_ops):
        draw = rng.random()
        if draw >= spec.p_update + spec.p_insert:
            ops.append(Op("F", rng.randrange(committed)))
            continue
        if remaining == 0:
            remaining = rng.randint(*spec.txn_statements)
        remaining -= 1
        if draw < spec.p_update:
            if n_hot and rng.random() < spec.hot_update_frac:
                key = first_hot + rng.randrange(n_hot)
            else:
                key = rng.randrange(committed)
            if rng.random() < 0.5:
                column = f"n{rng.randrange(1, spec.n_number + 1)}"
                value: object = float(rng.randrange(NUMBER_DOMAIN))
            else:
                column = f"c{rng.randrange(1, spec.n_varchar + 1)}"
                value = _varchar(rng)
            op = Op("U", key, column, value, commit=remaining == 0)
        else:
            op = Op("I", next_key, row=_row(spec, next_key, rng),
                    commit=remaining == 0)
            next_key += 1
        if op.commit:
            committed = next_key
        last_dml = len(ops)
        ops.append(op)
    if remaining and last_dml >= 0:
        last = ops[last_dml]
        ops[last_dml] = Op(last.kind, last.key, last.column, last.value,
                           last.row, commit=True)
    return ops


def _adhoc(spec: WorkloadSpec, rng: random.Random) -> list[Query]:
    # enough queries for the whole steady phase even at zero latency
    n = int(spec.duration / spec.adhoc_interval) + 2
    out = []
    for i in range(n):
        # a fixed 80/20 Q1/Q2 pattern keeps each reported percentile
        # inside one mode: p50 in the Q1 (selective) cluster, p99 in the
        # Q2 (projection-heavy) cluster
        if i % 5 < 4:  # Q1: numeric equality
            predicate = Predicate.eq("n1", float(rng.randrange(NUMBER_DOMAIN)))
        else:  # Q2: varchar equality
            predicate = Predicate.eq("c1", _varchar(rng))
        out.append(Query((predicate,), None, rng.random() < spec.adhoc_check_frac))
    return out


def _dashboard(spec: WorkloadSpec, rng: random.Random) -> list[Query]:
    out = []
    for __ in range(spec.dashboard_queries):
        number = f"n{rng.randrange(1, spec.n_number + 1)}"
        varchar = f"c{rng.randrange(1, spec.n_varchar + 1)}"
        if rng.random() < 0.5:
            lo = float(rng.randrange(NUMBER_DOMAIN - 100))
            predicate = Predicate.between(number, lo, lo + 100.0)
        else:
            predicate = Predicate.eq(varchar, _varchar(rng))
        out.append(Query((predicate,), ("id", number, varchar)))
    return out


def _oltp_gaps(spec: WorkloadSpec, n_ops: int,
               rng: random.Random) -> list[float]:
    gap = spec.ops_per_step / spec.ops_per_s
    n_steps = -(-n_ops // spec.ops_per_step)
    starts = [(k + rng.random()) * gap for k in range(n_steps)]
    return [b - a for a, b in zip([0.0] + starts, starts)]


def _think_times(spec: WorkloadSpec, rng: random.Random) -> list[float]:
    # uniform in [0.5, 1.5] x the mean interval: jitter keeps clients from
    # phase-locking with the redo pacing, which would make the cache hit
    # share depend on the seed's phase rather than on the cache
    n = int(2 * spec.duration / spec.dashboard_interval) + 2
    return [spec.dashboard_interval * (0.5 + rng.random()) for __ in range(n)]


def make_inputs(spec: WorkloadSpec, seed: int) -> Inputs:
    """Every input of one workload run, from the seed alone."""

    def stream(part: str) -> random.Random:
        return random.Random(f"{seed}/{spec.name}/{part}")

    bulk = stream("bulk")
    ops = _ops(spec, stream("ops"))
    return Inputs(
        rows=[_row(spec, key, bulk) for key in range(spec.n_rows)],
        ops=ops,
        oltp_gaps=_oltp_gaps(spec, len(ops), stream("pacing")),
        adhoc=_adhoc(spec, stream("adhoc")),
        dashboard=_dashboard(spec, stream("dashboard")),
        dashboard_think=[
            _think_times(spec, stream(f"think{i}"))
            for i in range(spec.dashboard_clients)
        ],
    )


# ----------------------------------------------------------------------
# client actors
# ----------------------------------------------------------------------
class Recorder:
    """What the clients observed in one round.

    ``check(scn, query, rows)`` compares rows against the primary's
    consistent read; the harness supplies it and times it separately.
    ``clock()`` is the round's wall clock, read before every ad-hoc query.
    """

    def __init__(self, check: Callable[[int, Query, list], bool],
                 clock: Callable[[], float] = perf_counter) -> None:
        self.check = check
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.ops_issued = 0
        self.commits = 0
        self.adhoc_wall_s: list[float] = []
        #: ``clock()`` when each ad-hoc query started.
        self.adhoc_at: list[float] = []
        self.adhoc_sim_s: list[float] = []
        self.service_sim_s: list[float] = []
        self.lag_sim_s: list[float] = []
        #: (commit SCN, sim time) of commits not yet covered by a QuerySCN.
        self.unpublished: deque[tuple[int, float]] = deque()

    def on_published(self, scn: int, now: float) -> None:
        pending = self.unpublished
        while pending and pending[0][0] <= scn:
            self.lag_sim_s.append(now - pending.popleft()[1])

    def record_query(self, scn: int, query: Query, rows: list) -> None:
        if query.check and not self.check(scn, query, rows):
            self.failed += 1


class OltpClient(Actor):
    """One primary session replaying the op stream open-loop."""

    name = "bench-oltp"

    def __init__(self, deployment, inputs: Inputs, rowids: list,
                 spec: WorkloadSpec, recorder: Recorder) -> None:
        self.deployment = deployment
        self.ops = inputs.ops
        self.gaps = inputs.oltp_gaps
        self.rowids = rowids
        self.recorder = recorder
        self.batch = spec.ops_per_step
        self.steps = 0
        self.txn = None

    def _execute(self, op: Op, now: float) -> None:
        primary = self.deployment.primary
        if op.kind == "F":
            row = primary.index_fetch(TABLE, "id", op.key)
            if row is None or row[0] != op.key:
                self.recorder.failed += 1
            return
        if self.txn is None:
            self.txn = primary.begin()
        if op.kind == "U":
            primary.update(self.txn, TABLE, self.rowids[op.key],
                           {op.column: op.value})
        else:
            self.rowids.append(primary.insert(self.txn, TABLE, op.row))
        if op.commit:
            self.commit(now)

    def commit(self, now: float) -> None:
        if self.txn is None:
            return
        scn = self.deployment.primary.commit(self.txn)
        self.txn = None
        self.recorder.commits += 1
        self.recorder.unpublished.append((scn, now))

    def step(self, sched) -> Optional[float]:
        # step 0 only waits out the first gap; step k > 0 runs batch k-1
        steps = self.steps
        if steps > len(self.gaps):
            return None
        self.steps += 1
        if steps:
            recorder = self.recorder
            now = sched.now
            lo = (steps - 1) * self.batch
            for op in self.ops[lo:lo + self.batch]:
                recorder.attempted += 1
                recorder.ops_issued += 1
                try:
                    self._execute(op, now)
                except ReproError:
                    recorder.failed += 1
        return self.gaps[steps] if steps < len(self.gaps) else None


class AdhocClient(Actor):
    """Synchronous ad-hoc scans on the standby, closed loop."""

    name = "bench-adhoc"

    def __init__(self, deployment, queries: list[Query], interval: float,
                 recorder: Recorder) -> None:
        self.standby = deployment.standby
        self.queries = queries
        self.interval = interval
        self.recorder = recorder
        self.pos = 0

    def step(self, sched) -> Optional[float]:
        if self.pos >= len(self.queries):
            return None
        query = self.queries[self.pos]
        self.pos += 1
        recorder = self.recorder
        recorder.attempted += 1
        scn = self.standby.query_scn.value
        at = recorder.clock()
        start = perf_counter()
        try:
            result = self.standby.query(TABLE, list(query.predicates))
        except ReproError:
            recorder.failed += 1
            return self.interval
        recorder.adhoc_wall_s.append(perf_counter() - start)
        recorder.adhoc_at.append(at)
        cost = result.stats.cost_seconds
        recorder.adhoc_sim_s.append(cost)
        recorder.record_query(scn, query, result.rows)
        return max(cost, self.interval)


class DashboardClient(Actor):
    """Re-submits a fixed query set through the QueryService, closed loop."""

    def __init__(self, index: int, service, queries: list[Query],
                 think: list[float], recorder: Recorder) -> None:
        self.name = f"bench-dashboard-{index}"
        self.service = service
        self.queries = queries
        self.think = iter(think)
        self.recorder = recorder
        self.next = index % len(queries)
        self.pending = None  # (handle, query) while a query is in flight
        #: Set at the end of the steady phase: finish in-flight queries,
        #: submit no new ones.
        self.stopped = False

    def _finish(self, handle, query: Query) -> None:
        result = handle.result
        latency = (
            result.stats.cost_seconds if handle.cached
            else handle.pending.elapsed
        )
        self.recorder.service_sim_s.append(latency)
        self.recorder.record_query(handle.scn, query, result.rows)

    def step(self, sched) -> Optional[float]:
        if self.pending is not None:
            handle, query = self.pending
            if not handle.done:
                return POLL_S
            self.pending = None
            self._finish(handle, query)
            return next(self.think)
        if self.stopped:
            return None
        query = self.queries[self.next]
        self.next = (self.next + 1) % len(self.queries)
        self.recorder.attempted += 1
        try:
            handle = self.service.submit(
                TABLE, list(query.predicates), list(query.columns)
            )
        except ReproError:
            self.recorder.failed += 1
            return next(self.think)
        if handle.done:
            self._finish(handle, query)
            return next(self.think)
        self.pending = (handle, query)
        return SUBMIT_S
