"""Parallel redo apply: distributor and recovery workers.

"Redo apply is massively parallelized for Oracle ADG by distributing the
SCN-ordered set of CVs amongst recovery worker processes based on a
hashing scheme.  Each DBA is hashed to a particular recovery worker
identifier, so a recovery worker process can independently process the CVs
it has been assigned, and apply the CVs to database blocks in the SCN
order" (paper, II-A, Fig. 3).

Merged redo arrives as columnar :class:`~repro.redo.batch.CVBatch` runs;
each worker's share of one batch is a single :class:`CVChunk` on its
queue.  Two DBIM-on-ADG hooks attach here, exactly where the paper puts
them:

* a **batch sniffer** (the Mining Component) mines each chunk before any
  of it is applied; a sniff can fail on a journal bucket-latch miss, in
  which case the worker stops its batch and retries the chunk (keeping
  its partial progress) on its next step -- the spinning behaviour whose
  cost the journal's sizing is designed to avoid;
* a **flush helper** lets workers participate in cooperative invalidation
  flush: each step first drains a batch of worklink nodes if a worklink
  exists, then returns to redo apply (paper, III-D-2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional, Protocol

import numpy as np

from repro import obs
from repro.chaos import sites
from repro.common.ids import WorkerId
from repro.common.scn import NULL_SCN, SCN
from repro.redo.batch import OP_CODE, CVBatch, CVChunk
from repro.redo.records import ChangeVector, CVOp
from repro.sim.cpu import CpuNode
from repro.sim.scheduler import Actor, Scheduler

#: Simulated CPU seconds to apply one change vector.
APPLY_COST_PER_CV = 1e-6


class ApplyStall(Exception):
    """Raised by an applier when a CV cannot be applied *yet* -- e.g. a
    data CV for a table whose create-table marker is still queued on
    another worker.  The worker keeps the CV at its queue head and retries
    on its next step; cross-worker SCN progress resolves the dependency."""


class CVApplier(Protocol):
    """What a standby database must provide to recovery workers."""

    def apply_cv(self, cv: ChangeVector, scn: SCN) -> None:
        ...


#: Batch sniffer signature: (chunk, worker_id, owner) -> True once the
#: whole chunk is mined, False on a latch miss (partial progress is kept
#: on the chunk; the worker retries next step).
BatchSniffer = Callable[[CVChunk, WorkerId, object], bool]

#: Flush helper signature: (worker_id, batch) -> nodes flushed this call;
#: -1 when a worklink exists but draining is blocked (the worker is
#: *waiting* on the flush, accounted separately from flush work).
FlushHelper = Callable[[WorkerId, int], int]


class ApplyDistributor:
    """Hashes the CVs of merged batches onto per-worker queues.

    The paper's ``hash(dba) % n_workers`` routing is evaluated as one
    vectorized modulo over a batch's dba array, and each worker receives
    a single :class:`CVChunk` per batch.
    """

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("need at least one recovery worker")
        self.n_workers = n_workers
        self.queues: list[deque[CVChunk]] = [
            deque() for __ in range(n_workers)
        ]
        #: Highest SCN fully handed out to the queues.
        self.distributed_through: SCN = NULL_SCN
        #: CVs per distributed columnar batch.
        self._batch_cvs = obs.histogram("adg.apply.batch_cvs")

    def _workers_for_dbas(self, dbas: np.ndarray) -> np.ndarray:
        """``hash(dba) % n_workers`` over an array: CPython's hash of an
        int64-range int is the int itself except hash(-1) == -2."""
        return np.where(dbas == -1, -2, dbas) % self.n_workers

    def distribute(self, batches: list[CVBatch]) -> int:
        """Route every CV of the batches; returns the CV count."""
        routed = 0
        for batch in batches:
            routed += self._distribute_batch(batch)
            if batch.n_records and batch.last_scn > self.distributed_through:
                self.distributed_through = batch.last_scn
        return routed

    def _distribute_batch(self, batch: CVBatch) -> int:
        return self._enqueue(batch, np.arange(batch.n_cvs, dtype=np.int64))

    def _enqueue(self, batch: CVBatch, indices: np.ndarray) -> int:
        """Hash the batch's CVs at ``indices`` (ascending) onto the
        worker queues, one chunk per worker; returns the CV count."""
        n_cvs = int(indices.size)
        if not n_cvs:
            return 0
        if self.n_workers == 1:
            self.queues[0].append(CVChunk(batch, indices))
        else:
            workers = self._workers_for_dbas(batch.dbas[indices])
            order = np.argsort(workers, kind="stable")
            bounds = np.searchsorted(
                workers[order], np.arange(self.n_workers + 1)
            )
            for w in range(self.n_workers):
                lo, hi = int(bounds[w]), int(bounds[w + 1])
                if hi > lo:
                    # stable sort keeps SCN order within the worker
                    self.queues[w].append(
                        CVChunk(batch, indices[order[lo:hi]])
                    )
        self._batch_cvs.observe(n_cvs)
        return n_cvs

    def note_applied(self, cv: ChangeVector) -> None:
        """Hook invoked by a worker after applying one CV (dependency
        bookkeeping for subclasses; the static hash scheme needs none)."""

    def _queue_load(self, worker: WorkerId) -> int:
        """Pending CVs on one worker's queue."""
        return sum(len(chunk) for chunk in self.queues[worker])

    def pending(self) -> int:
        return sum(self._queue_load(w) for w in range(self.n_workers))

    def queued_cvs(self) -> Iterator[ChangeVector]:
        """Every still-queued (unapplied) ChangeVector, identity-
        preserving -- the instant-restart tail replay excludes these."""
        for queue in self.queues:
            for chunk in queue:
                yield from chunk.remaining_cvs()


class DependencyAwareDistributor(ApplyDistributor):
    """Routes CVs along a lightweight transaction dependency graph.

    Static DBA hashing (the base class) guarantees per-block SCN order by
    construction, but pays for it twice on cross-partition transactions:
    a data CV whose create-table marker hashed to another worker blocks in
    :class:`ApplyStall` retries until that worker catches up, and load
    imbalance leaves queues idle while one hash bucket backs up.

    This distributor keeps the same correctness invariant -- all CVs for
    one DBA apply in SCN order -- by tracking *writes-to-DBA edges*
    explicitly: a CV for a block with in-flight (queued, unapplied) CVs
    chains onto the owning worker's queue; an unencumbered CV goes to the
    least-loaded queue.  Object-creation edges are tracked the same way:
    while a create-table marker is queued, every CV touching its objects
    follows it onto the same worker, so the dictionary dependency that
    triggers ``ApplyStall`` under hashing is ordered away entirely.

    Workers report completions through :meth:`note_applied`; entries drop
    from the edge maps when their in-flight count reaches zero.
    """

    chained_cvs = obs.view("_chained_cvs")

    def __init__(self, n_workers: int) -> None:
        super().__init__(n_workers)
        #: DBA -> (owning worker, in-flight CV count).
        self._dba_owner: dict[int, list] = {}
        #: object_id -> (owning worker, in-flight creation-marker count).
        self._object_owner: dict[int, list] = {}
        self._chained_cvs = obs.counter("adg.distributor.chained_cvs")

    def _distribute_batch(self, batch: CVBatch) -> int:
        """Batch-wise dependency routing: one routing decision per
        *dba run* (all of a batch's CVs for one block).  Runs are
        processed in first-occurrence (SCN) order so DDL creation markers
        seed object owners before later runs consult them."""
        n_cvs = batch.n_cvs
        if not n_cvs:
            return 0
        dbas = batch.dbas
        ops = batch.ops
        cvs = batch.cvs
        order = np.argsort(dbas, kind="stable")
        sorted_dbas = dbas[order]
        is_run_start = np.empty(n_cvs, dtype=bool)
        is_run_start[0] = True
        np.not_equal(sorted_dbas[1:], sorted_dbas[:-1], out=is_run_start[1:])
        run_starts = np.nonzero(is_run_start)[0]
        run_ends = np.append(run_starts[1:], n_cvs)
        run_order = np.argsort(order[run_starts])
        loads = [self._queue_load(w) for w in range(self.n_workers)]
        per_worker: list[list[np.ndarray]] = [
            [] for __ in range(self.n_workers)
        ]
        ddl_code = OP_CODE[CVOp.DDL_MARKER]
        has_ddl = bool(np.any(ops == ddl_code))
        chained = 0
        for r in run_order:
            lo, hi = int(run_starts[r]), int(run_ends[r])
            positions = order[lo:hi]  # ascending: SCN order in the run
            count = hi - lo
            dba = int(sorted_dbas[lo])
            entry = self._dba_owner.get(dba)
            if entry is None:
                worker = None
                first_cv = cvs[int(positions[0])]
                if first_cv.is_data or first_cv.op is CVOp.TRUNCATE:
                    obj = self._object_owner.get(first_cv.object_id)
                    if obj is not None:
                        worker = obj[0]
                if worker is None:
                    worker = min(
                        range(self.n_workers), key=loads.__getitem__
                    )
                    chained += count - 1
                else:
                    chained += count
                entry = [worker, 0]
                self._dba_owner[dba] = entry
            else:
                chained += count
            entry[1] += count
            worker = entry[0]
            if has_ddl:
                for p in positions[ops[positions] == ddl_code]:
                    payload = cvs[int(p)].payload
                    if payload.kind == "create_table":
                        for object_id in payload.object_ids:
                            obj = self._object_owner.get(object_id)
                            if obj is None:
                                self._object_owner[object_id] = [worker, 1]
                            else:
                                obj[1] += 1
            loads[worker] += count
            per_worker[worker].append(positions)
        for w, runs in enumerate(per_worker):
            if runs:
                indices = np.sort(np.concatenate(runs))
                self.queues[w].append(CVChunk(batch, indices))
        if chained:
            self._chained_cvs.inc(chained)
        self._batch_cvs.observe(n_cvs)
        return n_cvs

    def note_applied(self, cv: ChangeVector) -> None:
        entry = self._dba_owner.get(cv.dba)
        if entry is not None:
            entry[1] -= 1
            if entry[1] <= 0:
                del self._dba_owner[cv.dba]
        if cv.op is CVOp.DDL_MARKER and cv.payload.kind == "create_table":
            for object_id in cv.payload.object_ids:
                obj = self._object_owner.get(object_id)
                if obj is not None:
                    obj[1] -= 1
                    if obj[1] <= 0:
                        del self._object_owner[object_id]


class RecoveryWorker(Actor):
    """One parallel-apply worker process."""

    cvs_applied = obs.view("_cvs_applied")
    sniff_retries = obs.view("_sniff_retries")
    apply_stalls = obs.view("_apply_stalls")
    #: Steps skipped by an installed chaos fault (injected slowness).
    chaos_stalls = obs.view("_chaos_stalls")
    #: Per-CV mining hook: always None, because mining runs per chunk
    #: through ``batch_sniffer``.  Kept so callers that probe both hook
    #: names still work.
    sniffer = None

    def __init__(
        self,
        worker_id: WorkerId,
        distributor: ApplyDistributor,
        applier: CVApplier,
        flush_helper: Optional[FlushHelper] = None,
        batch: int = 64,
        flush_batch: int = 8,
        node: Optional[CpuNode] = None,
        speed: float = 1.0,
        cost_per_cv: float = APPLY_COST_PER_CV,
        batch_sniffer: Optional[BatchSniffer] = None,
    ) -> None:
        self.worker_id = worker_id
        self.distributor = distributor
        self.applier = applier
        self.batch_sniffer = batch_sniffer
        #: Static dba routing needs no per-CV note_applied bookkeeping,
        #: so the chunk apply loop can skip the call entirely.
        self._static_routing = (
            type(distributor).note_applied is ApplyDistributor.note_applied
        )
        self.flush_helper = flush_helper
        self.batch = batch
        self.flush_batch = flush_batch
        self.cost_per_cv = cost_per_cv
        self.node = node
        self.speed = speed
        self.name = f"recovery-worker-{worker_id}"
        self._obs = obs.current()
        self._cvs_applied = obs.counter(
            "adg.worker.cvs_applied", worker=worker_id
        )
        self._sniff_retries = obs.counter(
            "adg.worker.sniff_retries", worker=worker_id
        )
        self._apply_stalls = obs.counter(
            "adg.worker.apply_stalls", worker=worker_id
        )
        self._chaos_stalls = obs.counter(
            "adg.worker.chaos_stalls", worker=worker_id
        )
        #: Simulated seconds spent *blocked* on the cooperative flush
        #: helper (worklink present but drain stalled) -- wait time, kept
        #: out of the coordinator's publish-latency accounting.
        self._coop_flush_wait = obs.histogram(
            "adg.apply.coop_flush_wait", worker=worker_id
        )
        #: Sim time when the current blocked-on-flush episode began, or
        #: None when not blocked.
        self._flush_blocked_since: Optional[float] = None
        self._chaos = sites.declare("adg.apply_worker", owner=self)
        #: SCN of the last CV this worker applied.
        self.applied_scn: SCN = NULL_SCN

    # ------------------------------------------------------------------
    def applied_through(self) -> SCN:
        """The SCN through which this worker is definitely caught up.

        With an empty queue the worker has applied everything distributed
        so far; otherwise everything strictly below its queue head.
        """
        queue = self.distributor.queues[self.worker_id]
        if not queue:
            return self.distributor.distributed_through
        return queue[0].head_scn - 1

    # ------------------------------------------------------------------
    def step(self, sched: Scheduler) -> Optional[float]:
        chaos = self._chaos
        if chaos.injectors is not None:
            decision = chaos.consult("step", worker=self.worker_id)
            if decision.action is sites.Action.STALL:
                # injected slowness: burn a step without doing any work
                self._chaos_stalls.inc()
                return self.cost_per_cv * self.batch
        cost = 0.0
        # 1. cooperative invalidation flush (paper, III-D-2): help drain
        #    the worklink before continuing redo apply.  -1 = worklink
        #    exists but the drain is blocked: the worker is waiting, not
        #    working, so the episode lands in coop_flush_wait rather than
        #    being charged to apply/publish latency.
        if self.flush_helper is not None:
            flushed = self.flush_helper(self.worker_id, self.flush_batch)
            if flushed < 0:
                if self._flush_blocked_since is None:
                    self._flush_blocked_since = sched.now
            else:
                if self._flush_blocked_since is not None:
                    self._coop_flush_wait.observe(
                        sched.now - self._flush_blocked_since
                    )
                    self._flush_blocked_since = None
                if flushed:
                    cost += self.cost_per_cv * flushed

        # 2. redo apply in SCN order from this worker's queue.
        queue = self.distributor.queues[self.worker_id]
        tracer = obs.tracer_of(self._obs)
        applied = 0
        while queue and applied < self.batch:
            chunk = queue[0]
            done, stop = self._apply_chunk_step(
                chunk, self.batch - applied, tracer
            )
            applied += done
            if not len(chunk):
                queue.popleft()
            if stop:
                break
        if applied:
            cost += self.cost_per_cv * applied
            self._cvs_applied.inc(applied)
        return cost if cost > 0 else None

    # ------------------------------------------------------------------
    def _apply_chunk_step(
        self, chunk: CVChunk, budget: int, tracer
    ) -> tuple[int, bool]:
        """Mine-then-apply up to ``budget`` CVs of the head chunk.

        The *whole* chunk is mined before any of it applies (the paper's
        sniff-then-apply, at chunk scale).  This is safe because
        the coordinator's consistency point never passes any worker's
        queue head, so early-mined commits cannot chop ahead of their
        data.  Returns ``(applied, stop)``; ``stop`` means a latch miss
        or apply stall ended this worker's step.
        """
        if not chunk.fully_mined:
            if self.batch_sniffer is None:
                chunk.mined_pos = len(chunk.indices)
            elif not self.batch_sniffer(chunk, self.worker_id, self):
                # bucket latch miss mid-chunk: partial progress is kept
                # on the chunk; retry next step.
                self._sniff_retries.inc()
                return 0, True
        indices = chunk.indices
        scns = chunk.batch.scns
        cvs = chunk.batch.cvs
        apply_cv = self.applier.apply_cv
        static = self._static_routing
        note_applied = self.distributor.note_applied
        pos = chunk.pos
        end = min(pos + budget, len(indices))
        applied = 0
        stop = False
        last_scn = self.applied_scn
        while pos < end:
            i = int(indices[pos])
            cv = cvs[i]
            scn = int(scns[i])
            try:
                apply_cv(cv, scn)
            except ApplyStall:
                self._apply_stalls.inc()
                stop = True
                break
            pos += 1
            applied += 1
            last_scn = scn
            if not static:
                note_applied(cv)
            if tracer is not None:
                tracer.record_applied(scn)
        chunk.pos = pos
        if applied:
            self.applied_scn = last_scn
        return applied, stop
