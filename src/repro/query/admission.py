"""Admission control for the session layer.

The paper's north star is "heavy traffic from millions of users";
unbounded session creation just moves the collapse into the database.
:class:`AdmissionController` enforces a global concurrency bound and
optional per-service bounds, with a FIFO wait queue (bounded, with
per-waiter timeouts).  All decisions are synchronous -- this is a
cooperative single-threaded simulation, so "blocking" means parking a
:class:`Waiter` that is granted when a slot frees up (session close).

Surfaced through ``repro.obs``: active sessions and queue depth gauges,
a wait-time histogram, admitted/rejected/timeout counters.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import obs
from repro.common.errors import InvalidStateError


class PoolExhaustedError(InvalidStateError):
    """Immediate connect refused: pool (or service) at its limit."""


class AdmissionTimeout(InvalidStateError):
    """A queued connect waited past its deadline."""


@dataclass(slots=True)
class Waiter:
    """One parked connection request.

    ``eligible`` is an optional extra admissibility predicate beyond slot
    availability — e.g. read-your-writes: "a standby whose published
    QuerySCN covers my commitSCN exists".  A waiter whose predicate is
    currently false is skipped by the drain without losing its queue
    position or consuming a slot; callers re-drain (:meth:`pump`) when
    the external condition may have changed (a QuerySCN publication).
    """

    service_name: str
    grant: Callable[[], None]
    enqueued_at: float
    deadline: Optional[float] = None
    on_timeout: Optional[Callable[[], None]] = None
    cancelled: bool = field(default=False)
    eligible: Optional[Callable[[], bool]] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def ready(self) -> bool:
        return self.eligible is None or bool(self.eligible())


class AdmissionController:
    """Bounded concurrency with a FIFO wait queue."""

    def __init__(
        self,
        limit: Optional[int] = None,
        per_service: Optional[dict[str, int]] = None,
        queue_limit: Optional[int] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.limit = limit
        self.per_service = dict(per_service or {})
        self.queue_limit = queue_limit
        self._clock = clock or (lambda: 0.0)
        self._active = 0
        self._active_by_service: dict[str, int] = {}
        self._waiters: deque[Waiter] = deque()
        self.admitted = obs.counter("query.admission.admitted")
        self.rejected = obs.counter("query.admission.rejected")
        self.timeouts = obs.counter("query.admission.timeouts")
        self._active_gauge = obs.gauge("query.admission.active")
        self._queue_gauge = obs.gauge("query.admission.queue_depth")
        self._wait_seconds = obs.histogram("query.admission.wait_seconds")

    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        return self._active

    @property
    def queue_depth(self) -> int:
        return len(self._waiters)

    def active_for(self, service_name: str) -> int:
        return self._active_by_service.get(service_name, 0)

    def _admissible(self, service_name: str) -> bool:
        if self.limit is not None and self._active >= self.limit:
            return False
        cap = self.per_service.get(service_name)
        return cap is None or self.active_for(service_name) < cap

    # ------------------------------------------------------------------
    def try_admit(self, service_name: str) -> bool:
        """Admit immediately, or refuse (no queueing)."""
        # a fair pool never lets a newcomer jump parked admissible
        # waiters; waiters whose eligibility predicate is false are not
        # admissible now, so a newcomer may take the slot they can't use
        self.expire_waiters()
        blocked = any(
            w.ready() for w in self._waiters if not w.cancelled
        )
        if blocked or not self._admissible(service_name):
            self.rejected.inc()
            return False
        self._grant_slot(service_name, waited=0.0)
        return True

    def enqueue(
        self,
        service_name: str,
        grant: Callable[[], None],
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[], None]] = None,
        eligible: Optional[Callable[[], bool]] = None,
    ) -> Waiter:
        """Park a request; ``grant`` fires (synchronously) when a slot
        frees up.  May grant immediately if a slot is available now."""
        now = self._clock()
        waiter = Waiter(
            service_name, grant, enqueued_at=now,
            deadline=None if timeout is None else now + timeout,
            on_timeout=on_timeout, eligible=eligible,
        )
        if (
            self.queue_limit is not None
            and len(self._waiters) >= self.queue_limit
        ):
            self.rejected.inc()
            raise PoolExhaustedError(
                f"admission queue full ({self.queue_limit} waiting)"
            )
        self._waiters.append(waiter)
        self._queue_gauge.set(len(self._waiters))
        self._drain()
        return waiter

    def cancel(self, waiter: Waiter) -> None:
        waiter.cancelled = True

    def release(self, service_name: str) -> None:
        """A session closed: free its slot and hand it to a waiter."""
        if self._active <= 0:
            raise InvalidStateError("release without matching admit")
        self._active -= 1
        count = self._active_by_service.get(service_name, 0) - 1
        if count > 0:
            self._active_by_service[service_name] = count
        else:
            self._active_by_service.pop(service_name, None)
        self._active_gauge.set(self._active)
        self._drain()

    # ------------------------------------------------------------------
    def expire_waiters(self) -> int:
        """Drop waiters past their deadline (lazy: called on every
        admission event; tests/drivers may call it on a timer)."""
        now = self._clock()
        expired = 0
        kept: deque[Waiter] = deque()
        for waiter in self._waiters:
            if waiter.cancelled:
                continue
            if waiter.expired(now):
                expired += 1
                self.timeouts.inc()
                self._wait_seconds.observe(now - waiter.enqueued_at)
                if waiter.on_timeout is not None:
                    waiter.on_timeout()
            else:
                kept.append(waiter)
        self._waiters = kept
        self._queue_gauge.set(len(self._waiters))
        return expired

    def _grant_slot(self, service_name: str, waited: float) -> None:
        self._active += 1
        self._active_by_service[service_name] = (
            self.active_for(service_name) + 1
        )
        self.admitted.inc()
        self._active_gauge.set(self._active)
        self._wait_seconds.observe(waited)

    def pump(self) -> None:
        """Re-run the drain because an *external* eligibility condition
        may have changed (e.g. a standby published a newer QuerySCN and a
        read-your-writes waiter now qualifies).  Safe to call any time.
        """
        self._drain()

    def _drain(self) -> None:
        """Grant parked waiters in FIFO order while slots allow.

        A waiter whose *service* is capped does not block a later waiter
        on a different service (no head-of-line blocking across
        services); FIFO order is preserved within a service.  A waiter
        whose eligibility predicate is false is likewise skipped without
        a grant — it keeps its position for the next drain/pump.
        """
        self.expire_waiters()
        now = self._clock()
        remaining: deque[Waiter] = deque()
        while self._waiters:
            waiter = self._waiters.popleft()
            if self._admissible(waiter.service_name) and waiter.ready():
                self._grant_slot(
                    waiter.service_name, waited=now - waiter.enqueued_at
                )
                waiter.grant()
            else:
                remaining.append(waiter)
        self._waiters = remaining
        self._queue_gauge.set(len(self._waiters))
