"""Unit tests for the admission controller (session-pool bounds)."""

from __future__ import annotations

import pytest

from repro.query import AdmissionController, PoolExhaustedError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestLimits:
    def test_global_limit(self):
        ctrl = AdmissionController(limit=2)
        assert ctrl.try_admit("s")
        assert ctrl.try_admit("s")
        assert not ctrl.try_admit("s")
        assert ctrl.active == 2 and ctrl.rejected.value == 1
        ctrl.release("s")
        assert ctrl.try_admit("s")

    def test_per_service_cap_independent(self):
        ctrl = AdmissionController(
            limit=10, per_service={"reporting": 1}
        )
        assert ctrl.try_admit("reporting")
        assert not ctrl.try_admit("reporting")
        assert ctrl.try_admit("oltp")  # other service unaffected
        ctrl.release("reporting")
        assert ctrl.try_admit("reporting")

    def test_unbounded_by_default(self):
        ctrl = AdmissionController()
        for __ in range(100):
            assert ctrl.try_admit("s")

    def test_release_without_admit_raises(self):
        from repro.common.errors import InvalidStateError

        ctrl = AdmissionController()
        with pytest.raises(InvalidStateError):
            ctrl.release("s")


class TestQueue:
    def test_waiter_granted_on_release(self):
        ctrl = AdmissionController(limit=1)
        assert ctrl.try_admit("s")
        granted = []
        ctrl.enqueue("s", lambda: granted.append(True))
        assert not granted and ctrl.queue_depth == 1
        ctrl.release("s")
        assert granted == [True]
        assert ctrl.queue_depth == 0 and ctrl.active == 1

    def test_fifo_order(self):
        ctrl = AdmissionController(limit=1)
        ctrl.try_admit("s")
        order = []
        ctrl.enqueue("s", lambda: order.append("first"))
        ctrl.enqueue("s", lambda: order.append("second"))
        ctrl.release("s")
        assert order == ["first"]
        ctrl.release("s")
        assert order == ["first", "second"]

    def test_newcomer_cannot_jump_queue(self):
        ctrl = AdmissionController(limit=2)
        ctrl.try_admit("s")
        ctrl.try_admit("s")
        ctrl.enqueue("s", lambda: None)
        ctrl.release("s")  # waiter takes the freed slot...
        assert not ctrl.try_admit("s")  # ...and the pool is full again

    def test_queue_limit_raises(self):
        ctrl = AdmissionController(limit=1, queue_limit=1)
        ctrl.try_admit("s")
        ctrl.enqueue("s", lambda: None)
        with pytest.raises(PoolExhaustedError):
            ctrl.enqueue("s", lambda: None)

    def test_capped_service_does_not_block_other_service(self):
        ctrl = AdmissionController(
            limit=10, per_service={"reporting": 1}
        )
        ctrl.try_admit("reporting")
        granted = []
        ctrl.enqueue("reporting", lambda: granted.append("reporting"))
        ctrl.enqueue("oltp", lambda: granted.append("oltp"))
        # oltp is admissible right away despite reporting at its cap
        assert granted == ["oltp"]
        ctrl.release("reporting")
        assert granted == ["oltp", "reporting"]


class TestEligibility:
    """Waiters gated on an external condition (read-your-writes: "a
    standby whose published QuerySCN covers my commitSCN exists")."""

    def test_ineligible_waiter_parked_without_a_grant(self):
        ctrl = AdmissionController(limit=1)
        granted = []
        ctrl.enqueue(
            "s", lambda: granted.append(True), eligible=lambda: False
        )
        # a slot is free, but the predicate says the waiter can't use it
        assert not granted and ctrl.queue_depth == 1
        assert ctrl.active == 0

    def test_pump_grants_when_condition_flips(self):
        ctrl = AdmissionController(limit=1)
        qualified = []
        granted = []
        ctrl.enqueue(
            "s", lambda: granted.append(True),
            eligible=lambda: bool(qualified),
        )
        ctrl.pump()
        assert not granted
        qualified.append("standby caught up")
        ctrl.pump()
        assert granted == [True] and ctrl.active == 1

    def test_newcomer_may_pass_an_ineligible_waiter(self):
        # the parked waiter cannot use the slot *now*, so fairness does
        # not require holding the newcomer back
        ctrl = AdmissionController(limit=1)
        ctrl.enqueue("s", lambda: None, eligible=lambda: False)
        assert ctrl.try_admit("s")
        assert ctrl.queue_depth == 1

    def test_eligible_waiter_still_blocks_newcomers(self):
        ctrl = AdmissionController(limit=1)
        ctrl.try_admit("s")
        ctrl.enqueue("s", lambda: None, eligible=lambda: True)
        ctrl.release("s")  # the waiter takes the slot ...
        assert not ctrl.try_admit("s")  # ... not the newcomer

    def test_fifo_is_kept_within_eligible_waiters(self):
        ctrl = AdmissionController(limit=2)
        ctrl.try_admit("s")
        ctrl.try_admit("s")
        order = []
        ready = []
        ctrl.enqueue(
            "s", lambda: order.append("gated"),
            eligible=lambda: bool(ready),
        )
        ctrl.enqueue("s", lambda: order.append("plain"))
        ctrl.release("s")
        # the gated head is skipped without losing its queue position
        assert order == ["plain"]
        ready.append(True)
        ctrl.release("s")
        assert order == ["plain", "gated"]

    def test_never_eligible_waiter_expires_without_leaking_a_slot(self):
        """The standby a read-your-writes waiter is pinned on never
        catches up: the waiter expires with its deadline error and
        releases nothing, because it never held a slot."""
        clock = FakeClock()
        ctrl = AdmissionController(limit=1, clock=clock)
        outcome = []
        ctrl.enqueue(
            "s", lambda: outcome.append("granted"),
            timeout=5.0,
            on_timeout=lambda: outcome.append("deadline"),
            eligible=lambda: False,
        )
        clock.now = 6.0
        assert ctrl.expire_waiters() == 1
        assert outcome == ["deadline"]
        assert ctrl.active == 0 and ctrl.queue_depth == 0
        # the pool is intact: a newcomer admits immediately
        assert ctrl.try_admit("s")
        assert ctrl.active == 1


class TestTimeouts:
    def test_waiter_expires_past_deadline(self):
        clock = FakeClock()
        ctrl = AdmissionController(limit=1, clock=clock)
        ctrl.try_admit("s")
        timed_out = []
        ctrl.enqueue(
            "s", lambda: timed_out.append("granted"),
            timeout=5.0, on_timeout=lambda: timed_out.append("timeout"),
        )
        clock.now = 6.0
        assert ctrl.expire_waiters() == 1
        assert timed_out == ["timeout"]
        ctrl.release("s")  # the slot goes unused, not to the dead waiter
        assert "granted" not in timed_out
        assert ctrl.timeouts.value == 1

    def test_waiter_within_deadline_survives(self):
        clock = FakeClock()
        ctrl = AdmissionController(limit=1, clock=clock)
        ctrl.try_admit("s")
        granted = []
        ctrl.enqueue("s", lambda: granted.append(True), timeout=5.0)
        clock.now = 4.0
        assert ctrl.expire_waiters() == 0
        ctrl.release("s")
        assert granted == [True]

    def test_cancelled_waiter_dropped(self):
        ctrl = AdmissionController(limit=1)
        ctrl.try_admit("s")
        granted = []
        waiter = ctrl.enqueue("s", lambda: granted.append(True))
        ctrl.cancel(waiter)
        ctrl.release("s")
        assert not granted
