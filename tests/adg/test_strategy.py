"""Unit tests for pluggable consistency-point strategies (DESIGN.md 16)."""

from __future__ import annotations

import pytest

from repro.adg.strategy import (
    STRATEGIES,
    BatchedQuiesceStrategy,
    DeferredDrainStrategy,
    EagerFlushStrategy,
    create_strategy,
)
from repro.common.config import (
    AdvanceConfig,
    ApplyConfig,
    IMCSConfig,
    SystemConfig,
)


class FakeProtocol:
    """Scripted AdvanceProtocol with the staged-drain surface."""

    def __init__(self, synchronous=True):
        self.calls = []
        self.complete = True
        self.router_is_synchronous = synchronous
        self.stage_mode = False
        self.retire_backlog = 0

    def begin_advance(self, scn):
        self.calls.append(("begin", scn))

    def coordinator_flush(self, batch):
        self.calls.append(("flush", batch))
        return 3

    def is_advance_complete(self):
        return self.complete

    def finish_advance(self, scn):
        self.calls.append(("finish", scn))

    # -- staged drain ----------------------------------------------------
    def set_staged(self, enabled):
        self.stage_mode = enabled

    def apply_staged(self):
        self.calls.append(("apply_staged",))
        return 5

    @property
    def has_pending_retire(self):
        return self.retire_backlog > 0

    def retire_staged(self, batch):
        retired = min(batch, self.retire_backlog)
        self.retire_backlog -= retired
        return retired


class FakeCoordinator:
    def __init__(self, protocol=None):
        self.advance_protocol = protocol


def bound(strategy, protocol=None):
    strategy.bind(FakeCoordinator(protocol))
    return strategy


class TestRegistry:
    def test_registered_strategies(self):
        assert set(STRATEGIES) == {"eager", "deferred", "batched"}

    def test_default_is_eager(self):
        assert isinstance(create_strategy(None), EagerFlushStrategy)
        assert isinstance(
            create_strategy(AdvanceConfig()), EagerFlushStrategy
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown consistency-point"):
            create_strategy(AdvanceConfig(strategy="zigzag"))

    def test_batched_takes_barrier_width_from_config(self):
        strategy = create_strategy(
            AdvanceConfig(strategy="batched", barrier_width=7)
        )
        assert isinstance(strategy, BatchedQuiesceStrategy)
        assert strategy.barrier_width == 7

    def test_config_default_strategy_name(self):
        assert SystemConfig().advance.strategy == "eager"


class TestEagerFlushStrategy:
    def test_plain_adg_has_no_drain_phase(self):
        strategy = bound(EagerFlushStrategy(), protocol=None)
        strategy.begin(10, now=0.0)
        assert strategy.drain(32) is None  # no protocol: no flush cost
        assert strategy.ready()
        assert strategy.publish_scn() == 10
        strategy.post_publish(10)
        assert strategy.target is None

    def test_delegates_protocol_hooks(self):
        protocol = FakeProtocol()
        strategy = bound(EagerFlushStrategy(), protocol)
        strategy.begin(10, now=0.0)
        assert strategy.drain(32) == 3
        assert strategy.ready()
        strategy.post_publish(10)
        assert protocol.calls == [("begin", 10), ("flush", 32), ("finish", 10)]

    def test_reads_protocol_dynamically(self):
        coordinator = FakeCoordinator(None)
        strategy = EagerFlushStrategy()
        strategy.bind(coordinator)
        coordinator.advance_protocol = FakeProtocol()  # swapped post-bind
        strategy.begin(10, now=0.0)
        assert coordinator.advance_protocol.calls == [("begin", 10)]


class TestDeferredDrainStrategy:
    def test_stages_with_synchronous_router(self):
        protocol = FakeProtocol(synchronous=True)
        strategy = bound(DeferredDrainStrategy(), protocol)
        strategy.begin(10, now=0.0)
        assert protocol.stage_mode is True
        assert strategy.pre_publish(10) == 5  # staged masks swap in
        assert ("apply_staged",) in protocol.calls
        strategy.post_publish(10)
        assert strategy._staged_this_advance is False

    def test_falls_back_to_eager_with_async_router(self):
        protocol = FakeProtocol(synchronous=False)
        strategy = bound(DeferredDrainStrategy(), protocol)
        strategy.begin(10, now=0.0)
        assert protocol.stage_mode is False  # RAC: no staging
        assert strategy.pre_publish(10) == 0

    def test_background_retire(self):
        protocol = FakeProtocol()
        protocol.retire_backlog = 5
        strategy = bound(DeferredDrainStrategy(), protocol)
        assert strategy.pending_background()
        assert strategy.background_drain(3) == 3
        assert strategy.background_drain(3) == 2
        assert not strategy.pending_background()

    def test_reset_clears_staging_flag(self):
        strategy = bound(DeferredDrainStrategy(), FakeProtocol())
        strategy.begin(10, now=0.0)
        strategy.reset()
        assert strategy.target is None
        assert strategy._staged_this_advance is False


class TestBatchedQuiesceStrategy:
    def test_folds_points_until_barrier_width(self):
        protocol = FakeProtocol()
        strategy = bound(BatchedQuiesceStrategy(barrier_width=3), protocol)
        strategy.begin(10, now=0.0)
        assert not strategy.ready()  # barrier open: waits for more points
        strategy.offer(12, now=0.1)
        assert strategy.target == 12
        assert not strategy.ready()
        strategy.offer(15, now=0.2)  # third point: barrier closes
        assert strategy.target == 15
        assert strategy.ready()
        assert strategy.publish_scn() == 15
        begins = [scn for kind, scn in protocol.calls if kind == "begin"]
        assert begins == [10, 12, 15]  # re-chopped for each folded point

    def test_no_higher_candidate_closes_barrier(self):
        """Liveness: a tick without progress must not postpone the
        publication indefinitely."""
        strategy = bound(BatchedQuiesceStrategy(barrier_width=4),
                         FakeProtocol())
        strategy.begin(10, now=0.0)
        strategy.offer(10, now=0.1)  # no progress since the drain
        assert strategy.ready()
        assert strategy.publish_scn() == 10

    def test_no_fold_while_draining(self):
        """Re-chopping replaces the worklink, so folding is only safe
        once the current chop is fully drained."""
        protocol = FakeProtocol()
        protocol.complete = False
        strategy = bound(BatchedQuiesceStrategy(barrier_width=3), protocol)
        strategy.begin(10, now=0.0)
        strategy.offer(12, now=0.1)
        assert strategy.target == 10  # candidate not folded in
        begins = [scn for kind, scn in protocol.calls if kind == "begin"]
        assert begins == [10]
        assert not strategy.ready()

    def test_width_one_degenerates_to_eager(self):
        strategy = bound(BatchedQuiesceStrategy(barrier_width=1),
                         FakeProtocol())
        strategy.begin(10, now=0.0)
        assert strategy.ready()

    def test_plain_adg_closes_immediately(self):
        strategy = bound(BatchedQuiesceStrategy(barrier_width=4), None)
        strategy.begin(10, now=0.0)
        assert strategy.ready()

    def test_post_publish_and_reset_reopen_barrier(self):
        strategy = bound(BatchedQuiesceStrategy(barrier_width=2),
                         FakeProtocol())
        strategy.begin(10, now=0.0)
        strategy.offer(12, now=0.1)
        strategy.post_publish(12)
        assert strategy._points == 0 and not strategy._closed
        strategy.begin(20, now=0.5)
        strategy.reset()
        assert strategy.target is None
        assert strategy._points == 0 and not strategy._closed


# ----------------------------------------------------------------------
# deployment-level behaviour
# ----------------------------------------------------------------------
def build_deployment(strategy, **advance_overrides):
    from repro.db import ColumnDef, Deployment, InMemoryService, TableDef

    config = SystemConfig(
        imcs=IMCSConfig(imcu_target_rows=64, population_workers=1),
        apply=ApplyConfig(n_workers=4),
        advance=AdvanceConfig(strategy=strategy, **advance_overrides),
        seed=7,
    )
    deployment = Deployment.build(config=config)
    deployment.create_table(TableDef(
        "T",
        (
            ColumnDef.number("id", nullable=False),
            ColumnDef.number("n1"),
            ColumnDef.varchar("c1"),
        ),
        rows_per_block=8,
        indexes=("id",),
    ))
    txn = deployment.primary.begin()
    rowids = []
    for i in range(80):
        rowids.append(deployment.primary.insert(
            txn, "T", (i, i * 1.0, f"v{i % 5}")
        ))
    deployment.primary.commit(txn)
    deployment.enable_inmemory("T", service=InMemoryService.BOTH)
    deployment.catch_up()
    return deployment, rowids


def churn(deployment, rowids, bursts=12):
    for burst in range(bursts):
        txn = deployment.primary.begin()
        for k in range(6):
            deployment.primary.update(
                txn, "T", rowids[(burst * 7 + k) % len(rowids)],
                {"n1": float(burst * 100 + k)},
            )
        deployment.primary.commit(txn)
        deployment.run(0.05)
    deployment.catch_up()


def primary_cr_rows(deployment, scn):
    table = deployment.primary.catalog.table("T")
    return sorted(
        values
        for __, values in table.full_scan(scn, deployment.primary.txn_table)
    )


class TestStrategyDeployments:
    def test_batched_amortises_quiesce_windows(self):
        eager, rowids_e = build_deployment("eager")
        batched, rowids_b = build_deployment("batched", barrier_width=4)
        churn(eager, rowids_e)
        churn(batched, rowids_b)
        assert (
            batched.standby.coordinator.advancements.value
            < eager.standby.coordinator.advancements.value
        )
        for deployment in (eager, batched):
            scn = deployment.standby.query_scn.value
            assert sorted(deployment.standby.query("T").rows) == (
                primary_cr_rows(deployment, scn)
            )

    def test_deferred_stages_and_retires_out_of_band(self):
        deployment, rowids = build_deployment("deferred")
        churn(deployment, rowids)
        flush = deployment.standby.flush
        # drains went through the shadow side
        assert flush.staged_ops.value > 0
        # anchors retired post-publication
        assert flush.staged_retired.value > 0
        deployment.run(0.3)
        assert not flush.has_pending_retire  # background drain converges
        scn = deployment.standby.query_scn.value
        assert sorted(deployment.standby.query("T").rows) == (
            primary_cr_rows(deployment, scn)
        )

    def test_strategy_survives_restart(self):
        deployment, rowids = build_deployment("batched", barrier_width=3)
        churn(deployment, rowids, bursts=4)
        deployment.restart_standby(cold=True)
        churn(deployment, rowids, bursts=4)
        scn = deployment.standby.query_scn.value
        assert sorted(deployment.standby.query("T").rows) == (
            primary_cr_rows(deployment, scn)
        )
