"""Invariant checkers: what must hold no matter what chaos ran.

These are the consistency properties the integration suite used to
assert inline, lifted into reusable checkers:

* :class:`StandbyMatchesPrimaryCR` -- the golden invariant: a standby
  scan at the published QuerySCN equals a primary consistent read at the
  same SCN (paper, section III: transactional consistency at every
  published snapshot);
* :class:`QuerySCNMonotonic` -- published QuerySCNs never move backwards
  (they may leapfrog, never regress);
* :class:`JournalDrained` -- after catch-up, the IM-ADG Journal buffers
  anchors only for transactions still open, and the commit table holds
  nothing at or below the published QuerySCN;
* :class:`NoGapSkip` -- redo positions form a contiguous landed prefix
  per thread: the receiver never advanced its expected position past
  records that were neither shipped nor FAL-fetched.

Checkers take the :class:`~repro.chaos.plan.ChaosContext` so custom
scenario invariants can reach anything (e.g. a post-failover primary).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.chaos.plan import ChaosContext


@dataclass(frozen=True, slots=True)
class InvariantResult:
    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


class Invariant:
    """Base class: a named check over the final deployment state."""

    name = "invariant"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        raise NotImplementedError

    def _result(self, passed: bool, detail: str) -> InvariantResult:
        return InvariantResult(self.name, passed, detail)


class StandbyMatchesPrimaryCR(Invariant):
    """Standby scan at QuerySCN == primary consistent read at QuerySCN."""

    name = "standby_scan_equals_primary_cr"

    def __init__(self, table: str = "T") -> None:
        self.table = table

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        deployment = ctx.deployment
        snapshot = deployment.standby.query_scn.value
        table = deployment.primary.catalog.table(self.table)
        expected = sorted(
            values
            for __, values in table.full_scan(
                snapshot, deployment.primary.txn_table
            )
        )
        got = sorted(deployment.standby.query(self.table).rows)
        if got == expected:
            return self._result(
                True, f"{len(got)} rows identical at QuerySCN {snapshot}"
            )
        return self._result(
            False,
            f"divergence at QuerySCN {snapshot}: standby {len(got)} rows "
            f"vs primary CR {len(expected)} rows ({self.table})",
        )


class ClusterMatchesPrimaryCR(Invariant):
    """SIRA cluster scan at the master QuerySCN == primary CR."""

    name = "cluster_scan_equals_primary_cr"

    def __init__(self, table: str = "T") -> None:
        self.table = table

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        deployment = ctx.deployment
        cluster = deployment.standby_cluster
        if cluster is None:
            return self._result(False, "no standby cluster deployed")
        snapshot = deployment.standby.query_scn.value
        table = deployment.primary.catalog.table(self.table)
        expected = sorted(
            values
            for __, values in table.full_scan(
                snapshot, deployment.primary.txn_table
            )
        )
        got = sorted(cluster.query(self.table).rows)
        if got == expected:
            return self._result(
                True, f"{len(got)} rows identical at QuerySCN {snapshot}"
            )
        return self._result(
            False,
            f"divergence at QuerySCN {snapshot}: cluster {len(got)} rows "
            f"vs primary CR {len(expected)} rows ({self.table})",
        )


class QuerySCNMonotonic(Invariant):
    """The published QuerySCN history is strictly increasing."""

    name = "queryscn_monotonic"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        history = [scn for __, scn in ctx.deployment.standby.query_scn.history]
        for earlier, later in zip(history, history[1:]):
            if later <= earlier:
                return self._result(
                    False, f"QuerySCN regressed: {earlier} -> {later}"
                )
        return self._result(
            True, f"{len(history)} publications, strictly increasing"
        )


class JournalDrained(Invariant):
    """After catch-up the journal holds anchors only for still-open
    transactions and the commit table buffers nothing already published."""

    name = "journal_drained_after_catchup"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        standby = ctx.deployment.standby
        open_txns = len(standby.txn_table.open_transactions())
        anchors = standby.journal.anchor_count
        stale = len(standby.commit_table)
        if anchors > open_txns:
            return self._result(
                False,
                f"{anchors} journal anchors but only {open_txns} open "
                "transactions: committed work left unflushed",
            )
        if stale:
            return self._result(
                False,
                f"{stale} commit-table nodes left below the published "
                f"QuerySCN {standby.query_scn.value}",
            )
        return self._result(
            True,
            f"{anchors} anchors for {open_txns} open transactions, "
            "commit table empty",
        )


class NoGapSkip(Invariant):
    """Every redo position below each thread's expected-position
    watermark was landed exactly once (shipped or FAL-fetched) -- the
    receiver never skipped over a gap."""

    name = "no_gap_skip"

    def check(self, ctx: "ChaosContext") -> InvariantResult:
        deployment = ctx.deployment
        receiver = deployment.standby.receiver
        for log in deployment.primary.redo_logs:
            thread = log.thread
            expected = receiver.expected_position(thread)
            landed = receiver.records_landed.get(thread, 0)
            if expected != landed:
                return self._result(
                    False,
                    f"thread {thread}: expected-position watermark "
                    f"{expected} != {landed} records landed",
                )
            if expected > len(log):
                return self._result(
                    False,
                    f"thread {thread}: watermark {expected} beyond the "
                    f"log's {len(log)} records",
                )
        threads = len(deployment.primary.redo_logs)
        resolved = receiver.gaps_resolved.value
        return self._result(
            True,
            f"{threads} threads contiguous, {resolved} gaps FAL-healed, "
            f"{receiver.duplicates_discarded.value} duplicate records "
            "discarded",
        )


def standard_invariants(table: str = "T") -> list[Invariant]:
    """The default battery every scenario runs unless it overrides."""
    return [
        StandbyMatchesPrimaryCR(table),
        QuerySCNMonotonic(),
        JournalDrained(),
        NoGapSkip(),
    ]
