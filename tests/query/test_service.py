"""End-to-end QueryService tests: cache-accelerated morsel-parallel scans
against a live deployment, with flush/DDL-driven invalidation."""

from __future__ import annotations

import pytest

from repro.imcs import Predicate
from repro.query import CACHE_HIT_COST

from tests.db.conftest import load  # noqa: F401  (fixtures below)
from tests.db.conftest import deployment, loaded_deployment  # noqa: F401


@pytest.fixture
def service_deployment(loaded_deployment):  # noqa: F811
    deployment, rowids = loaded_deployment
    service = deployment.start_query_service(n_workers=4)
    yield deployment, service, rowids
    service.shutdown()


class TestScan:
    def test_scan_matches_standby_query(self, service_deployment):
        deployment, service, __ = service_deployment
        serial = deployment.standby.query("T")
        result, cached = service.scan("T")
        assert not cached
        assert result.rows == serial.rows
        assert result.stats == serial.stats

    def test_second_scan_served_from_cache(self, service_deployment):
        deployment, service, __ = service_deployment
        first, cached_first = service.scan("T", [Predicate.lt("n1", 50.0)])
        second, cached_second = service.scan("T", [Predicate.lt("n1", 50.0)])
        assert not cached_first and cached_second
        assert second.rows == first.rows
        assert second.stats.cost_seconds == CACHE_HIT_COST
        assert service.cache.hits.value == 1

    def test_different_fingerprint_not_shared(self, service_deployment):
        __, service, ___ = service_deployment
        service.scan("T", [Predicate.lt("n1", 50.0)])
        __, cached = service.scan("T", [Predicate.lt("n1", 60.0)])
        assert not cached

    def test_cache_disabled_service(self, loaded_deployment):  # noqa: F811
        deployment, __ = loaded_deployment
        service = deployment.start_query_service(enable_cache=False)
        try:
            first, cached_first = service.scan("T")
            second, cached_second = service.scan("T")
            assert not cached_first and not cached_second
            assert second.rows == first.rows
        finally:
            service.shutdown()


class TestInvalidation:
    def test_mandatory_miss_after_flush_touches_object(
        self, service_deployment
    ):
        deployment, service, rowids = service_deployment
        predicates = [Predicate.eq("n1", -1.0)]
        before, __ = service.scan("T", predicates)
        assert before.rows == []
        old_key = (
            deployment.standby.query_scn.value, "T",
            service._fingerprint(predicates, None, None),
        )
        assert service.cache.lookup(old_key) is not None

        txn = deployment.primary.begin()
        for rowid in rowids[:10]:
            deployment.primary.update(txn, "T", rowid, {"n1": -1.0})
        deployment.primary.commit(txn)
        deployment.catch_up()

        # the flush evicted every entry depending on T's partitions,
        # strictly before publishing the new QuerySCN
        assert service.cache.invalidation_evictions.value >= 1
        assert service.cache.lookup(old_key) is None
        after, cached = service.scan("T", predicates)
        assert not cached
        assert len(after.rows) == 10

    def test_unrelated_table_survives_invalidation(self, service_deployment):
        deployment, service, rowids = service_deployment
        from tests.db.conftest import simple_table_def

        deployment.create_table(simple_table_def(name="U"))
        from repro.db import InMemoryService

        deployment.enable_inmemory("U", service=InMemoryService.STANDBY)
        load(deployment, table="U", n=10, start=1000)
        deployment.catch_up()

        service.scan("U")
        u_key = (
            deployment.standby.query_scn.value, "U",
            service._fingerprint(None, None, None),
        )
        assert service.cache.lookup(u_key) is not None
        txn = deployment.primary.begin()
        deployment.primary.update(txn, "T", rowids[0], {"n1": -9.0})
        deployment.primary.commit(txn)
        deployment.catch_up()
        # T's flush group does not evict U's entry
        assert service.cache.lookup(u_key) is not None

    def test_ddl_drop_evicts_cache_entries(self, service_deployment):
        deployment, service, __ = service_deployment
        service.scan("T")
        assert len(service.cache) >= 1
        deployment.primary.drop_table("T")
        deployment.run(5.0)
        assert "T" not in deployment.standby.catalog
        assert len(service.cache) == 0
        assert service.cache.invalidation_evictions.value >= 1
