"""Unit tests for the QuerySCN-consistent result cache."""

from __future__ import annotations

import pytest

from repro.imcs.scan import ScanResult, ScanStats
from repro.query import CACHE_HIT_COST, ResultCache


def result(rows=((1, "a"), (2, "b")), cost=1e-3):
    return ScanResult(rows=list(rows), stats=ScanStats(cost_seconds=cost))


def key(scn=100, fingerprint=()):
    return (scn, "T", fingerprint)


class TestLookupStore:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup(key()) is None
        assert cache.put(key(), [900], result())
        hit = cache.lookup(key())
        assert hit is not None
        assert hit.rows == [(1, "a"), (2, "b")]
        assert cache.hits.value == 1 and cache.misses.value == 1

    def test_hit_is_a_copy_with_cache_serve_cost(self):
        cache = ResultCache()
        cache.put(key(), [900], result(cost=5e-3))
        hit = cache.lookup(key())
        assert hit.stats.cost_seconds == CACHE_HIT_COST
        hit.rows.append("mutation")
        again = cache.lookup(key())
        assert again.rows == [(1, "a"), (2, "b")]  # isolation
        assert again.stats.cost_seconds == CACHE_HIT_COST

    def test_distinct_scn_distinct_entry(self):
        cache = ResultCache()
        cache.put(key(scn=100), [900], result())
        assert cache.lookup(key(scn=101)) is None

    def test_lru_eviction_at_capacity(self):
        cache = ResultCache(capacity=2)
        cache.put(key(scn=1), [900], result())
        cache.put(key(scn=2), [900], result())
        cache.lookup(key(scn=1))  # 1 is now most recent
        cache.put(key(scn=3), [900], result())
        assert cache.lookup(key(scn=2)) is None  # LRU victim
        assert cache.lookup(key(scn=1)) is not None
        assert cache.lookup(key(scn=3)) is not None
        assert len(cache) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestEpochGuard:
    def test_stale_epoch_store_refused(self):
        cache = ResultCache()
        epochs = cache.snapshot_epochs([900])
        cache.on_object_invalidated(900, scn=50)  # moved mid-flight
        assert not cache.put(key(), [900], result(), epochs)
        assert cache.lookup(key()) is None
        assert cache.stale_stores.value == 1

    def test_fresh_epoch_store_accepted(self):
        cache = ResultCache()
        epochs = cache.snapshot_epochs([900, 901])
        assert cache.put(key(), [900, 901], result(), epochs)

    def test_global_epoch_guard(self):
        cache = ResultCache()
        epochs = cache.snapshot_epochs([900])
        cache.on_coarse_invalidation(tenant=0, scn=60)
        assert not cache.put(key(), [900], result(), epochs)

    def test_zero_object_scan_epochs_pin_global_epoch(self):
        """Regression: a zero-object scan (explicit empty partition
        list) used to snapshot ``{}``, so the ``{} == {}`` guard in
        ``put`` passed vacuously.  Empty-dependency entries must be
        keyed to the global epoch instead."""
        cache = ResultCache()
        epochs = cache.snapshot_epochs([])
        assert epochs  # not vacuously empty
        assert cache.put(key(), [], result(), epochs)
        assert cache.lookup(key()) is not None

    def test_zero_object_store_refused_after_coarse_invalidation(self):
        cache = ResultCache()
        epochs = cache.snapshot_epochs([])
        cache.on_coarse_invalidation(tenant=0, scn=60)  # clear mid-flight
        assert not cache.put(key(), [], result(), epochs)
        assert cache.stale_stores.value == 1
        assert cache.lookup(key()) is None


class TestInvalidation:
    def test_object_invalidation_evicts_dependents_only(self):
        cache = ResultCache()
        cache.put(key(scn=1), [900], result())
        cache.put(key(scn=2), [901], result())
        cache.put(key(scn=3), [900, 901], result())
        cache.on_object_invalidated(900, scn=70)
        assert cache.lookup(key(scn=1)) is None
        assert cache.lookup(key(scn=2)) is not None
        assert cache.lookup(key(scn=3)) is None  # depends on 900 too
        assert cache.invalidation_evictions.value == 2

    def test_object_drop_evicts(self):
        cache = ResultCache()
        cache.put(key(), [900], result())
        cache.on_object_dropped(900, scn=70)
        assert cache.lookup(key()) is None

    def test_coarse_invalidation_clears_everything(self):
        cache = ResultCache()
        cache.put(key(scn=1), [900], result())
        cache.put(key(scn=2), [901], result())
        cache.on_coarse_invalidation(tenant=0, scn=80)
        assert len(cache) == 0
        assert cache.lookup(key(scn=1)) is None
        assert cache.lookup(key(scn=2)) is None

    def test_reput_after_invalidation_with_new_epochs_works(self):
        cache = ResultCache()
        cache.put(key(), [900], result())
        cache.on_object_invalidated(900, scn=70)
        epochs = cache.snapshot_epochs([900])
        assert cache.put(key(scn=200), [900], result(), epochs)
        assert cache.lookup(key(scn=200)) is not None
