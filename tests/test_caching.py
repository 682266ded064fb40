"""The shared LRU eviction policy (engine caches + service store)."""

from __future__ import annotations

import pytest

from repro.caching import EvictionPolicy, LRUCache
from repro.core.resolve import ResolveCache
from repro.errors import ParameterError


class TestEvictionPolicy:
    def test_defaults(self):
        policy = EvictionPolicy()
        assert policy.max_entries == 4096
        assert policy.evict_batch == 1

    def test_validation(self):
        with pytest.raises(ParameterError):
            EvictionPolicy(max_entries=0)
        with pytest.raises(ParameterError):
            EvictionPolicy(max_entries=4, evict_batch=5)
        with pytest.raises(ParameterError):
            EvictionPolicy(max_entries=4, evict_batch=0)

    def test_store_variant_batches(self):
        policy = EvictionPolicy.for_store(1000)
        assert policy.max_entries == 1000
        assert policy.evict_batch == 50
        assert EvictionPolicy.for_store(5).evict_batch == 1


class TestLRUCache:
    def test_roundtrip_and_len(self):
        cache = LRUCache(4)
        cache["a"] = 1
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", 7) == 7
        assert len(cache) == 1
        assert "a" in cache

    def test_evicts_least_recently_used(self):
        cache = LRUCache(3)
        for key in "abc":
            cache[key] = key
        assert cache.get("a") == "a"        # refresh 'a'
        cache["d"] = "d"                    # evicts 'b', the stalest
        assert "b" not in cache
        assert all(key in cache for key in "acd")
        assert cache.evictions == 1

    def test_overwrite_refreshes_recency(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        cache["a"] = 10                     # 'a' becomes most recent
        cache["c"] = 3                      # evicts 'b'
        assert cache.get("a") == 10
        assert "b" not in cache

    def test_batched_eviction(self):
        cache = LRUCache(EvictionPolicy(max_entries=10, evict_batch=5))
        for index in range(11):
            cache[index] = index
        # One overflow drops a whole batch, keeping the newest entries.
        assert len(cache) == 6
        assert 10 in cache and 0 not in cache

    def test_never_evicts_the_new_entry(self):
        cache = LRUCache(EvictionPolicy(max_entries=1, evict_batch=1))
        cache["a"] = 1
        cache["b"] = 2
        assert "b" in cache and "a" not in cache

    def test_peek_does_not_touch_recency(self):
        cache = LRUCache(2)
        cache["a"] = 1
        cache["b"] = 2
        assert cache.peek("a") == 1         # no refresh
        cache["c"] = 3                      # evicts 'a' anyway
        assert "a" not in cache


class TestResolveCacheEviction:
    def test_layers_share_one_policy(self):
        cache = ResolveCache(limit=7)
        assert cache.policy.max_entries == 7
        assert cache.die_structure.policy is cache.policy
        assert cache.die_fast.policy is cache.policy

    def test_eviction_keeps_recent_entries_hitting(self):
        cache = ResolveCache(limit=2)
        for index in range(5):
            cache.die_structure[("key", index)] = index
        assert len(cache.die_structure) == 2
        # The newest keys survive — a stop-inserting bound would instead
        # have frozen the cache at keys 0 and 1.
        assert cache.die_structure.get(("key", 4)) == 4


class TestEvaluatorEviction:
    def test_engine_caches_recycle_not_freeze(self, orin_2d, av_workload):
        from repro.config.parameters import DEFAULT_PARAMETERS
        from repro.engine import BatchEvaluator

        evaluator = BatchEvaluator(cache_limit=4)
        assert evaluator.eviction_policy.max_entries == 4
        # Stream more distinct parameter sets than the bound holds.
        for defect in (0.08, 0.09, 0.10, 0.11, 0.12, 0.13):
            params = DEFAULT_PARAMETERS.with_node_override(
                "7nm", defect_density_per_cm2=defect
            )
            evaluator.report(orin_2d, workload=av_workload, params=params)
        assert len(evaluator._caches.resolved) <= 4
        # The most recent key is still cached: repeating it hits.
        hits_before = evaluator.stats.resolve_hits
        evaluator.report(orin_2d, workload=av_workload, params=params)
        assert evaluator.stats.resolve_hits == hits_before + 1
