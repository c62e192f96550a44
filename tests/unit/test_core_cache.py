"""Unit tests for the policy-result cache."""

import time

import pytest

from repro.core.cache import PolicyCache
from repro.core.permissions import Permission

RWX = Permission.all()
RX = Permission.from_string("RX")


class TestBasics:
    def test_miss_then_hit(self):
        cache = PolicyCache(capacity=4)
        assert cache.get("u", "1", "read") is None
        cache.put("u", "1", "read", RWX)
        assert cache.get("u", "1", "read") == RWX
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_key_components_distinct(self):
        cache = PolicyCache(capacity=8)
        cache.put("u", "1", "read", RWX)
        assert cache.get("u", "1", "write") is None
        assert cache.get("u", "2", "read") is None
        assert cache.get("v", "1", "read") is None

    def test_update_existing(self):
        cache = PolicyCache(capacity=4)
        cache.put("u", "1", "read", RWX)
        cache.put("u", "1", "read", RX)
        assert cache.get("u", "1", "read") == RX
        assert len(cache) == 1


class TestLRU:
    def test_eviction_at_capacity(self):
        cache = PolicyCache(capacity=3)
        for i in range(4):
            cache.put("u", str(i), "read", RWX)
        assert len(cache) == 3
        assert cache.get("u", "0", "read") is None  # oldest evicted
        assert cache.stats.evictions == 1

    def test_recent_use_protects(self):
        cache = PolicyCache(capacity=2)
        cache.put("u", "a", "read", RWX)
        cache.put("u", "b", "read", RWX)
        cache.get("u", "a", "read")  # refresh a
        cache.put("u", "c", "read", RWX)  # evicts b
        assert cache.get("u", "a", "read") is not None
        assert cache.get("u", "b", "read") is None

    def test_paper_capacity_default(self):
        assert PolicyCache().capacity == 128

    def test_zero_capacity_disables(self):
        cache = PolicyCache(capacity=0)
        cache.put("u", "1", "read", RWX)
        assert cache.get("u", "1", "read") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PolicyCache(capacity=-1)


class TestInvalidation:
    def test_flush(self):
        cache = PolicyCache(capacity=8)
        cache.put("u", "1", "read", RWX)
        cache.flush()
        assert cache.get("u", "1", "read") is None
        assert cache.stats.flushes == 1

    def test_ttl_expiry(self):
        cache = PolicyCache(capacity=8, ttl_seconds=0.0)
        cache.put("u", "1", "read", RWX)
        time.sleep(0.001)
        assert cache.get("u", "1", "read") is None

    def test_ttl_follows_the_injected_clock(self):
        now = [100.0]
        cache = PolicyCache(capacity=8, ttl_seconds=10.0, clock=lambda: now[0])
        cache.put("u", "1", "read", RWX)
        now[0] += 10.0
        assert cache.get("u", "1", "read") == RWX
        now[0] += 0.5
        assert cache.get("u", "1", "read") is None
        assert len(cache) == 0

    def test_no_ttl_by_default(self):
        cache = PolicyCache(capacity=8)
        cache.put("u", "1", "read", RWX)
        assert cache.get("u", "1", "read") is not None


class TestStats:
    def test_hit_rate(self):
        cache = PolicyCache(capacity=8)
        cache.put("u", "1", "read", RWX)
        cache.get("u", "1", "read")
        cache.get("u", "1", "read")
        cache.get("u", "2", "read")
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_hit_rate(self):
        assert PolicyCache().stats.hit_rate == 0.0

    def test_reset(self):
        cache = PolicyCache(capacity=8)
        cache.put("u", "1", "read", RWX)
        cache.get("u", "1", "read")
        cache.stats.reset()
        assert cache.stats.lookups == 0
