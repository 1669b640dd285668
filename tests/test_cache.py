"""Unit tests for the tag-array caches and their LRU replacement."""

import random

import pytest

from repro.config import CacheConfig
from repro.memory.cache import Cache
from repro.memory.replacement import LRUPolicy


def small_cache(assoc=2, sets=4, line=64) -> Cache:
    config = CacheConfig(
        size_bytes=assoc * sets * line,
        line_bytes=line,
        assoc=assoc,
        round_trip_cycles=4,
    )
    return Cache(config, "test")


class TestCacheBasics:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x1000)
        assert cache.access(0x1000)

    def test_same_line_different_bytes_hit(self):
        cache = small_cache()
        cache.access(0x1000)
        assert cache.access(0x103F)
        assert not cache.access(0x1040)  # next line

    def test_probe_is_non_destructive(self):
        cache = small_cache()
        assert not cache.probe(0x1000)
        assert cache.stats.accesses == 0
        cache.access(0x1000)
        assert cache.probe(0x1000)

    def test_no_fill_access_leaves_no_state(self):
        cache = small_cache()
        assert not cache.access(0x1000, fill=False)
        assert not cache.probe(0x1000)

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0x1000)
        assert cache.invalidate(0x1000)
        assert not cache.probe(0x1000)
        assert not cache.invalidate(0x1000)  # already gone

    def test_stats_accounting(self):
        cache = small_cache()
        cache.access(0x1000)
        cache.access(0x1000)
        cache.access(0x2000)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.fills == 2
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    def test_fill_installs_line(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.probe(0x1000)
        cache.fill(0x1000)  # idempotent
        assert cache.resident_lines() == 1

    def test_flush_all(self):
        cache = small_cache()
        cache.access(0x1000)
        cache.access(0x2000)
        cache.flush_all()
        assert cache.resident_lines() == 0

    def test_flush_all_restores_fresh_state(self):
        """A flushed cache replays like a new one."""
        rng = random.Random(7)
        addrs = [rng.randrange(64) * 64 for _ in range(400)]
        fresh = small_cache(assoc=4)
        flushed = small_cache(assoc=4)
        for addr in addrs:
            flushed.access(addr)
        flushed.flush_all()
        assert [flushed.access(a) for a in addrs] == \
            [fresh.access(a) for a in addrs]


class TestEviction:
    def test_lru_eviction_order(self):
        cache = small_cache(assoc=2, sets=1)
        cache.access(0x000)  # A
        cache.access(0x040)  # B
        cache.access(0x000)  # touch A: B is now LRU
        cache.access(0x080)  # C evicts B
        assert cache.probe(0x000)
        assert not cache.probe(0x040)
        assert cache.probe(0x080)

    def test_set_isolation(self):
        cache = small_cache(assoc=1, sets=4)
        cache.access(0x000)
        cache.access(0x040)  # different set
        assert cache.probe(0x000)

    def test_capacity(self):
        cache = small_cache(assoc=2, sets=4)
        for i in range(16):
            cache.access(i * 64)
        assert cache.resident_lines() == 8

    def test_wrong_path_fills_persist(self):
        """The property every cache attack relies on: fills are permanent."""
        cache = small_cache()
        cache.access(0xDEAD000)  # a "wrong path" access
        # There is no undo API at all — the state simply persists.
        assert cache.probe(0xDEAD000)


class TestReplacementPolicies:
    def test_lru_victim_least_recent(self):
        policy = LRUPolicy(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        policy.touch(0)
        assert policy.victim() == 1

    def test_lru_forget(self):
        policy = LRUPolicy(2)
        policy.touch(0)
        policy.touch(1)
        policy.forget(0)
        assert policy.recency_order() == [1]
