"""The disk result store: sharding, flat-layout migration, and gc."""

import os
import time

import pytest

from repro.config import ConfigSpec, baseline_ooo
from repro.engine import expand_jobs, execute_job, job_cache_key
from repro.engine.store import ShardedDiskStore


def tiny_jobs(n=3):
    jobs = expand_jobs(
        ["exchange2"], [ConfigSpec("OoO", baseline_ooo())], n,
        300, 800, 2500,
    )
    assert len(jobs) == n
    return jobs


@pytest.fixture(scope="module")
def executed():
    """Three (job, window) pairs, simulated once for the whole module."""
    jobs = tiny_jobs()
    return [(job, execute_job(job).window) for job in jobs]


class TestShardedLayout:
    def test_entries_land_in_two_hex_shards(self, tmp_path, executed):
        store = ShardedDiskStore(tmp_path)
        job, window = executed[0]
        store.store(job, window)
        key = job_cache_key(job)
        path = tmp_path / key[:2] / (key + ".json")
        assert path.is_file()
        assert store.load(job).to_dict() == window.to_dict()

    def test_flat_layout_entry_migrates_on_first_touch(
        self, tmp_path, executed,
    ):
        store = ShardedDiskStore(tmp_path)
        job, window = executed[0]
        store.store(job, window)
        key = job_cache_key(job)
        sharded = tmp_path / key[:2] / (key + ".json")
        flat = tmp_path / (key + ".json")
        # Rewind to the pre-shard layout by hand...
        os.replace(sharded, flat)
        sharded.parent.rmdir()
        # ... and the first load both hits and migrates.
        assert store.load(job) is not None
        assert sharded.is_file()
        assert not flat.exists()

    def test_load_misses_then_hits(self, tmp_path, executed):
        store = ShardedDiskStore(tmp_path)
        job, window = executed[0]
        assert store.load(job) is None
        store.store(job, window)
        assert store.load(job).to_dict() == window.to_dict()
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_size_and_clear_count_both_layouts(self, tmp_path, executed):
        store = ShardedDiskStore(tmp_path)
        for job, window in executed:
            store.store(job, window)
        key = job_cache_key(executed[0][0])
        os.replace(
            tmp_path / key[:2] / (key + ".json"),
            tmp_path / (key + ".json"),
        )
        assert store.size() == len(executed)
        assert store.clear() == len(executed)
        assert store.size() == 0
        # Empty shard directories are pruned too.
        assert [p for p in tmp_path.iterdir() if p.is_dir()] == []

    def test_gc_expires_by_mtime_and_prunes_shards(
        self, tmp_path, executed,
    ):
        store = ShardedDiskStore(tmp_path)
        for job, window in executed:
            store.store(job, window)
        old_key = job_cache_key(executed[0][0])
        old_path = tmp_path / old_key[:2] / (old_key + ".json")
        stale = time.time() - 10 * 86_400
        os.utime(old_path, (stale, stale))
        assert store.gc(older_than_days=7) == 1
        assert not old_path.exists()
        assert store.size() == len(executed) - 1
        assert store.gc(older_than_days=7) == 0  # idempotent

    def test_clear_tolerates_concurrent_removal(
        self, tmp_path, executed,
    ):
        store = ShardedDiskStore(tmp_path)
        for job, window in executed:
            store.store(job, window)

        sabotaged = ShardedDiskStore(tmp_path)
        original = sabotaged._iter_entries

        def racing_iter():
            # Another process clears the cache between our walk and our
            # unlinks: everything vanishes mid-operation.
            paths = list(original())
            store.clear()
            return iter(paths)

        sabotaged._iter_entries = racing_iter
        assert sabotaged.clear() == 0  # nothing left to us, no raise
        assert sabotaged.size() == 0

