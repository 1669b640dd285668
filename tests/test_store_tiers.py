"""The tiered result store: sharding, migration, gc, and the HTTP tier.

The remote-tier tests run against a real background :class:`ReproServer`
so every byte crosses the actual ``/v1/artifacts`` routes.
"""

import json
import os
import time

import pytest

from repro.config import ConfigSpec, baseline_ooo
from repro.engine import expand_jobs, execute_job, job_cache_key, run_jobs
from repro.engine.store import (
    RemoteArtifactStore,
    ShardedDiskStore,
    TieredStore,
    open_store,
)
from repro.server import ReproServer


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


@pytest.fixture
def server(tmp_path):
    srv = ReproServer(
        queue_dir=tmp_path / "queue", cache_dir=tmp_path / "srv-cache",
    )
    host, port = srv.start_background()
    yield "http://%s:%d" % (host, port)
    srv.close()


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

    def test_has_probes_without_accounting(self, tmp_path, executed):
        store = ShardedDiskStore(tmp_path)
        job, window = executed[0]
        assert not store.has(job)
        store.store(job, window)
        assert store.has(job)
        assert store.stats.hits == 0
        assert store.stats.misses == 0

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


class TestRemoteTier:
    def test_round_trip_through_a_live_server(self, server, executed):
        remote = RemoteArtifactStore(server)
        job, window = executed[0]
        assert remote.load(job) is None
        remote.store(job, window)
        assert remote.stats.stores == 1
        assert remote.has(job)
        assert remote.load(job).to_dict() == window.to_dict()
        assert remote.stats.hits == 1

    def test_dead_server_degrades_to_misses(self, executed):
        remote = RemoteArtifactStore("http://127.0.0.1:9", timeout=0.3)
        job, window = executed[0]
        assert remote.load(job) is None
        remote.store(job, window)  # must not raise
        assert remote.stats.errors >= 2

    def test_rejects_non_http_urls(self):
        with pytest.raises(ValueError, match="http"):
            RemoteArtifactStore("ftp://example.com")

    def test_payload_matches_the_disk_tier_document(
        self, server, tmp_path, executed,
    ):
        # Both tiers must write the same JSON document, or a window
        # stored by one host is unreadable to another.
        disk = ShardedDiskStore(tmp_path / "local")
        remote = RemoteArtifactStore(server)
        job, window = executed[0]
        disk.store(job, window)
        remote.store(job, window)
        key = job_cache_key(job)
        local_doc = json.loads(
            (tmp_path / "local" / key[:2] / (key + ".json")).read_text()
        )
        status, remote_doc = remote._request(
            "GET", "/v1/artifacts/%s" % key
        )
        assert status == 200
        assert remote_doc == local_doc


class TestTieredStore:
    def test_remote_hit_fills_local_read_through(
        self, server, tmp_path, executed,
    ):
        job, window = executed[0]
        RemoteArtifactStore(server).store(job, window)
        local = ShardedDiskStore(tmp_path / "local")
        tiered = TieredStore(local, RemoteArtifactStore(server))
        assert tiered.load(job).to_dict() == window.to_dict()
        # The fill: the next load is served from disk.
        assert local.size() == 1
        assert local.load(job) is not None

    def test_store_lands_in_both_tiers(self, server, tmp_path, executed):
        job, window = executed[0]
        local = ShardedDiskStore(tmp_path / "local")
        remote = RemoteArtifactStore(server)
        TieredStore(local, remote).store(job, window)
        assert local.size() == 1
        assert RemoteArtifactStore(server).load(job) is not None

    def test_engine_run_shares_windows_between_hosts(
        self, server, tmp_path, executed,
    ):
        """Two 'hosts' (separate local dirs) share one remote tier."""
        jobs = [job for job, _window in executed]
        _, _, host_a = run_jobs(
            jobs, cache=open_store(tmp_path / "a", remote=server), jobs=1,
        )
        assert host_a.executed == len(jobs)
        _, _, host_b = run_jobs(
            jobs, cache=open_store(tmp_path / "b", remote=server), jobs=1,
        )
        assert host_b.executed == 0
        assert host_b.cache_hits == len(jobs)


class TestOpenStore:
    def test_compositions(self, tmp_path):
        assert isinstance(open_store(tmp_path), ShardedDiskStore)
        tiered = open_store(tmp_path, remote="http://127.0.0.1:1")
        assert isinstance(tiered, TieredStore)
        assert isinstance(tiered.remote, RemoteArtifactStore)
        passthrough = ShardedDiskStore(tmp_path)
        assert open_store(passthrough) is passthrough
