"""Kill-point tests for the two files the engine rewrites in place.

``ShardedDiskStore.store`` and ``write_checkpoint`` both write a
temporary file and ``os.replace`` it over the target.  Each test kills
the write at one step — a write that stops half-way, or an exception
from ``os.replace`` — once with a previous version on disk and once
without, then restarts: a fresh store's ``load`` must return the
previous window or ``None``, and ``read_checkpoint`` the previous
checkpoint or its one ``ValueError`` naming the file.  Neither may ever
return a torn result.  ``cache clear`` and ``cache gc`` must also sweep
the temporary file an interrupted store leaves behind.
"""

import json
import os
import re
import time
from pathlib import Path

import pytest

from repro.config import ConfigSpec, baseline_ooo
from repro.engine import expand_jobs
from repro.engine.checkpoint import (
    build_checkpoint,
    job_key,
    read_checkpoint,
    write_checkpoint,
)
from repro.engine.jobs import JobResult
from repro.engine.store import ShardedDiskStore
from repro.stats.counters import PipelineStats


class Crash(BaseException):
    """The process dies here (not an error anything may catch)."""


def half_write_text(self, data, *args, **kwargs):
    """``Path.write_text`` that dies after writing half its data."""
    with open(self, "w") as handle:
        handle.write(data[:len(data) // 2])
    raise Crash()


def half_dump(obj, handle, **kwargs):
    """``json.dump`` that dies after writing half the document."""
    text = json.dumps(obj, **kwargs)
    handle.write(text[:len(text) // 2])
    raise Crash()


def failing_replace(error):
    def replace(src, dst):
        raise error
    return replace


JOB = expand_jobs(
    ["exchange2"], [ConfigSpec("OoO", baseline_ooo())], 1, 300, 800, 2500
)[0]
OLD = PipelineStats(cycles=100, committed=50)
NEW = PipelineStats(cycles=300, committed=70)

#: (kill point, exception): the step that dies, and how.
KILLS = [
    ("write", Crash()),
    ("replace", Crash()),
    ("replace", OSError("disk full")),
]
KILL_IDS = ["half-write", "replace-dies", "replace-fails"]


def arm(patch, point, error, half_write):
    """Make the write die at *point*; *half_write* is the
    ``(owner, name, replacement)`` that stops the write half-way."""
    if point == "write":
        patch.setattr(*half_write)
    else:
        patch.setattr(os, "replace", failing_replace(error))


STORE_WRITE = (Path, "write_text", half_write_text)
CHECKPOINT_WRITE = (json, "dump", half_dump)


def leftovers(root: Path):
    return sorted(p.name for p in root.rglob("*.tmp.*"))


class TestStoreKillPoints:
    @pytest.mark.parametrize("point,error", KILLS, ids=KILL_IDS)
    @pytest.mark.parametrize("previous", [None, OLD], ids=["fresh", "over"])
    def test_restart_sees_previous_window_or_none(
        self, tmp_path, monkeypatch, point, error, previous,
    ):
        if previous is not None:
            ShardedDiskStore(tmp_path).store(JOB, previous)
        with monkeypatch.context() as patch:
            arm(patch, point, error, STORE_WRITE)
            try:
                ShardedDiskStore(tmp_path).store(JOB, NEW)
            except Crash:
                pass
        assert leftovers(tmp_path)  # the kill left the temporary file
        window = ShardedDiskStore(tmp_path).load(JOB)
        if previous is None:
            assert window is None
        else:
            assert window.to_dict() == previous.to_dict()

    @pytest.mark.parametrize("point,error", KILLS, ids=KILL_IDS)
    def test_clear_removes_leftover_and_shard(
        self, tmp_path, monkeypatch, point, error,
    ):
        store = ShardedDiskStore(tmp_path)
        store.store(JOB, OLD)
        with monkeypatch.context() as patch:
            arm(patch, point, error, STORE_WRITE)
            try:
                store.store(JOB, NEW)
            except Crash:
                pass
        assert store.size() == 1  # the leftover is not an entry
        assert store.clear() == 1
        assert list(tmp_path.iterdir()) == []

    def test_gc_expires_leftover_by_mtime(self, tmp_path, monkeypatch):
        store = ShardedDiskStore(tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(*STORE_WRITE)
            with pytest.raises(Crash):
                store.store(JOB, NEW)
        (leftover,) = tmp_path.rglob("*.tmp.*")
        assert store.gc(older_than_days=7) == 0
        assert leftover.exists()  # fresh: a writer may still own it
        stale = time.time() - 10 * 86_400
        os.utime(leftover, (stale, stale))
        assert store.gc(older_than_days=7) == 0  # not an entry
        assert list(tmp_path.iterdir()) == []


def manifest(window):
    keys = [job_key(JOB)]
    slots = [None if window is None else JobResult(job=JOB, window=window)]
    return build_checkpoint([JOB], keys, slots, label="kill")


class TestCheckpointKillPoints:
    @pytest.mark.parametrize("point,error", KILLS, ids=KILL_IDS)
    @pytest.mark.parametrize("previous", [None, OLD], ids=["fresh", "over"])
    def test_restart_sees_previous_checkpoint_or_error(
        self, tmp_path, monkeypatch, point, error, previous,
    ):
        path = tmp_path / "ck.json"
        before = manifest(previous) if previous is not None else None
        if before is not None:
            write_checkpoint(path, before)
        with monkeypatch.context() as patch:
            arm(patch, point, error, CHECKPOINT_WRITE)
            with pytest.raises((Crash, OSError)):
                write_checkpoint(path, manifest(NEW))
        if before is None:
            with pytest.raises(ValueError, match=re.escape(str(path))):
                read_checkpoint(str(path))
        else:
            assert read_checkpoint(str(path)) == before
