"""The result store: content-addressed window storage on disk.

Every job's measurement window is stored as JSON keyed by a SHA-256 over
the complete job identity (:func:`job_cache_key`): machine configuration
(:meth:`repro.config.SimConfig.cache_key`), workload spec, sampling
parameters, and the code version.  Jobs are deterministic, so a key hit
replaces a simulation outright; any change to configuration, workload,
sampling, or code version changes the key and transparently invalidates
the entry.

:class:`ShardedDiskStore` keeps the entries as JSON files under
``results/.cache/<kk>/<key>.json``.  Set ``REPRO_CACHE_DIR`` to
relocate it; delete the directory (or run ``nda-repro cache clear``) to
drop it; ``nda-repro cache gc --older-than N`` expires stale entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.engine.jobs import SimJob
from repro.stats.counters import PipelineStats

#: Bump to invalidate every cached window after a change to the simulator
#: that alters results without changing any SimConfig field.
#: Schema 2: scheme registry refactor (string scheme names + per-scheme
#: parameter blocks folded into SimConfig.cache_key()).
#: Schema 3: workload generator data-RNG derivation changed to
#: collision-free string sub-seeding (same (benchmark, seed) job now
#: measures a different generated data image).
CACHE_SCHEMA = 3


def _code_version() -> str:
    from repro import __version__

    return "%s/schema%d" % (__version__, CACHE_SCHEMA)


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", "results/.cache"))


def job_cache_key(job: SimJob) -> str:
    """Stable key capturing everything that determines a job's window."""
    payload = json.dumps({
        "code": _code_version(),
        "config": job.config.cache_key(),
        # The scheme name is already inside config.cache_key(); naming it
        # here keeps scheme collisions impossible even if a future
        # SimConfig refactor drops it from to_dict().
        "scheme": job.config.scheme,
        "in_order": job.in_order,
        "benchmark": job.benchmark,
        "instructions": job.instructions,
        "seed": job.seed,
        "warmup": job.warmup,
        "measure": job.measure,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one engine run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def describe(self) -> str:
        return "%d hits, %d misses, %d stored" % (
            self.hits, self.misses, self.stores,
        )


def _entry_payload(job: SimJob, key: str, window: PipelineStats) -> dict:
    """The JSON document stored per window."""
    return {
        "key": key,
        "benchmark": job.benchmark,
        "label": job.label,
        "sample_index": job.sample_index,
        "seed": job.seed,
        "code": _code_version(),
        "window": window.to_dict(),
    }


class ShardedDiskStore:
    """JSON result store keyed by :func:`job_cache_key`, sharded on disk.

    Layout: ``<root>/<key[:2]>/<key>.json``.  Walks, counts, and deletes
    tolerate concurrent writers — a file or shard directory vanishing
    mid-operation (another worker's ``gc``, a parallel ``clear``) is
    skipped, never raised.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def load(self, job: SimJob) -> Optional[PipelineStats]:
        """Return the cached window for *job*, or None on a miss.

        Unreadable or corrupt entries count as misses (and are removed),
        so a damaged cache degrades to re-simulation, never to an error.
        """
        path = self._path(job_cache_key(job))
        try:
            payload = json.loads(path.read_text())
            window = PipelineStats.from_dict(payload["window"])
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            self.stats.errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        return window

    def store(self, job: SimJob, window: PipelineStats) -> None:
        """Persist one window (atomic write; failures are non-fatal)."""
        key = job_cache_key(job)
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp.%d" % os.getpid())
            tmp.write_text(
                json.dumps(_entry_payload(job, key, window), sort_keys=True)
            )
            os.replace(tmp, path)
            self.stats.stores += 1
        except OSError:
            self.stats.errors += 1

    # ------------------------------------------------------------------ #
    # Maintenance (tolerant of concurrent writers by construction).
    # ------------------------------------------------------------------ #

    def _iter_entries(self):
        """Yield every entry (``*.json``) and every leftover of an
        interrupted :meth:`store` (``*.tmp.<pid>``); directories
        vanishing mid-walk are skipped."""
        stack = [self.root]
        while stack:
            directory = stack.pop()
            try:
                entries = list(os.scandir(directory))
            except OSError:
                continue  # shard removed under us
            for entry in entries:
                try:
                    if entry.is_dir(follow_symlinks=False):
                        stack.append(Path(entry.path))
                    elif entry.name.endswith(".json") or \
                            ".tmp." in entry.name:
                        yield Path(entry.path)
                except OSError:
                    continue  # entry removed under us

    def clear(self) -> int:
        """Delete every cache entry and write leftover; returns the
        number of entries removed."""
        removed = 0
        for path in sorted(self._iter_entries()):
            try:
                path.unlink()
            except OSError:
                continue  # a concurrent clear/gc got there first
            removed += path.suffix == ".json"
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return removed
        for shard in sorted(shards):
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return removed

    def size(self) -> int:
        """Number of entries currently on disk."""
        return sum(
            1 for path in self._iter_entries() if path.suffix == ".json"
        )

    def gc(self, older_than_days: float, now: Optional[float] = None) -> int:
        """Expire entries and write leftovers older than
        *older_than_days*; returns the number of entries removed.

        Age is the file's mtime — a window re-stored counts as fresh.
        Empty shard directories left behind are pruned.
        """
        cutoff = (now if now is not None else time.time()) \
            - older_than_days * 86_400.0
        removed = 0
        for path in sorted(self._iter_entries()):
            try:
                if path.stat().st_mtime >= cutoff:
                    continue
                path.unlink()
            except OSError:
                continue  # vanished or unreadable mid-scan: skip
            removed += path.suffix == ".json"
        try:
            shards = list(self.root.iterdir())
        except OSError:
            return removed
        for shard in shards:
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when empty
                except OSError:
                    pass
        return removed

