"""Parallel suite engine: job expansion, result store, job runner.

The engine turns a sweep (benchmarks x samples x configurations) into
independent, deterministic jobs, serves repeats from a content-addressed
result store on disk, and runs the rest in the calling process (one
worker) or on a fork pool on this host (more).  Every executed result is
stored as it completes, so a killed run resumes by being rerun against
the same store.  See
``repro.harness.experiment.run_suite`` for the high-level entry point
that reassembles the jobs into a :class:`SuiteResult`.
"""

from repro.engine.jobs import (
    JobResult,
    SimJob,
    derive_seed,
    execute_job,
    expand_jobs,
)
from repro.engine.scheduler import (
    EngineStats,
    JobFailure,
    resolve_workers,
    run_jobs,
)
from repro.engine.store import (
    CACHE_SCHEMA,
    CacheStats,
    ShardedDiskStore,
    default_cache_dir,
    job_cache_key,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "ShardedDiskStore",
    "default_cache_dir",
    "job_cache_key",
    "JobResult",
    "SimJob",
    "derive_seed",
    "execute_job",
    "expand_jobs",
    "EngineStats",
    "JobFailure",
    "resolve_workers",
    "run_jobs",
]
