"""Parallel suite engine: job expansion, result store, job runner.

The engine turns a sweep (benchmarks x samples x configurations) into
independent, deterministic jobs, serves repeats from a content-addressed
result store on disk, and runs the rest in the calling process (one
worker) or on a fork pool on this host (more).  Long runs checkpoint their
progress into a resumable manifest (``checkpoint=``/``resume=``).  See
``repro.harness.experiment.run_suite`` for the high-level entry point
that reassembles the jobs into a :class:`SuiteResult`.
"""

from repro.engine.checkpoint import (
    build_checkpoint,
    decode_result,
    encode_result,
    job_key,
    load_checkpoint,
    write_checkpoint,
)
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
    "build_checkpoint",
    "decode_result",
    "encode_result",
    "job_key",
    "load_checkpoint",
    "write_checkpoint",
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
