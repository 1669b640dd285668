"""Run engine jobs: serve from the store, place, account, store.

``run_jobs`` turns a job list into results:

* **store** (phase 1) — jobs whose result the result store already
  holds are served from it;
* **placement** (phase 2) — the remainder runs in the calling
  process when one worker resolves (``jobs=1``, ``backend="serial"``,
  or no ``fork``), and on a fork-based ``ProcessPoolExecutor`` of that
  many workers otherwise;
* **accounting** — results return in submission order regardless of
  completion order, failures are collected rather than raised, stats
  cover store hits and retries;
* **persistence** — each executed result goes into the store the
  moment it completes, so a killed run resumes by being rerun against
  the same store: only the jobs that had not finished execute.

Both placements produce bit-identical windows for the same job set
(pinned by ``tests/golden/backend_equivalence.json``): every job derives
its results purely from its own fields.  The completion callbacks are
serialized behind one lock and drop duplicate completions, so a job is
never accounted twice.  The failure contract: a job that dies on a
worker is retried once serially in this process; a job that also fails
serially becomes a :class:`JobFailure`; if the pool itself breaks,
everything still unaccounted for runs serially (``degraded``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.jobs import JobResult, SimJob, execute_job, forget_program
from repro.engine.store import ShardedDiskStore
from repro.obs.spans import maybe_tracer

#: progress callback: (jobs finished so far, total jobs, latest result).
ProgressFn = Callable[[int, int, JobResult], None]


@dataclass
class JobFailure:
    """One job that failed both in a worker and on the serial retry."""

    job: SimJob
    error: str


@dataclass
class EngineStats:
    """Accounting for one engine run (exposed as ``SuiteResult.engine``)."""

    jobs: int = 0
    executed: int = 0
    cache_hits: int = 0
    stores: int = 0
    retries: int = 0
    failures: int = 0
    workers: int = 1
    degraded: bool = False
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0
    job_seconds: Dict[Tuple[str, str, int], float] = field(
        default_factory=dict
    )

    def describe(self) -> str:
        parts = [
            "%d jobs" % self.jobs,
            "%d executed" % self.executed,
            "%d cache hits" % self.cache_hits,
            "%d workers" % self.workers,
            "%.2fs wall" % self.wall_seconds,
        ]
        if self.retries:
            parts.append("%d retried" % self.retries)
        if self.failures:
            parts.append("%d FAILED" % self.failures)
        if self.degraded:
            parts.append("degraded to serial")
        return ", ".join(parts)


def resolve_workers(jobs: Optional[int], pending: int) -> int:
    """Effective worker count: explicit > cpu_count, capped by work."""
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, int(jobs))
    if jobs > 1 and "fork" not in multiprocessing.get_all_start_methods():
        # No fork (e.g. some embedded interpreters): deterministic serial
        # fallback rather than paying spawn's re-import cost per worker.
        jobs = 1
    return max(1, min(jobs, pending))


def run_jobs(
    jobs_list: Sequence[SimJob],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ShardedDiskStore] = None,
    progress: Optional[ProgressFn] = None,
    executor_factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
    backend: Optional[str] = None,
) -> Tuple[List[JobResult], List[JobFailure], EngineStats]:
    """Execute every job; returns (results, failures, stats).

    ``results`` preserves the order of ``jobs_list`` (failed jobs are
    omitted and listed in ``failures`` instead).  ``backend="serial"``
    runs every job in this process; ``"local-pool"`` or ``None`` sizes
    the pool from ``jobs``.  With ``cache`` every job the store holds is
    served from it and every executed result is stored.
    """
    if backend not in (None, "serial", "local-pool"):
        raise ValueError(
            "unknown backend %r (expected 'serial' or 'local-pool')"
            % (backend,)
        )
    start_wall = time.perf_counter()
    # Jobs share a program within this sweep only (see SimJob.program).
    forget_program()
    stats = EngineStats(jobs=len(jobs_list))
    stores_before = cache.stats.stores if cache is not None else 0
    # Span tracing (no-op when detached): one engine.run span for the
    # whole call, and one engine.execute or engine.cache.hit span per
    # job, recorded from the times its result carries on the lane of
    # the process that ran it.
    tracer = maybe_tracer()
    run_span = None
    if tracer is not None:
        run_span = tracer.start_span(
            "engine.run", attrs={"jobs": len(jobs_list)},
        )
    slots: List[Optional[JobResult]] = [None] * len(jobs_list)
    failures: List[JobFailure] = []
    done_count = 0
    lock = threading.RLock()
    accounted: set = set()

    def finish(index: int, result: JobResult) -> None:
        nonlocal done_count
        with lock:
            if index in accounted:
                return  # duplicate completion: drop
            accounted.add(index)
            slots[index] = result
            done_count += 1
            stats.sim_seconds += result.elapsed
            stats.job_seconds[result.job.coordinates] = result.elapsed
            if tracer is not None:
                attrs = {"job": result.job.describe()}
                if result.from_cache:
                    now = time.perf_counter()
                    tracer.record("engine.cache.hit", now, now, attrs=attrs)
                else:
                    if result.retried:
                        attrs["retried"] = True
                    tracer.record(
                        "engine.execute", result.t_start, result.t_end,
                        lane=result.worker, attrs=attrs,
                    )
            if not result.from_cache:
                stats.executed += 1
                if cache is not None:
                    cache.store(result.job, result.window)
            if progress is not None:
                progress(done_count, len(jobs_list), result)

    def fail(job: SimJob, index: int, error: BaseException,
             start: float) -> None:
        nonlocal done_count
        with lock:
            if index in accounted:
                return
            accounted.add(index)
            done_count += 1
            failures.append(JobFailure(job=job, error=repr(error)))
            stats.failures += 1
            if tracer is not None:
                tracer.record(
                    "engine.execute", start, time.perf_counter(),
                    status="error",
                    attrs={"job": job.describe(), "error": repr(error)},
                )
            if progress is not None:
                progress(done_count, len(jobs_list), None)

    def run_serially(index: int, job: SimJob, retried: bool) -> None:
        if retried:
            with lock:
                stats.retries += 1
        start = time.perf_counter()
        try:
            result = execute_job(job)
        except BaseException as error:  # deterministic job failure
            fail(job, index, error, start)
            return
        result.retried = retried
        finish(index, result)

    try:
        # Phase 1: serve whatever the result store already has.
        pending: List[Tuple[int, SimJob]] = []
        for index, job in enumerate(jobs_list):
            window = cache.load(job) if cache is not None else None
            if window is not None:
                stats.cache_hits += 1
                finish(index, JobResult(
                    job=job, window=window, from_cache=True,
                ))
            else:
                pending.append((index, job))

        # Phase 2: run the misses in this process, or on a fork pool.
        workers = 1 if backend == "serial" else \
            resolve_workers(jobs, len(pending))
        stats.workers = workers
        if workers == 1:
            for index, job in pending:
                run_serially(index, job, False)
        else:
            remaining = list(pending)
            try:
                factory = executor_factory or ProcessPoolExecutor
                context = multiprocessing.get_context("fork")
                with factory(
                    max_workers=workers, mp_context=context,
                ) as pool:
                    future_to_job = {}
                    for index, job in pending:
                        future_to_job[pool.submit(execute_job, job)] = (
                            index, job
                        )
                    not_done = set(future_to_job)
                    while not_done:
                        finished, not_done = wait(
                            not_done, return_when=FIRST_COMPLETED
                        )
                        for future in finished:
                            index, job = future_to_job[future]
                            remaining.remove((index, job))
                            if future.exception() is not None:
                                # Worker died or the job raised: one
                                # serial retry in this process, then
                                # give up on it.
                                run_serially(index, job, True)
                            else:
                                finish(index, future.result())
            except BaseException:
                # The pool itself broke (fork refused, transport
                # error, keyboard interrupt inside shutdown...):
                # degrade to serial for everything still unaccounted
                # for.
                stats.degraded = True
                for index, job in remaining:
                    run_serially(index, job, True)
    except BaseException:
        # Not a job failure (those are accounted above): the store, the
        # progress callback or an interrupt raised.  The run span still
        # ends, so a trace it roots is still written.
        if run_span is not None:
            run_span.end("error")
        raise

    if cache is not None:
        stats.stores = cache.stats.stores - stores_before
    stats.wall_seconds = time.perf_counter() - start_wall
    results = [slot for slot in slots if slot is not None]
    if run_span is not None:
        run_span.attrs.update({
            "workers": stats.workers,
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "failures": stats.failures,
        })
        run_span.end(status="error" if failures else "ok")
    return results, failures, stats
