"""Run engine jobs: resume, cache, place, account and checkpoint.

``run_jobs`` turns a job list into results:

* **resume** (phase 0) — completed results replayed out of a checkpoint
  manifest (``resume=``) never execute again;
* **cache** (phase 1) — jobs whose window the result store already holds
  are served from it;
* **placement** (phase 2) — the remainder runs in the calling
  process when one worker resolves (``jobs=1``, ``backend="serial"``,
  or no ``fork``), and on a fork-based ``ProcessPoolExecutor`` of that
  many workers otherwise;
* **accounting** — results return in submission order regardless of
  completion order, failures are collected rather than raised, stats
  cover cache/resume/retry behavior;
* **checkpointing** — with ``checkpoint=<path>`` the driver rewrites a
  resumable manifest every ``checkpoint_interval`` completions (and at
  the end), so a SIGTERM'd campaign restarts from where it died.

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
    #: Results replayed from a checkpoint manifest (--resume).
    resumed: int = 0

    @property
    def backend(self) -> str:
        """Placement label (checkpoint manifests carry it)."""
        return "local-pool" if self.workers > 1 else "serial"

    def describe(self) -> str:
        parts = [
            "%d jobs" % self.jobs,
            "%d executed" % self.executed,
            "%d cache hits" % self.cache_hits,
            "%d workers" % self.workers,
            "%.2fs wall" % self.wall_seconds,
        ]
        if self.resumed:
            parts.append("%d resumed" % self.resumed)
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
    checkpoint: Optional[str] = None,
    checkpoint_interval: int = 25,
    checkpoint_label: str = "engine",
    resume: Optional[Union[str, dict]] = None,
) -> Tuple[List[JobResult], List[JobFailure], EngineStats]:
    """Execute every job; returns (results, failures, stats).

    ``results`` preserves the order of ``jobs_list`` (failed jobs are
    omitted and listed in ``failures`` instead).  ``backend="serial"``
    runs every job in this process; ``"local-pool"`` or ``None`` sizes
    the pool from ``jobs``.  ``checkpoint`` keeps a resumable manifest
    at that path, and ``resume`` replays one.
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
    # Span tracing (no-op when detached): one engine.run span for
    # the whole call, retroactive per-job queue/execute/cache-hit spans
    # from each job's submit, start and end times.  perf_counter times
    # convert to unix through one offset captured here.
    tracer = maybe_tracer()
    run_span = None
    unix_offset = 0.0
    if tracer is not None:
        unix_offset = time.time() - time.perf_counter()
        run_span = tracer.start_span(
            "engine.run", attrs={"jobs": len(jobs_list)},
        )
    slots: List[Optional[JobResult]] = [None] * len(jobs_list)
    failures: List[JobFailure] = []
    done_count = 0
    submit_times: Dict[int, float] = {}
    lock = threading.RLock()
    accounted: set = set()

    # Job keys are only needed by the checkpoint layer; hashing every
    # job is wasted work for plain runs.
    keys: Optional[List[str]] = None
    if checkpoint is not None or resume is not None:
        from repro.engine import checkpoint as ckpt

        keys = [ckpt.job_key(job) for job in jobs_list]
    since_checkpoint = 0

    def maybe_checkpoint(force: bool = False) -> None:
        # Caller holds `lock`.
        nonlocal since_checkpoint
        if checkpoint is None:
            return
        since_checkpoint += 1
        if not force and since_checkpoint < max(1, checkpoint_interval):
            return
        since_checkpoint = 0
        manifest = ckpt.build_checkpoint(
            jobs_list, keys, slots,
            label=checkpoint_label, backend=stats.backend,
            failures=failures,
        )
        try:
            ckpt.write_checkpoint(checkpoint, manifest)
        except OSError:
            pass  # checkpointing must never kill the run it protects

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
                now = time.perf_counter()
                submit = submit_times.get(index, start_wall) + unix_offset
                t_start = (result.t_start or 0) + unix_offset \
                    if result.t_start else submit
                t_end = (result.t_end or 0) + unix_offset \
                    if result.t_end else now + unix_offset
                attrs = {"job": result.job.describe()}
                if result.from_cache:
                    tracer.record(
                        "engine.cache.hit", t_end, t_end,
                        parent=run_span, attrs=attrs,
                    )
                else:
                    if result.retried:
                        attrs["retried"] = True
                    if result.resumed:
                        attrs["resumed"] = True
                    elif t_start > submit:
                        tracer.record(
                            "engine.queue", submit, t_start,
                            parent=run_span, attrs=attrs,
                        )
                    tracer.record(
                        "engine.execute", t_start, t_end,
                        parent=run_span, attrs=attrs,
                    )
            if result.resumed:
                stats.resumed += 1
            elif not result.from_cache:
                stats.executed += 1
                if cache is not None:
                    cache.store(result.job, result.window)
            maybe_checkpoint()
            if progress is not None:
                progress(done_count, len(jobs_list), result)

    def fail(job: SimJob, index: int, error: BaseException) -> None:
        nonlocal done_count
        with lock:
            if index in accounted:
                return
            accounted.add(index)
            done_count += 1
            failures.append(JobFailure(job=job, error=repr(error)))
            stats.failures += 1
            if tracer is not None:
                now_unix = time.time()
                submit = submit_times.get(index, start_wall) + unix_offset
                tracer.record(
                    "engine.execute", min(submit, now_unix), now_unix,
                    parent=run_span, status="error",
                    attrs={"job": job.describe(), "error": repr(error)},
                )
            maybe_checkpoint()
            if progress is not None:
                progress(done_count, len(jobs_list), None)

    def mark_submitted(index: int) -> None:
        with lock:
            submit_times[index] = time.perf_counter()

    def run_serially(index: int, job: SimJob, retried: bool) -> None:
        if retried:
            with lock:
                stats.retries += 1
        mark_submitted(index)
        try:
            result = execute_job(job)
        except BaseException as error:  # deterministic job failure
            fail(job, index, error)
            return
        result.retried = retried
        finish(index, result)

    # Phase 0: replay completed results out of a checkpoint manifest.
    todo: List[Tuple[int, SimJob]] = list(enumerate(jobs_list))
    if resume is not None:
        completed = ckpt.load_checkpoint(resume)
        still_todo = []
        for index, job in todo:
            entry = completed.get(keys[index])
            replay = ckpt.decode_result(job, entry) \
                if entry is not None else None
            if replay is not None:
                finish(index, replay)
            else:
                still_todo.append((index, job))
        todo = still_todo

    # Phase 1: serve whatever the result store already has.
    pending: List[Tuple[int, SimJob]] = []
    for index, job in todo:
        window = cache.load(job) if cache is not None else None
        if window is not None:
            finish(index, JobResult(job=job, window=window, from_cache=True))
        else:
            pending.append((index, job))
    if cache is not None:
        stats.cache_hits = cache.stats.hits

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
            with factory(max_workers=workers, mp_context=context) as pool:
                future_to_job = {}
                for index, job in pending:
                    mark_submitted(index)
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
                            # Worker died or the job raised: one serial
                            # retry in this process, then give up on it.
                            run_serially(index, job, True)
                        else:
                            finish(index, future.result())
        except BaseException:
            # The pool itself broke (fork refused, transport error,
            # keyboard interrupt inside shutdown...): degrade to serial
            # for everything still unaccounted for.
            stats.degraded = True
            for index, job in remaining:
                run_serially(index, job, True)

    with lock:
        maybe_checkpoint(force=True)
    if cache is not None:
        stats.stores = cache.stats.stores
    stats.wall_seconds = time.perf_counter() - start_wall
    results = [slot for slot in slots if slot is not None]
    if run_span is not None:
        run_span.attrs.update({
            "backend": stats.backend,
            "workers": stats.workers,
            "executed": stats.executed,
            "cache_hits": stats.cache_hits,
            "resumed": stats.resumed,
            "failures": stats.failures,
        })
        run_span.end(status="error" if failures else "ok")
    return results, failures, stats
