"""Job driver: cache, checkpoint, and account; backends place the work.

``run_jobs`` owns everything about a sweep that does *not* depend on
where jobs execute:

* **resume** (phase 0) — completed results replayed out of a checkpoint
  manifest (``resume=``) never execute again;
* **cache** (phase 1) — jobs whose window the result store already holds
  are served from it;
* **placement** (phase 2) — the remainder goes to one
  :class:`~repro.engine.backends.ExecutionBackend` (``backend=`` by name
  or instance; default: ``local-pool`` when more than one worker
  resolves, else ``serial``);
* **accounting** — results return in submission order regardless of
  completion order, failures are collected rather than raised, stats
  cover cache/resume/retry/lease behavior;
* **checkpointing** — with ``checkpoint=<path>`` the driver rewrites a
  resumable manifest every ``checkpoint_interval`` completions (and at
  the end), so a SIGTERM'd campaign restarts from where it died.

The driver's completion callbacks are serialized behind one lock and
drop duplicate completions (a worker whose lease expired may still
report), so backends are free to call them from handler threads.  The
historical failure contract is unchanged: a job that dies on a worker is
retried once serially in the driver; a job that also fails serially
becomes a :class:`JobFailure`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.backends import (
    BackendContext,
    ExecutionBackend,
    LocalPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.engine.jobs import JobResult, SimJob, execute_job, forget_program
from repro.engine.store import ResultStore
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
    cache_misses: int = 0
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
    # Per-job spans (submit/start/end on perf_counter's clock) gathered
    # only when run_jobs(collect_trace=True); feeds the Perfetto export
    # (repro.obs.perfetto.engine_trace_events).
    job_trace: List[dict] = field(default_factory=list)
    #: Which execution backend placed the work (stats label).
    backend: str = "serial"
    #: Results replayed from a checkpoint manifest (--resume).
    resumed: int = 0
    #: Worker-protocol lease grants / re-queues (0 on other backends).
    leases: int = 0
    lease_requeues: int = 0

    def describe(self) -> str:
        parts = [
            "%d jobs" % self.jobs,
            "%d executed" % self.executed,
            "%d cache hits" % self.cache_hits,
            "%d workers" % self.workers,
            "%.2fs wall" % self.wall_seconds,
        ]
        if self.backend != "local-pool" and self.workers > 1:
            parts.insert(4, "via %s" % self.backend)
        if self.resumed:
            parts.append("%d resumed" % self.resumed)
        if self.retries:
            parts.append("%d retried" % self.retries)
        if self.lease_requeues:
            parts.append("%d leases requeued" % self.lease_requeues)
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
    cache: Optional[ResultStore] = None,
    progress: Optional[ProgressFn] = None,
    executor_factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
    collect_trace: bool = False,
    backend: Optional[Union[str, ExecutionBackend]] = None,
    backend_options: Optional[dict] = None,
    checkpoint: Optional[str] = None,
    checkpoint_interval: int = 25,
    checkpoint_label: str = "engine",
    resume: Optional[Union[str, dict]] = None,
) -> Tuple[List[JobResult], List[JobFailure], EngineStats]:
    """Execute every job; returns (results, failures, stats).

    ``results`` preserves the order of ``jobs_list`` (failed jobs are
    omitted and listed in ``failures`` instead).  ``collect_trace``
    records a per-job span table into ``stats.job_trace``.  ``backend``
    selects placement (see :mod:`repro.engine.backends`); ``checkpoint``
    keeps a resumable manifest at that path, and ``resume`` replays one.
    """
    start_wall = time.perf_counter()
    # Jobs share a program within this sweep only (see SimJob.program).
    forget_program()
    stats = EngineStats(jobs=len(jobs_list))
    # Distributed tracing (no-op when detached): one engine.run span for
    # the whole call, retroactive per-job queue/execute/cache-hit spans
    # from the same timestamps the job trace uses.  perf_counter times
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
                return  # duplicate completion (e.g. expired lease): drop
            accounted.add(index)
            slots[index] = result
            done_count += 1
            stats.sim_seconds += result.elapsed
            stats.job_seconds[result.job.coordinates] = result.elapsed
            if collect_trace:
                now = time.perf_counter()
                submit = submit_times.get(index, start_wall)
                stats.job_trace.append({
                    "name": result.job.describe(),
                    "submit": submit,
                    "start": result.t_start or submit,
                    "end": result.t_end or now,
                    "from_cache": result.from_cache,
                    "retried": result.retried,
                })
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
        stats.cache_misses = cache.stats.misses

    # Phase 2: hand the misses to an execution backend.
    workers = resolve_workers(jobs, len(pending))
    if backend is None:
        backend_obj: ExecutionBackend = (
            LocalPoolBackend() if workers > 1 else SerialBackend()
        )
    elif isinstance(backend, str):
        backend_obj = make_backend(backend, **(backend_options or {}))
    else:
        backend_obj = backend
    if isinstance(backend_obj, SerialBackend):
        workers = 1
    stats.workers = workers
    stats.backend = backend_obj.name

    if pending:
        context = BackendContext(
            stats=stats,
            finish=finish,
            fail=fail,
            run_serially=run_serially,
            mark_submitted=mark_submitted,
            workers=workers,
            requested_jobs=jobs,
            executor_factory=executor_factory,
            traceparent=(
                run_span.traceparent() if run_span is not None else None
            ),
        )
        backend_obj.run(pending, context)

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
