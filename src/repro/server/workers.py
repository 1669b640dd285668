"""Worker pool: threads draining the durable queue through the engine.

Each worker claims the best eligible job from the
:class:`~repro.server.queue.DurableQueue`, executes it via the job-kind
executors in :mod:`repro.server.jobspec` (which all funnel into
:func:`repro.engine.run_jobs`, so sweep, attack, and fuzz jobs share the
``SimJob``/``FuzzJob``/``AttackJob`` polymorphic contract), stores the
result envelope in the content-addressed artifact store, and marks the
record done.  A job that raises is handed back to the queue, which
retries it with backoff until ``max_retries`` is spent and then parks it
as ``failed`` — one poisoned job can never wedge the pool.

Workers are *threads*, not processes: a simulation job spends its time
inside the engine, which can fan out to its own process pool
(``engine_jobs``); the threads only coordinate.  ``engine_jobs=1`` (the
default) keeps everything in-process, which is the safe choice when the
server embeds in tests.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Optional

from repro.obs.log import get_logger
from repro.obs.spans import parse_traceparent
from repro.server.jobspec import EXECUTORS
from repro.server.queue import ArtifactStore, DurableQueue, JobRecord


class WorkerPool:
    """N daemon threads running the claim/execute/complete loop."""

    def __init__(
        self,
        queue: DurableQueue,
        artifacts: ArtifactStore,
        *,
        cache=None,
        workers: int = 1,
        engine_jobs: int = 1,
        metrics=None,
        claim_timeout: float = 0.2,
        tracer=None,
    ) -> None:
        self.queue = queue
        self.artifacts = artifacts
        self.cache = cache
        self.workers = max(1, int(workers))
        self.engine_jobs = engine_jobs
        self.metrics = metrics
        self.claim_timeout = claim_timeout
        self.tracer = tracer
        self.log = get_logger("server")
        self.executed = 0  # jobs this pool ran (cache short-circuits skip it)
        self._threads: list = []
        self._stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #

    def start(self) -> "WorkerPool":
        if self._threads:
            return self
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name="repro-worker-%d" % index,
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def _loop(self) -> None:
        while not self._stop.is_set():
            record = self.queue.claim(timeout=self.claim_timeout)
            if record is None:
                continue
            self.run_job(record)

    # ------------------------------------------------------------------ #
    # Execution.
    # ------------------------------------------------------------------ #

    def run_job(self, record: JobRecord, cached: bool = False) -> JobRecord:
        """Execute one claimed record end to end (also used inline by
        the submission path for warm-cache short-circuits, which pass
        ``cached=True`` to stamp the record)."""
        tracer = self.tracer
        if tracer is None:
            return self._run_job(record, cached)
        parent = record.traceparent or None
        # Queue wait is reconstructed from the durable record's own
        # timestamps, so it is exact even though the span is recorded
        # only now, at claim time.
        if not cached and record.submitted_unix:
            claimed = record.started_unix or time.time()
            if claimed > record.submitted_unix:
                tracer.record(
                    "queue.wait", record.submitted_unix, claimed,
                    parent=parent,
                    attrs={"job_id": record.id, "kind": record.kind,
                           "attempt": record.attempts},
                )
        with tracer.span(
            "job.execute", parent=parent,
            attrs={"job_id": record.id, "kind": record.kind,
                   "cached": bool(cached)},
        ) as span:
            updated = self._run_job(record, cached)
            if updated.state == "failed" or updated.error:
                span.attrs["state"] = updated.state
                span.end(status="error")
        return updated

    def _run_job(self, record: JobRecord, cached: bool) -> JobRecord:
        context = parse_traceparent(record.traceparent)
        trace_id = context.trace_id if context is not None else None
        try:
            envelope, engine_stats = EXECUTORS[record.kind](
                record.spec, **(
                    {"cache": self.cache, "engine_jobs": self.engine_jobs}
                    if record.kind == "sweep"
                    else {"engine_jobs": self.engine_jobs}
                )
            )
        except BaseException as error:
            detail = "%s: %s" % (type(error).__name__, error)
            if self.metrics is not None:
                self.metrics.counter(
                    "server_job_errors_total", "job executions that raised"
                ).labels(kind=record.kind).inc()
            updated = self.queue.fail(record.id, detail)
            if updated.state == "failed" and self.metrics is not None:
                self.metrics.counter(
                    "server_jobs_failed_total",
                    "jobs that exhausted their retries",
                ).labels(kind=record.kind).inc()
            # Keep the traceback out of the record but visible to a log
            # reader: workers are headless, so swallowing it entirely
            # would make genuine simulator bugs undebuggable.
            updated.artifacts.setdefault(
                "last_traceback",
                self.artifacts.store({
                    "error": detail,
                    "traceback": traceback.format_exc(),
                }),
            )
            self.log.error(
                "job.failed", job_id=record.id, kind=record.kind,
                state=updated.state, error=detail, trace_id=trace_id,
            )
            return updated
        self.executed += 1
        result_key = self.artifacts.store(envelope)
        artifacts = {"result": result_key}
        if "trace_events" in envelope:
            artifacts["trace"] = self.artifacts.store({
                "traceEvents": envelope["trace_events"],
                "displayTimeUnit": "ms",
            })
        if self.metrics is not None:
            self._ingest(record, engine_stats)
        self.log.info(
            "job.done", job_id=record.id, kind=record.kind,
            cached=bool(cached), trace_id=trace_id,
        )
        return self.queue.complete(
            record.id, result_key=result_key, artifacts=artifacts,
            cached=cached,
        )

    def _ingest(self, record: JobRecord, engine_stats) -> None:
        self.metrics.counter(
            "server_jobs_completed_total", "jobs finished successfully"
        ).labels(kind=record.kind).inc()
        if record.retries:
            self.metrics.counter(
                "server_job_retries_total",
                "extra executions after a failure",
            ).labels(kind=record.kind).inc(record.retries)
        if engine_stats is not None:
            self.metrics.ingest_engine_stats(engine_stats, kind=record.kind)
        if self.cache is not None:
            self._sync_cache_metrics()

    def _sync_cache_metrics(self) -> None:
        """Mirror the shared result store counters into gauges.

        The cache object is cumulative across jobs, so counters would
        double-count; gauges track the live totals instead.
        """
        for name in ("hits", "misses", "stores", "errors"):
            self.metrics.gauge(
                "server_result_cache_" + name,
                "shared result-cache accounting",
            ).labels().set(getattr(self.cache.stats, name))


def run_one(record: JobRecord, pool: WorkerPool) -> Optional[JobRecord]:
    """Claim-free single execution helper (submission short-circuit)."""
    return pool.run_job(record)
