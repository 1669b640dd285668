"""The ExecutionBackend interface: *how* the engine's jobs run.

``run_jobs`` (the driver) owns all policy that is independent of
placement — cache/resume phases, result ordering, checkpointing,
accounting — and hands the remaining pending jobs to one backend.  The
backend's whole contract is :meth:`ExecutionBackend.run`: execute every
``(index, job)`` pair it was given and report each one exactly once
through the :class:`BackendContext` callbacks.

The callbacks are thread-safe (the driver serializes them behind one
lock and drops duplicate completions).  Because every job derives its
results purely from its own fields, any backend that faithfully runs
``execute_job(job)`` produces bit-identical windows; the golden test
``tests/golden/backend_equivalence.json`` pins that for both built-ins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.engine.jobs import JobResult


@dataclass
class BackendContext:
    """What the driver lends a backend for one ``run_jobs`` call.

    ``finish``/``fail``/``run_serially`` are the driver's accounting
    entry points (thread-safe, duplicate-tolerant):

    * ``finish(index, result)`` — a job completed with *result*.
    * ``fail(job, index, error)`` — a job failed terminally (after the
      backend exhausted its own retries).
    * ``run_serially(index, job, retried)`` — execute the job in the
      driver's process right now; counts a retry when ``retried``.  This
      is the shared degrade/retry path every backend funnels into.
    * ``mark_submitted(index)`` — timestamp a job's hand-off for the
      engine trace (call just before shipping it to a worker).
    """

    stats: object  # EngineStats (duck-typed to avoid a scheduler import)
    finish: Callable[[int, JobResult], None]
    fail: Callable[[object, int, BaseException], None]
    run_serially: Callable[[int, object, bool], None]
    mark_submitted: Callable[[int], None] = lambda index: None
    #: Effective worker count the driver resolved (pool size).
    workers: int = 1
    #: Test seam for the local pool (ProcessPoolExecutor-compatible).
    executor_factory: Optional[Callable] = None


class ExecutionBackend:
    """Base class: executes pending jobs, reports through the context."""

    #: Registry name (also the ``EngineStats.backend`` label).
    name = "abstract"

    def run(
        self,
        pending: List[Tuple[int, object]],
        ctx: BackendContext,
    ) -> None:
        """Execute every pending ``(index, job)``; report each exactly once."""
        raise NotImplementedError
