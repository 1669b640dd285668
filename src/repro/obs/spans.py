"""Trace spans for one process, written as one Perfetto trace.

A traced CLI command opens a root **span** (``cli.<command>``): a named
interval on :func:`time.perf_counter`'s clock with free-form
attributes.  The ``engine.run`` span that
:func:`repro.engine.scheduler.run_jobs` opens, and the ``fuzz.campaign``
or ``simulate`` spans, start and end inside it, so on the trace they
nest under it on the same lane.  The engine records one
``engine.execute`` (or ``engine.cache.hit``) span per job after the
fact, from the times and the worker pid each job result carries: a job
a pool worker ran goes on that worker's lane.  ``perf_counter`` is
CLOCK_MONOTONIC on Linux, so times taken in forked workers compare
directly with the parent's.

Each process owns at most one :class:`Tracer`.  It keeps the finished
spans in memory; when the **root** (the span opened while no other was
open) ends, it writes them as one validated Chrome trace,
``<directory>/<root name>-<pid>.json``, and starts over.  The root of a
CLI command ends in a ``finally``, so a command that raises still
writes its trace, with the root marked ``error``.

Tracing follows the telemetry layer's no-op-when-detached contract
(:mod:`repro.obs.bus`): with no tracer installed and ``REPRO_TRACE_DIR``
unset, :func:`maybe_tracer` returns ``None`` and every instrumentation
site reduces to one ``is None`` test; detached runs are bit-identical
to the golden files, and ``benchmarks/obs_overhead.py`` gates the
attached overhead.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: Environment variable naming the trace directory; set = tracing on.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"


class Span:
    """One named interval on a lane (the pid of the process that ran
    it); finished through its tracer."""

    __slots__ = ("name", "start", "finish", "lane", "attrs", "status",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str, start: float,
                 lane: Optional[int] = None,
                 attrs: Optional[Dict] = None) -> None:
        self.name = str(name)
        self.start = float(start)
        self.finish: Optional[float] = None
        self.lane = tracer.pid if lane is None else int(lane)
        self.attrs = dict(attrs) if attrs else {}
        self.status = "ok"
        self._tracer = tracer

    def end(self, status: str = "ok") -> None:
        """Finish once, now; ending the root writes the trace."""
        if self.finish is None:
            self._tracer._finish(self, time.perf_counter(), status)


class Tracer:
    """Per-process span factory: finished spans in :attr:`spans`, one
    trace file under *directory* each time a root span ends."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self._root: Optional[Span] = None

    def start_span(self, name: str, attrs: Optional[Dict] = None) -> Span:
        """An unfinished span on this process's lane, starting now."""
        span = Span(self, name, time.perf_counter(), attrs=attrs)
        if self._root is None:
            self._root = span
        return span

    @contextmanager
    def span(self, name: str, attrs: Optional[Dict] = None):
        """Scoped span, ended with status ``error`` if the block raises."""
        span = self.start_span(name, attrs)
        status = "error"
        try:
            yield span
            status = "ok"
        finally:
            span.end(status)

    def record(self, name: str, start: float, end: float,
               lane: Optional[int] = None, attrs: Optional[Dict] = None,
               status: str = "ok") -> Span:
        """A finished span with explicit ``perf_counter`` times, on
        *lane* (default: this process's) — how the engine records its
        per-job intervals after the fact."""
        span = Span(self, name, start, lane=lane, attrs=attrs)
        self._finish(span, float(end), status)
        return span

    def _finish(self, span: Span, end: float, status: str) -> None:
        span.finish = max(end, span.start)
        span.status = status
        self.spans.append(span)
        if span is self._root:
            self._root = None
            self.write(span)

    def write(self, root: Span) -> str:
        """Write the finished spans as ``<root name>-<pid>.json`` under
        this tracer's directory, then forget them; returns the path."""
        from repro.obs.perfetto import span_trace_events, write_chrome_trace

        path = os.path.join(
            self.directory, "%s-%d.json" % (root.name, self.pid),
        )
        spans, self.spans = self.spans, []
        write_chrome_trace(path, span_trace_events(spans))
        return path


# ---------------------------------------------------------------------- #
# The process tracer.
# ---------------------------------------------------------------------- #

_PROCESS_TRACER: Optional[Tracer] = None
_ENV_CHECKED = False
_GLOBAL_LOCK = threading.Lock()


def maybe_tracer() -> Optional[Tracer]:
    """The process tracer, or ``None`` when tracing is detached.

    Detached is the default: without an installed tracer or a
    ``REPRO_TRACE_DIR`` environment variable this returns ``None`` and
    callers skip all span work (the no-op-when-detached contract).  The
    first call with the variable set creates the tracer.
    """
    global _PROCESS_TRACER, _ENV_CHECKED
    if _PROCESS_TRACER is not None:
        return _PROCESS_TRACER
    if _ENV_CHECKED:
        return None
    with _GLOBAL_LOCK:
        if _PROCESS_TRACER is None and not _ENV_CHECKED:
            directory = os.environ.get(TRACE_DIR_ENV)
            if directory:
                _PROCESS_TRACER = Tracer(directory)
            _ENV_CHECKED = True
    return _PROCESS_TRACER


def install_tracer(tracer: Tracer) -> Tracer:
    """Make *tracer* the process tracer (tests, the overhead probe)."""
    global _PROCESS_TRACER, _ENV_CHECKED
    with _GLOBAL_LOCK:
        _PROCESS_TRACER = tracer
        _ENV_CHECKED = True
    return tracer


def uninstall_tracer() -> None:
    """Detach: back to the env-driven default on the next lookup."""
    global _PROCESS_TRACER, _ENV_CHECKED
    with _GLOBAL_LOCK:
        _PROCESS_TRACER = None
        _ENV_CHECKED = False
