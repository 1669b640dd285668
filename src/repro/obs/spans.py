"""Trace spans for local runs, spooled per process.

A traced CLI command opens a root **span** (``cli.<command>``) — a
named interval with a 128-bit ``trace_id`` shared by everything the
command caused, a 64-bit ``span_id``, an optional parent link, and
free-form attributes.  Inside a process a thread-local stack parents
spans: :meth:`Tracer.span` pushes the new span, so the ``engine.run``
span that :func:`repro.engine.scheduler.run_jobs` opens, and the
``fuzz.campaign`` or ``simulate`` spans below it, land on the command's
trace without any argument passing.  The engine records its per-job
``engine.queue``/``engine.execute``/``engine.cache.hit`` spans in the
driver, after the fact, from the timestamps each job result carries.

Each process owns at most one :class:`Tracer`.  Finished spans land in
a **JSONL spool** — one append-only file per process under the trace
directory (``<service>-<pid>.spans.jsonl``), which
:func:`repro.obs.perfetto.read_span_spools` reads back and
:func:`repro.obs.perfetto.merge_span_spools` stitches into a single
Perfetto trace after the run.

Tracing follows the telemetry layer's no-op-when-detached contract
(:mod:`repro.obs.bus`): with no tracer installed and ``REPRO_TRACE_DIR``
unset, :func:`maybe_tracer` returns ``None`` and every instrumentation
site reduces to one ``is None`` test — detached runs are bit-identical
to the golden files, and the attached overhead is CI-gated next to the
sampler's (``measure_obs_overhead`` grows a ``tracing`` variant).
Activation is environment-driven so every process a run starts (a CLI
driver and its pool workers) inherits it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Optional

#: Schema version stamped on every spooled span row.
SPAN_SCHEMA = 1

#: Environment variable holding the spool directory; set = tracing on.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Filename suffix of per-process span spools (see ``Tracer.spool_path``).
SPAN_SPOOL_SUFFIX = ".spans.jsonl"


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


class Span:
    """One in-flight named interval; finalized through its tracer."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id",
        "start_unix", "attrs", "_tracer", "_finished",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        start_unix: float,
        tracer: "Tracer",
        attrs: Optional[Dict] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_unix = start_unix
        self.attrs = attrs if attrs is not None else {}
        self._tracer = tracer
        self._finished = False

    def end(self, end: Optional[float] = None, status: str = "ok") -> None:
        """Finalize once: append the span to the spool."""
        if self._finished:
            return
        self._finished = True
        self._tracer._finish(self, end=end, status=status)


class Tracer:
    """Per-process span factory and JSONL spool.

    Every finished span is appended to this process's spool file under
    *spool_dir*, which the Perfetto merger consumes.
    """

    def __init__(self, service: str, spool_dir: str) -> None:
        self.service = str(service)
        self.pid = os.getpid()
        self.spool_dir = str(spool_dir)
        os.makedirs(self.spool_dir, exist_ok=True)
        safe = "".join(
            ch if ch.isalnum() or ch in "-_." else "-"
            for ch in self.service
        ) or "repro"
        self.spool_path = os.path.join(
            self.spool_dir, "%s-%d%s" % (safe, self.pid, SPAN_SPOOL_SUFFIX),
        )
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.spool_errors = 0

    # ------------------------------------------------------------------ #
    # Span creation.
    # ------------------------------------------------------------------ #

    def current(self) -> Optional[Span]:
        """This thread's innermost active span, if any."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        attrs: Optional[Dict] = None,
        start: Optional[float] = None,
    ) -> Span:
        """An unfinished span under *parent*, a Span, or under this
        thread's current span when *parent* is None."""
        if parent is None:
            parent = self.current()
        return Span(
            name=str(name),
            trace_id=parent.trace_id if parent is not None
            else new_trace_id(),
            span_id=new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            start_unix=time.time() if start is None else float(start),
            tracer=self,
            attrs=dict(attrs) if attrs else {},
        )

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             attrs: Optional[Dict] = None):
        """Scoped span that becomes this thread's current span, so
        nested instrumentation (the engine inside a CLI command, runs
        inside a campaign) parents itself automatically."""
        sp = self.start_span(name, parent=parent, attrs=attrs)
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        stack.append(sp)
        try:
            yield sp
        except BaseException:
            stack.pop()
            sp.end(status="error")
            raise
        stack.pop()
        sp.end()

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[Span] = None,
        attrs: Optional[Dict] = None,
        status: str = "ok",
    ) -> dict:
        """A retroactive finished span with explicit unix timestamps —
        how the engine reconstructs its per-job intervals after the
        fact."""
        sp = self.start_span(name, parent=parent, attrs=attrs, start=start)
        sp._finished = True
        return self._finish(sp, end=end, status=status)

    # ------------------------------------------------------------------ #
    # Finalization.
    # ------------------------------------------------------------------ #

    def _finish(self, span: Span, end: Optional[float], status: str) -> dict:
        end_unix = time.time() if end is None else float(end)
        if end_unix < span.start_unix:
            end_unix = span.start_unix
        row = {
            "schema": SPAN_SCHEMA,
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "service": self.service,
            "pid": self.pid,
            "start_unix": span.start_unix,
            "end_unix": end_unix,
            "status": status,
        }
        if span.attrs:
            row["attrs"] = span.attrs
        try:
            line = json.dumps(row, sort_keys=True)
            with open(self.spool_path, "a") as handle:
                handle.write(line + "\n")
        except (OSError, TypeError, ValueError):
            with self._lock:
                self.spool_errors += 1
        return row


# ---------------------------------------------------------------------- #
# The process tracer.
# ---------------------------------------------------------------------- #

_PROCESS_TRACER: Optional[Tracer] = None
_ENV_CHECKED = False
_GLOBAL_LOCK = threading.Lock()


def maybe_tracer(service: Optional[str] = None) -> Optional[Tracer]:
    """The process tracer, or ``None`` when tracing is detached.

    Detached is the default: without an installed tracer or a
    ``REPRO_TRACE_DIR`` environment variable this returns ``None`` and
    callers skip all span work (the no-op-when-detached contract).  The
    first call with the env var set creates the spooling tracer;
    *service* only names it at that creation (later hints are ignored).
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
                _PROCESS_TRACER = Tracer(
                    service=service or "repro", spool_dir=directory,
                )
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
