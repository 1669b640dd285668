"""Distributed trace spans: W3C-traceparent contexts across processes.

Every entry point (``POST /v1/jobs``, CLI ``run``/``attack``/``fuzz``/
``submit``, :func:`repro.api.simulate`) can open a **span** — a named
interval with a 128-bit ``trace_id`` shared by everything one request
caused, a 64-bit ``span_id``, an optional parent link, and free-form
attributes.  The context crosses process boundaries as a standard
traceparent string (``00-<trace_id>-<span_id>-01``): a client sends
it in the ``POST /v1/jobs`` body and the server stores it on the
durable :class:`~repro.server.queue.JobRecord`, so the worker thread
that later claims the job tags its spans with the submitting client's
trace id.

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
Activation is environment-driven precisely so every process a run
starts (the job server, a CLI driver, its pool workers) inherits it.
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
#: Optional service-name override for the process tracer.
TRACE_SERVICE_ENV = "REPRO_TRACE_SERVICE"

#: Filename suffix of per-process span spools (see ``Tracer.spool_path``).
SPAN_SPOOL_SUFFIX = ".spans.jsonl"

_TRACEPARENT_VERSION = "00"
_TRACE_FLAGS = "01"


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


class SpanContext:
    """An immutable ``(trace_id, span_id)`` pair.

    Serializes to/from the W3C ``traceparent`` header format so the
    context survives JSON job payloads and durable queue records
    without a custom wire format.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def traceparent(self) -> str:
        return "%s-%s-%s-%s" % (
            _TRACEPARENT_VERSION, self.trace_id, self.span_id, _TRACE_FLAGS,
        )

    def child(self) -> "SpanContext":
        """A fresh span id under the same trace."""
        return SpanContext(self.trace_id, new_span_id())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SpanContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
        )

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return "SpanContext(%r)" % self.traceparent()


def parse_traceparent(header) -> Optional[SpanContext]:
    """Parse a traceparent string; ``None`` on anything malformed.

    Lenient by design — a bad or missing header means "start a new
    trace", never an error, so stale records and old clients keep
    working.
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id = parts[0], parts[1], parts[2]
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(version, 16), int(trace_id, 16), int(span_id, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return SpanContext(trace_id, span_id)


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

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def traceparent(self) -> str:
        return self.context.traceparent()

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
    # Context resolution.
    # ------------------------------------------------------------------ #

    def current(self) -> Optional[SpanContext]:
        """This thread's innermost active span context, if any."""
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def _resolve_parent(self, parent) -> Optional[SpanContext]:
        if parent is None:
            return self.current()
        if isinstance(parent, Span):
            return parent.context
        if isinstance(parent, SpanContext):
            return parent
        if isinstance(parent, str):
            return parse_traceparent(parent)
        return None

    # ------------------------------------------------------------------ #
    # Span creation.
    # ------------------------------------------------------------------ #

    def start_span(
        self,
        name: str,
        parent=None,
        attrs: Optional[Dict] = None,
        start: Optional[float] = None,
    ) -> Span:
        """An unfinished span; *parent* accepts a Span, a SpanContext, a
        traceparent string, or None (inherits the thread's current)."""
        ctx = self._resolve_parent(parent)
        return Span(
            name=str(name),
            trace_id=ctx.trace_id if ctx is not None else new_trace_id(),
            span_id=new_span_id(),
            parent_id=ctx.span_id if ctx is not None else None,
            start_unix=time.time() if start is None else float(start),
            tracer=self,
            attrs=dict(attrs) if attrs else {},
        )

    @contextmanager
    def span(self, name: str, parent=None, attrs: Optional[Dict] = None):
        """Scoped span that becomes this thread's current context, so
        nested instrumentation (engine inside a server job, windows
        inside a campaign) parents itself automatically."""
        sp = self.start_span(name, parent=parent, attrs=attrs)
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        stack.append(sp.context)
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
        parent=None,
        attrs: Optional[Dict] = None,
        status: str = "ok",
    ) -> dict:
        """A retroactive finished span with explicit unix timestamps —
        how queue-wait and engine job intervals are reconstructed after
        the fact."""
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
                    service=(service
                             or os.environ.get(TRACE_SERVICE_ENV)
                             or "repro"),
                    spool_dir=directory,
                )
            _ENV_CHECKED = True
    return _PROCESS_TRACER


def install_tracer(tracer: Tracer) -> Tracer:
    """Make *tracer* the process tracer (tests, embedded servers)."""
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
