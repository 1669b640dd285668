"""Chrome trace-event (Perfetto) JSON export.

Converts the repo's telemetry into the `Chrome trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_,
loadable at https://ui.perfetto.dev or ``chrome://tracing``:

* :func:`lifecycle_trace_events` — per-instruction pipeline spans from
  :class:`~repro.debug.trace.TraceRecord` rows: ``fetch`` / ``queue`` /
  ``execute`` / ``commit`` slices, an explicit ``defer`` slice for the
  NDA complete-to-broadcast gap, and flow arrows from a load's execute
  slice to its InvisiSpec validate/expose point.
* :func:`counter_trace_events` — Perfetto counter tracks from a
  :class:`~repro.obs.sampler.MetricsSampler` time series.
* :func:`span_trace_events` — one process's finished trace spans from
  :mod:`repro.obs.spans`: a lane for the process itself and one per
  pool worker that ran a job, so a traced CLI command renders with its
  engine run nested below it and each job on its worker's lane.

The convention throughout: **1 simulated cycle = 1 µs** of trace time
(the format's ``ts``/``dur`` unit), so cycle counts read directly off
the Perfetto ruler.  Trace spans use real microseconds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

#: pid used for simulated-pipeline tracks.
PIPELINE_PID = 1

_STAGES = (
    # (slice name, start attr, end attr)
    ("fetch", "fetch", "dispatch"),
    ("queue", "dispatch", "issue"),
    ("execute", "issue", "complete"),
    ("commit", "broadcast", "retire"),
)


def _span(record) -> Optional[tuple]:
    """(start, end) cycles of a record, or None if it never progressed."""
    cycles = [c for c in (record.fetch, record.dispatch, record.issue,
                          record.complete, record.broadcast, record.retire)
              if c is not None and c >= 0]
    if not cycles:
        return None
    return min(cycles), max(cycles)


def lifecycle_trace_events(
    records: Iterable,
    pid: int = PIPELINE_PID,
    max_lanes: int = 64,
    process_name: str = "simulated pipeline",
) -> List[dict]:
    """Trace events for per-instruction lifecycle records.

    Lanes (``tid``) are assigned greedily: each instruction takes the
    first lane that is free at its fetch cycle, so overlapping
    instructions render stacked and the lane count approximates the
    occupancy of the window.
    """
    events: List[dict] = []
    lane_free_at: List[int] = []
    flow_id = 0
    for record in records:
        span = _span(record)
        if span is None:
            continue
        start, end = span
        tid = None
        for lane, free_at in enumerate(lane_free_at):
            if free_at <= start:
                tid = lane
                break
        if tid is None:
            if len(lane_free_at) < max_lanes:
                lane_free_at.append(0)
                tid = len(lane_free_at) - 1
            else:
                tid = min(range(len(lane_free_at)),
                          key=lane_free_at.__getitem__)
        lane_free_at[tid] = end + 1

        name = record.disasm
        if record.squashed:
            name = "[squashed] " + name
        args = {"seq": record.seq, "pc": record.pc}
        for stage, start_attr, end_attr in _STAGES:
            lo = getattr(record, start_attr)
            hi = getattr(record, end_attr)
            if lo is None or hi is None or lo < 0 or hi < 0 or hi < lo:
                continue
            events.append({
                "ph": "X", "pid": pid, "tid": tid,
                "name": "%s %s" % (stage, name),
                "cat": "pipeline," + stage,
                "ts": lo, "dur": max(hi - lo, 1), "args": args,
            })
        # NDA's deferral: the result sat completed-but-unbroadcast.
        if (record.complete >= 0 and record.broadcast >= 0
                and record.broadcast > record.complete + 1):
            events.append({
                "ph": "X", "pid": pid, "tid": tid,
                "name": "defer " + name,
                "cat": "pipeline,defer,nda",
                "ts": record.complete + 1,
                "dur": record.broadcast - record.complete - 1,
                "args": dict(args, deferred_cycles=(
                    record.broadcast - record.complete - 1)),
            })
        if record.squashed:
            events.append({
                "ph": "i", "pid": pid, "tid": tid, "s": "t",
                "name": "squash " + name, "cat": "pipeline,squash",
                "ts": end, "args": args,
            })
        # InvisiSpec validate/expose: flow arrow from the execute slice
        # to the visibility point on a dedicated lane.
        for kind in ("validate", "expose"):
            cycle = getattr(record, kind, -1)
            if cycle is None or cycle < 0:
                continue
            flow_id += 1
            anchor = record.issue if record.issue >= 0 else start
            events.append({
                "ph": "s", "pid": pid, "tid": tid, "id": flow_id,
                "name": kind, "cat": "invisispec",
                "ts": max(anchor, 0),
            })
            events.append({
                "ph": "f", "pid": pid, "tid": tid, "bp": "e",
                "id": flow_id, "name": kind, "cat": "invisispec",
                "ts": cycle,
            })
            events.append({
                "ph": "i", "pid": pid, "tid": tid, "s": "t",
                "name": "%s %s" % (kind, name), "cat": "invisispec",
                "ts": cycle, "args": args,
            })
    events.extend(_process_meta(pid, process_name))
    return events


def smt_trace_events(
    records_by_context: Iterable[Iterable],
    base_pid: int = PIPELINE_PID,
    max_lanes: int = 64,
) -> List[dict]:
    """Per-context pipeline lanes for a co-residency (:mod:`repro.smt`) run.

    *records_by_context* holds one record sequence per hardware context
    (e.g. from a :class:`~repro.debug.trace.PipelineTracer` attached to
    each of ``SmtMachine.cores``).  Context ``i`` becomes Perfetto
    process ``base_pid + i`` named ``context i pipeline``, so the two
    contexts render as stacked process groups on a shared cycle ruler —
    cross-context interleaving reads directly off the trace.
    """
    events: List[dict] = []
    for ctx, records in enumerate(records_by_context):
        events.extend(lifecycle_trace_events(
            records,
            pid=base_pid + ctx,
            max_lanes=max_lanes,
            process_name="context %d pipeline" % ctx,
        ))
    return events


#: Sampler columns grouped into Perfetto counter tracks.
_COUNTER_TRACKS = (
    ("occupancy", ("rob", "iq", "lq", "sq")),
    ("memory", ("outstanding_misses",)),
    ("defers/window", ("deferred_broadcasts", "port_conflicts")),
)


def counter_trace_events(sampler, pid: int = PIPELINE_PID) -> List[dict]:
    """Perfetto counter tracks from a sampler's time series."""
    events: List[dict] = []
    for row in sampler.rows:
        ts = row["cycle"]
        for track, columns in _COUNTER_TRACKS:
            events.append({
                "ph": "C", "pid": pid, "name": track, "ts": ts,
                "args": {column: row[column] for column in columns},
            })
    return events


def span_trace_events(spans: Iterable) -> List[dict]:
    """Trace events for one process's finished spans
    (:class:`repro.obs.spans.Span`).

    Every span becomes one ``X`` slice of this process, on the lane of
    the process that ran it: the tracing process's own lane, or a pool
    worker's for the jobs that worker executed.  A slice inside another
    on the same lane is its child.  A span whose status is not ``ok``
    reads ``[status] name``.  Times are microseconds from the earliest
    start.
    """
    spans = sorted(spans, key=lambda span: (span.start, -span.finish))
    if not spans:
        return []
    pid = os.getpid()
    origin = spans[0].start

    def usec(seconds: float) -> int:
        return int(round((seconds - origin) * 1e6))

    events: List[dict] = []
    for span in spans:
        name = span.name
        if span.status != "ok":
            name = "[%s] %s" % (span.status, name)
        start = usec(span.start)
        events.append({
            "ph": "X", "pid": pid, "tid": span.lane, "name": name,
            "cat": "spans," + span.name, "ts": start,
            "dur": usec(span.finish) - start,
            "args": dict(span.attrs, status=span.status),
        })
    events.extend(_process_meta(pid, "repro (pid %d)" % pid))
    for lane in sorted({span.lane for span in spans}):
        events.append({
            "ph": "M", "pid": pid, "tid": lane, "name": "thread_name",
            "args": {"name": "main" if lane == pid else "worker %d" % lane},
        })
    return events


def _process_meta(pid: int, name: str) -> List[dict]:
    return [{
        "ph": "M", "pid": pid, "name": "process_name",
        "args": {"name": name},
    }]


def write_chrome_trace(path: str, events: List[dict],
                       metadata: Optional[Dict] = None) -> str:
    """Write a Chrome trace-event JSON file (object form) atomically."""
    payload: Dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if metadata:
        payload["metadata"] = metadata
    problems = validate_chrome_trace(payload)
    if problems:
        raise ValueError("refusing to write invalid trace: "
                         + "; ".join(problems[:5]))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(tmp, path)
    return path


def validate_chrome_trace(payload) -> List[str]:
    """Structural validation of a trace payload.

    Accepts both the array form (a bare event list) and the object form
    (``{"traceEvents": [...]}``).  Returns a list of human-readable
    problems; empty means the payload is a loadable Chrome trace.
    """
    problems: List[str] = []
    if isinstance(payload, list):
        events = payload
    elif isinstance(payload, dict):
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            return ["object form requires a 'traceEvents' list"]
    else:
        return ["payload must be a JSON array or object"]
    for index, event in enumerate(events):
        where = "event[%d]" % index
        if not isinstance(event, dict):
            problems.append(where + ": not an object")
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(where + ": missing 'ph'")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(where + ": missing 'name'")
        if "pid" not in event:
            problems.append(where + ": missing 'pid'")
        if phase == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(where + ": missing numeric 'ts'")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(where + ": 'X' needs non-negative 'dur'")
        if phase in ("s", "f", "t") and "id" not in event:
            problems.append(where + ": flow event needs 'id'")
    return problems
