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
* :func:`merge_span_spools` — stitches the per-process span spools
  written by :mod:`repro.obs.spans` into one trace: each process becomes
  a Perfetto process group, and parent→child span links become flow
  arrows, so a traced CLI command renders causally connected to the
  engine run and the per-job spans below it.

The convention throughout: **1 simulated cycle = 1 µs** of trace time
(the format's ``ts``/``dur`` unit), so cycle counts read directly off
the Perfetto ruler.  Trace spans use real microseconds.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional

from repro.obs.spans import SPAN_SPOOL_SUFFIX

#: pid used for simulated-pipeline tracks.
PIPELINE_PID = 1
#: first pid used for trace-span process groups.
SPAN_PID_BASE = 10

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


def read_span_spools(directory: str) -> List[dict]:
    """Load every ``*.spans.jsonl`` spool under *directory*.

    Tolerant by design: unreadable files, blank lines, and malformed or
    truncated rows (a worker killed mid-write) are skipped, never
    raised.  Rows come back sorted by start time.
    """
    rows: List[dict] = []
    if not os.path.isdir(directory):
        return rows
    for name in sorted(os.listdir(directory)):
        if not name.endswith(SPAN_SPOOL_SUFFIX):
            continue
        try:
            with open(os.path.join(directory, name)) as handle:
                text = handle.read()
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(row, dict)
                and isinstance(row.get("name"), str)
                and isinstance(row.get("start_unix"), (int, float))
                and isinstance(row.get("end_unix"), (int, float))
            ):
                rows.append(row)
    rows.sort(key=lambda row: (
        row["start_unix"], row["end_unix"], str(row.get("span_id") or ""),
    ))
    return rows


def span_trace_events(
    spans: Iterable[dict],
    base_pid: int = SPAN_PID_BASE,
    max_lanes: int = 64,
) -> List[dict]:
    """Trace events for spooled spans (:mod:`repro.obs.spans`).

    Each emitting process ``(service, pid)`` becomes a Perfetto process
    group; within a group, spans pack greedily into lanes like the
    pipeline view.  Every span whose parent is present in the batch gets
    a flow arrow from the parent slice to its own start, so the
    command → engine.run → engine.execute chain reads as connected
    arrows, across process groups when a run spans several.
    """
    rows = sorted(
        (
            row for row in spans
            if isinstance(row.get("name"), str)
            and isinstance(row.get("start_unix"), (int, float))
            and isinstance(row.get("end_unix"), (int, float))
        ),
        key=lambda row: (
            row["start_unix"], row["end_unix"],
            str(row.get("span_id") or ""),
        ),
    )
    if not rows:
        return []
    origin = min(row["start_unix"] for row in rows)

    def usec(unix: float) -> int:
        return int(round((unix - origin) * 1e6))

    process_pids: Dict[tuple, int] = {}
    lane_free_at: Dict[int, List[int]] = {}
    placed: Dict[str, tuple] = {}
    events: List[dict] = []
    for row in rows:
        proc = (str(row.get("service") or "?"), row.get("pid") or 0)
        pid = process_pids.setdefault(proc, base_pid + len(process_pids))
        lanes = lane_free_at.setdefault(pid, [])
        start = usec(row["start_unix"])
        dur = max(usec(row["end_unix"]) - start, 1)
        tid = None
        for lane, free_at in enumerate(lanes):
            if free_at <= start:
                tid = lane
                break
        if tid is None:
            if len(lanes) < max_lanes:
                lanes.append(0)
                tid = len(lanes) - 1
            else:
                tid = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[tid] = start + dur + 1

        status = str(row.get("status") or "ok")
        args = {
            "trace_id": row.get("trace_id"),
            "span_id": row.get("span_id"),
            "status": status,
        }
        if row.get("parent_id"):
            args["parent_id"] = row["parent_id"]
        attrs = row.get("attrs")
        if isinstance(attrs, dict):
            args.update(attrs)
        name = row["name"]
        if status != "ok":
            name = "[%s] %s" % (status, name)
        events.append({
            "ph": "X", "pid": pid, "tid": tid, "name": name,
            "cat": "spans," + row["name"], "ts": start, "dur": dur,
            "args": args,
        })
        span_id = row.get("span_id")
        if isinstance(span_id, str) and span_id:
            placed[span_id] = (pid, tid, start, dur)

    flow_id = 0
    for row in rows:
        parent_id = row.get("parent_id")
        span_id = row.get("span_id")
        if not parent_id or parent_id not in placed or span_id not in placed:
            continue
        p_pid, p_tid, p_ts, p_dur = placed[parent_id]
        c_pid, c_tid, c_ts, _ = placed[span_id]
        flow_id += 1
        anchor = min(max(c_ts, p_ts), p_ts + p_dur)
        events.append({
            "ph": "s", "pid": p_pid, "tid": p_tid, "id": flow_id,
            "name": row["name"], "cat": "spans,flow", "ts": anchor,
        })
        events.append({
            "ph": "f", "pid": c_pid, "tid": c_tid, "bp": "e",
            "id": flow_id, "name": row["name"], "cat": "spans,flow",
            "ts": c_ts,
        })

    for (service, pid), perfetto_pid in process_pids.items():
        events.extend(_process_meta(
            perfetto_pid, "%s (pid %s)" % (service, pid),
        ))
    return events


def merge_span_spools(
    directory: str,
    output: str,
    metadata: Optional[Dict] = None,
    base_pid: int = SPAN_PID_BASE,
) -> dict:
    """Merge every per-process span spool under *directory* into one
    validated Chrome trace at *output*.

    Returns a summary dict (``path``, ``spans``, ``traces``,
    ``processes``) — what ``nda-repro obs trace merge`` prints.
    """
    rows = read_span_spools(directory)
    events = span_trace_events(rows, base_pid=base_pid)
    processes = sorted({
        "%s:%s" % (row.get("service") or "?", row.get("pid") or 0)
        for row in rows
    })
    summary = {
        "path": output,
        "spans": len(rows),
        "traces": len({row.get("trace_id") for row in rows}),
        "processes": processes,
    }
    meta = {
        "span_spool_dir": os.path.abspath(directory),
        "spans": len(rows),
        "processes": processes,
    }
    if metadata:
        meta.update(metadata)
    write_chrome_trace(output, events, metadata=meta)
    return summary


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
