"""Host-time spans around the simulator's layers, installed from outside.

The traced benchmark pass wraps public functions and methods of
``repro`` with timers.  Each wrapper is installed at the name the
pipelines actually look up at call time: ``repro.engine.jobs.spec_program``
rather than ``repro.workloads.spec_program``, because ``engine/jobs.py``
imports it by name; ``repro.core.fastcore.lower_program`` for the same
reason.  Targets that no longer exist are skipped, so the benchmark keeps
running across refactors that delete a class or a function; the trace
metadata lists what was skipped.

Spans (name, category, start, end, parent) are kept in memory and turned
into per-layer metrics (:func:`layer_metrics`) and a Chrome trace
(:meth:`Recorder.write_chrome_trace`) when the pass ends.  A layer's
*busy* time is the union of its outermost spans; a span's *self* time is
its duration minus its direct children's.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from contextlib import contextmanager, nullcontext

#: Categories that name a layer of the simulator or of the pipeline.
#: ``glue`` is the pipeline's own control code (``run_jobs``, job and
#: window wrappers, attack outcome decoding): only its self time counts.
GEN, BUILD, LOWER, MEMORY, STEP, GLUE, STORE = (
    "gen", "build", "lower", "memory", "step", "glue", "store",
)
RENDER, CHECK, PIPELINE, REPLAY = "render", "check", "pipeline", "replay"

#: Spans whose durations are the workload's unit operations.
OP_NAMES = ("engine.job", "attacks.run")


class Span:
    __slots__ = ("name", "cat", "start", "end", "parent", "attrs", "steps")

    def __init__(self, name, cat, start, parent):
        self.name = name
        self.cat = cat
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs = {}
        self.steps = 0  # step-category children opened so far

    @property
    def duration(self) -> float:
        return self.end - self.start


def _core_counters(core):
    return (
        core.committed, core.cycle, getattr(core, "ff_skipped_cycles", 0),
    )


def _machine_counters(machine):
    totals = [0, 0, 0]
    for core in machine.cores:
        for index, value in enumerate(_core_counters(core)):
            totals[index] += value
    return tuple(totals)


def _window_leg(recorder) -> str:
    """``run_to_commit`` inside a sampling window: warm-up leg, then
    measured leg (``repro.stats.sampling.run_window`` calls it twice)."""
    parent = recorder.current
    if parent is not None and parent.name == "stats.run_window":
        return "core.warmup" if parent.steps == 0 else "core.measure"
    return "core.run_to_commit"


def _attack_targets() -> tuple:
    """Each attack module's ``run`` and ``build_program(s)``."""
    from repro.attacks.taxonomy import CROSS_IMPLEMENTED, IMPLEMENTED

    targets = []
    for info in IMPLEMENTED + CROSS_IMPLEMENTED:
        module = info.module.__name__
        targets.append((module + ":run", "attacks.run", GLUE, None))
        for build in ("build_program", "build_programs"):
            if hasattr(info.module, build):
                targets.append(
                    (module + ":" + build, "attacks." + build, GEN, None)
                )
    return tuple(targets)


#: (target "module:attr[.attr]", span name, category, counters) —
#: ``counters`` reads (committed, cycles, fast-forwarded cycles) off the
#: wrapped method's ``self`` before and after the call.
TARGETS = (
    ("repro.engine.jobs:spec_program", "workloads.spec_program", GEN, None),
    ("repro.fuzz.campaign:generate", "fuzz.generate", GEN, None),
    ("repro.fuzz.campaign:generate_smt", "fuzz.generate_smt", GEN, None),
    ("repro.core.fastcore:FastOoOCore.__init__", "core.build", BUILD, None),
    ("repro.core.ooo:OutOfOrderCore.__init__", "core.build", BUILD, None),
    ("repro.core.inorder:InOrderCore.__init__", "core.build", BUILD, None),
    ("repro.smt.machine:SmtMachine.__init__", "smt.build", BUILD, None),
    ("repro.core.fastcore:lower_program", "isa.lower_program", LOWER, None),
    ("repro.memory.hierarchy:MemoryHierarchy.__init__",
     "memory.hierarchy_init", MEMORY, None),
    ("repro.memory.memory:MainMemory.load_image",
     "memory.load_image", MEMORY, None),
    ("repro.core.fastcore:FastOoOCore.run_to_commit", _window_leg, STEP,
     _core_counters),
    ("repro.core.ooo:OutOfOrderCore.run_to_commit", _window_leg, STEP,
     _core_counters),
    ("repro.core.inorder:InOrderCore.run_to_commit", _window_leg, STEP,
     _core_counters),
    ("repro.core.fastcore:FastOoOCore.run", "core.run", STEP,
     _core_counters),
    ("repro.core.ooo:OutOfOrderCore.run", "core.run", STEP, _core_counters),
    ("repro.core.inorder:InOrderCore.run", "core.run", STEP,
     _core_counters),
    ("repro.smt.machine:SmtMachine.run", "smt.run", STEP,
     _machine_counters),
    ("repro.harness.experiment:run_jobs", "engine.run_jobs", GLUE, None),
    ("repro.engine:run_jobs", "engine.run_jobs", GLUE, None),
    ("repro.engine.scheduler:execute_job", "engine.job", GLUE, None),
    ("repro.engine.jobs:run_window", "stats.run_window", GLUE, None),
    ("repro.engine.store:job_cache_key", "engine.store.key", STORE, None),
    ("repro.engine.store:ShardedDiskStore.store", "engine.store.store",
     STORE, None),
    ("repro.engine.store:ShardedDiskStore.load", "engine.store.load",
     STORE, None),
)


def _resolve(target: str):
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise AttributeError(target)
    return owner, attr


class Recorder:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans = []
        self.origin = time.perf_counter()
        self._stack = []
        self._patches = []
        self.skipped = []

    @property
    def current(self):
        return self._stack[-1] if self._stack else None

    def _open(self, name, cat) -> Span:
        parent = self.current
        if parent is not None and cat == STEP:
            parent.steps += 1
        span = Span(name, cat, time.perf_counter(), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, cat: str):
        """Time a block of the benchmark's own code."""
        span = self._open(name, cat)
        try:
            yield span
        finally:
            self._close(span)

    # ------------------------------------------------------------------ #
    # Wrappers.
    # ------------------------------------------------------------------ #

    def _wrapper(self, original, name, cat, counters):
        recorder = self

        def timed(*args, **kwargs):
            label = name(recorder) if callable(name) else name
            before = counters(args[0]) if counters else None
            span = recorder._open(label, cat)
            try:
                return original(*args, **kwargs)
            finally:
                recorder._close(span)
                if counters:
                    after = counters(args[0])
                    span.attrs.update(
                        committed=after[0] - before[0],
                        cycles=after[1] - before[1],
                        ff_skipped=after[2] - before[2],
                    )

        timed.__wrapped__ = original
        return timed

    def install(self) -> "Recorder":
        """Wrap every resolvable target; remember how to undo it."""
        for target, name, cat, counters in TARGETS + _attack_targets():
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.skipped.append(target)
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrapper(original, name, cat, counters))
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Export.
    # ------------------------------------------------------------------ #

    def chrome_events(self):
        pid = os.getpid()
        events = [{
            "ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": "e2e benchmark pass"},
        }]
        for span in self.spans:
            args = dict(span.attrs)
            if span.parent is not None:
                args["parent"] = span.parent.name
            events.append({
                "ph": "X", "pid": pid, "tid": 0, "name": span.name,
                "cat": span.cat,
                "ts": (span.start - self.origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": args,
            })
        return events

    def write_chrome_trace(self, path: str, metadata=None) -> str:
        from repro.obs.perfetto import write_chrome_trace

        meta = {"skipped_targets": list(self.skipped)}
        meta.update(metadata or {})
        return write_chrome_trace(path, self.chrome_events(), metadata=meta)


def span_of(recorder, name: str, cat: str):
    """``recorder.span(...)``, or a no-op block when not tracing."""
    return recorder.span(name, cat) if recorder is not None else nullcontext()


# ---------------------------------------------------------------------- #
# Per-layer metrics.
# ---------------------------------------------------------------------- #


def _has_ancestor(span: Span, predicate) -> bool:
    parent = span.parent
    while parent is not None:
        if predicate(parent):
            return True
        parent = parent.parent
    return False


def _outermost(spans, predicate):
    return [
        s for s in spans if predicate(s) and not _has_ancestor(s, predicate)
    ]


def _busy(spans, predicate) -> float:
    return sum(s.duration for s in _outermost(spans, predicate))


def _self_times(spans):
    child_time = {}
    for span in spans:
        if span.parent is not None:
            key = id(span.parent)
            child_time[key] = child_time.get(key, 0.0) + span.duration
    return {id(s): s.duration - child_time.get(id(s), 0.0) for s in spans}


def _percentile(values, share):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(share * (len(ordered) - 1))))
    return ordered[index]


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass.

    Spans under the ``pipeline`` root count toward the timed pipeline
    call; the fuzz replays after it only feed ``fuzz.oracle_overhead``.
    """
    timed = [
        s for s in spans
        if s.cat == PIPELINE or _has_ancestor(s, lambda p: p.cat == PIPELINE)
    ]

    def cat_is(cat):
        return lambda s: s.cat == cat

    steps = _outermost(timed, cat_is(STEP))
    step_s = sum(s.duration for s in steps)
    committed = sum(s.attrs.get("committed", 0) for s in steps)
    cycles = sum(s.attrs.get("cycles", 0) for s in steps)
    skipped = sum(s.attrs.get("ff_skipped", 0) for s in steps)
    warmup_s = sum(s.duration for s in steps if s.name == "core.warmup")
    self_times = _self_times(timed)
    glue_s = sum(
        self_times[id(s)] for s in timed if s.cat in (GLUE, PIPELINE)
    )
    root_self = sum(self_times[id(s)] for s in timed if s.cat == PIPELINE)
    ops = [
        s.duration * 1e3 for s in _outermost(
            timed, lambda s: s.name in OP_NAMES
        )
    ]
    store_writes = [s for s in timed if s.name == "engine.store.store"]

    # Oracle cost: stepping of the campaign's runs replayed with the taint
    # oracle against the same runs replayed without it.
    def replay_step_s(name):
        return _busy(spans, lambda s: s.cat == STEP and _has_ancestor(
            s, lambda p: p.name == name
        ))

    bare_s = replay_step_s("replay.bare")
    oracle_overhead = (
        replay_step_s("replay.oracle") / bare_s - 1.0 if bare_s else 0.0
    )
    return {
        "gen.busy_s": _busy(timed, cat_is(GEN)),
        "build.busy_s": _busy(timed, cat_is(BUILD)),
        "build.calls": len(_outermost(timed, cat_is(BUILD))),
        "build.memory_s": _busy(timed, cat_is(MEMORY)),
        "build.lower_calls": len(_outermost(timed, cat_is(LOWER))),
        "step.busy_s": step_s,
        "step.kinst_per_s": committed / step_s / 1e3 if step_s else 0.0,
        "step.ff_skip_ratio": skipped / cycles if cycles else 0.0,
        "step.warmup_share": warmup_s / step_s if step_s else 0.0,
        "sim.cycles": cycles,
        "sim.committed": committed,
        "pipeline.self_s": glue_s,
        "op.count": len(ops),
        "op.p50_ms": statistics.median(ops) if ops else 0.0,
        "op.p90_ms": _percentile(ops, 0.9),
        "store.calls": len(store_writes),
        "store.share": _busy(timed, cat_is(STORE)) / wall_s,
        "render.busy_s": _busy(timed, cat_is(RENDER)),
        "check.busy_s": _busy(timed, cat_is(CHECK)),
        "fuzz.oracle_overhead": oracle_overhead,
        "layers.coverage": 1.0 - root_self / wall_s,
    }
