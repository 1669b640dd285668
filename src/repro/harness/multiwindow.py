"""Lockstep multi-window runner: N independent windows, one interpreter.

The sweep and the fuzzer spend their time running many *independent*
simulations of the same configuration — SMARTS sampling windows at
different seeds, fuzz seeds under one scheme.  On a single-CPU host the
process pool cannot help, so this module amortizes the per-run driver
overhead instead: it constructs every core up front (program generation,
core construction and the micro-op pre-decode all happen once, outside
the stepped region; cache and BTB sets are still created on first fill) and then advances all windows round-robin in
*quanta* of committed instructions, each quantum running inside the
core's own hoisted ``run_to_commit``/``run_slice`` loop rather than a
per-``advance()`` Python loop.

Lockstep changes nothing observable: the cores share no state, each
window's advance sequence is a pure function of its own machine state,
and ``run_to_commit(a); run_to_commit(b)`` equals ``run_to_commit(b)``
for ``a <= b`` — so every window's counters are bit-identical to
running it alone through :func:`repro.stats.sampling.run_window` (the
multi-window determinism test pins this).

Three entry points:

* :func:`run_windows` — N sampling windows (different seeds, same
  config), returning per-window :class:`~repro.stats.counters.\
  PipelineStats` plus aggregate throughput accounting.
* :func:`run_cores_lockstep` — N already-built cores driven to
  completion (HALT/budget) with ``run()``'s exact deadlock semantics;
  the fuzz campaign's in-process batching uses this.
* :class:`WindowTask` — the picklable description one window.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.config import SimConfig
from repro.core import make_core
from repro.core.inorder import InOrderCore
from repro.core.outcome import RunOutcome
from repro.errors import ConfigError, SimulationError
from repro.obs.spans import maybe_tracer
from repro.stats.counters import PipelineStats
from repro.workloads.generator import spec_program

#: Committed instructions each window advances per lockstep turn.  Large
#: enough that the Python-level turn bookkeeping is noise next to the
#: in-core loop, small enough that windows progress together (progress
#: callbacks and ctrl-C stay responsive).
DEFAULT_QUANTUM = 1_024


@dataclass(frozen=True)
class WindowTask:
    """One SMARTS sampling window of the lockstep group."""

    benchmark: str
    instructions: int
    seed: int
    config: SimConfig
    warmup: int = 2_000
    measure: int = 8_000
    in_order: bool = False
    max_cycles: int = 30_000_000

    def build_program(self):
        return spec_program(
            self.benchmark, instructions=self.instructions, seed=self.seed
        )

    def describe(self) -> str:
        return "%s seed %d (%d warmup + %d measure)" % (
            self.benchmark, self.seed, self.warmup, self.measure,
        )


@dataclass
class WindowResult:
    """One finished window: its measurement counters plus totals."""

    task: WindowTask
    window: PipelineStats
    #: Total simulated cycles for the window run (warmup included).
    cycles: int
    committed: int


@dataclass
class MultiWindowResult:
    """Everything one lockstep batch produced."""

    results: List[WindowResult] = field(default_factory=list)
    #: Program generation + core construction + micro-op pre-decode.
    setup_seconds: float = 0.0
    #: Wall time of the lockstep stepping itself.
    run_seconds: float = 0.0

    @property
    def total_cycles(self) -> int:
        return sum(r.cycles for r in self.results)

    @property
    def aggregate_kilo_cycles_per_sec(self) -> float:
        if self.run_seconds <= 0:
            return 0.0
        return self.total_cycles / self.run_seconds / 1e3


@dataclass
class _WindowState:
    core: object
    task: WindowTask
    start: Optional[PipelineStats] = None
    done: bool = False
    result: Optional[WindowResult] = None


def _finish_window(state: _WindowState) -> None:
    """Same epilogue as ``run_window``: delta, emptiness check."""
    core = state.core
    core.stats.cycles = core.cycle
    core.stats.committed = core.committed
    window = core.stats.delta(state.start)
    if window.committed == 0:
        raise SimulationError(
            "empty measurement window for %s" % state.task.benchmark
        )
    state.result = WindowResult(
        task=state.task,
        window=window,
        cycles=core.cycle,
        committed=core.committed,
    )
    state.done = True


def run_windows(
    tasks: Sequence[WindowTask],
    quantum: int = DEFAULT_QUANTUM,
    fast_forward: bool = True,
    progress: Optional[Callable[[WindowResult], None]] = None,
) -> MultiWindowResult:
    """Run *tasks* to their window boundaries in lockstep.

    Per-window counters are bit-identical to running each task alone
    through :func:`repro.stats.sampling.run_window`; errors (halt before
    warm-up, empty window) raise the same ``SimulationError`` and abort
    the whole batch.
    """
    if quantum <= 0:
        raise ValueError("quantum must be positive, got %d" % quantum)
    for task in tasks:
        if getattr(task.config, "num_contexts", 1) > 1:
            raise ConfigError(
                "the lockstep window runner interleaves independent "
                "single-context cores; a num_contexts=%d config needs "
                "repro.smt.SmtMachine instead" % task.config.num_contexts
            )
    out = MultiWindowResult()
    setup_start = time.perf_counter()
    states: List[_WindowState] = []
    for task in tasks:
        program = task.build_program()
        core = (
            InOrderCore(program, task.config) if task.in_order
            else make_core(
                program, task.config, fast_forward=fast_forward,
            )
        )
        states.append(_WindowState(core=core, task=task))
    out.setup_seconds = time.perf_counter() - setup_start

    # Per-window spans are retroactive records (the windows interleave,
    # so live start/stop nesting would misrepresent them); detached runs
    # skip every tracer branch, keeping the stepped loop untouched.
    tracer = maybe_tracer()
    batch_start_unix = time.time()

    run_start = time.perf_counter()
    remaining = len(states)
    while remaining:
        for state in states:
            if state.done:
                continue
            core = state.core
            task = state.task
            if state.start is None:
                bound = core.committed + quantum
                if bound > task.warmup:
                    bound = task.warmup
                core.run_to_commit(bound, task.max_cycles)
                if core.committed >= task.warmup:
                    core.stats.cycles = core.cycle
                    core.stats.committed = core.committed
                    state.start = core.stats.snapshot()
                elif core.halted or core.cycle >= task.max_cycles:
                    raise SimulationError(
                        "program %s halted after %d instructions, before "
                        "the %d-instruction warm-up finished" % (
                            task.benchmark, core.committed, task.warmup,
                        )
                    )
            else:
                end = task.warmup + task.measure
                bound = core.committed + quantum
                if bound > end:
                    bound = end
                core.run_to_commit(bound, task.max_cycles)
                if (
                    core.committed >= end
                    or core.halted
                    or core.cycle >= task.max_cycles
                ):
                    _finish_window(state)
                    remaining -= 1
                    if tracer is not None:
                        tracer.record(
                            "window", batch_start_unix, time.time(),
                            attrs={
                                "benchmark": task.benchmark,
                                "seed": task.seed,
                                "cycles": state.result.cycles,
                                "committed": state.result.committed,
                            },
                        )
                    if progress is not None:
                        progress(state.result)
    out.run_seconds = time.perf_counter() - run_start
    out.results = [state.result for state in states]
    return out


def run_cores_lockstep(
    cores: Sequence[object],
    max_cycles: int,
    deadlock_cycles: int = 100_000,
    quantum: int = DEFAULT_QUANTUM,
) -> List[RunOutcome]:
    """Drive already-built cores to completion in lockstep.

    Equivalent to calling ``core.run(max_cycles, deadlock_cycles)`` on
    each core in turn — same outcomes, same ``DeadlockError`` at the
    same cycle (a raise aborts the whole batch, like a serial loop
    would abort the remaining runs).  Each core's ``sim_wall_seconds``
    accumulates only its own turns' wall time, so per-run kc/s numbers
    stay meaningful inside a batch.
    """
    if quantum <= 0:
        raise ValueError("quantum must be positive, got %d" % quantum)
    for core in cores:
        config = getattr(core, "config", None)
        if getattr(config, "num_contexts", 1) > 1:
            raise ConfigError(
                "the lockstep core runner drives independent "
                "single-context cores; a num_contexts=%d config needs "
                "repro.smt.SmtMachine instead" % config.num_contexts
            )
    outcomes: List[Optional[RunOutcome]] = [None] * len(cores)
    walls = [0.0] * len(cores)
    remaining = len(cores)
    while remaining:
        for index, core in enumerate(cores):
            if outcomes[index] is not None:
                continue
            turn_start = time.perf_counter()
            finished = core.run_slice(
                core.committed + quantum, max_cycles, deadlock_cycles,
            )
            walls[index] += time.perf_counter() - turn_start
            if finished:
                outcomes[index] = core.finish_run(walls[index])
                remaining -= 1
    return outcomes
