#!/usr/bin/env python
"""Telemetry-overhead gate (CI perf-smoke, ``make perf-smoke``).

Times one out-of-order run, mcf under NDA Strict at 3,000 instructions
and seed 7, in four variants:

* **detached**: no bus, every observer slot None;
* **attached-idle**: an ``EventBus`` with no subscribers;
* **sampling**: a bus with a ``MetricsSampler`` every 1,000 cycles;
* **tracing**: one run span under an installed span tracer that spools
  to a scratch directory.

Every variant must simulate bit-identically: a run whose cycles or
committed count differ from the detached run raises ``OverheadError``.
Only ``core.run()`` is timed, in 25 interleaved rounds, each in a
rotated order, so slow host drift biases every variant alike.  A
variant's overhead is the median over rounds of its time divided by the
detached time of the same round, so one noisy round cannot move it.
Sampling and tracing must each cost under 10%, or the script exits 1::

    PYTHONPATH=src python benchmarks/obs_overhead.py
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time

from repro.config import config_registry
from repro.core import make_core
from repro.obs.bus import EventBus
from repro.obs.sampler import MetricsSampler
from repro.obs.spans import Tracer, install_tracer, uninstall_tracer
from repro.workloads.generator import spec_program

VARIANTS = ("detached", "attached-idle", "sampling", "tracing")
#: Interleaved rounds of the gate.
ROUNDS = 25
#: Period of the sampling variant's metrics sampler, in cycles.
SAMPLE_INTERVAL = 1_000
#: Ceiling on the sampling and tracing overheads.
BUDGET = 0.10


class OverheadError(RuntimeError):
    """A telemetry variant simulated differently from the detached run."""


def _timed_run(program, config, variant: str, spool_dir: str):
    """``(seconds, outcome, samples)`` of one core run in *variant*."""
    tracer = None
    if variant == "tracing":
        tracer = install_tracer(Tracer("obs-overhead", spool_dir=spool_dir))
    try:
        core = make_core(program, config)
        sampler = None
        if variant in ("attached-idle", "sampling"):
            bus = EventBus().attach(core)
            if variant == "sampling":
                sampler = bus.add_sampler(MetricsSampler(SAMPLE_INTERVAL))
        start = time.perf_counter()
        if tracer is None:
            result = core.run()
        else:
            with tracer.span("obs-overhead.run",
                             attrs={"program": program.name or ""}):
                result = core.run()
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            uninstall_tracer()
    return elapsed, result, len(sampler.rows) if sampler is not None else 0


def measure(workload: str = "mcf", instructions: int = 3_000,
            rounds: int = ROUNDS) -> dict:
    """Median wall seconds and paired overhead of every variant."""
    config = config_registry()["strict"].config
    program = spec_program(workload, instructions=instructions, seed=7)
    times = {name: [] for name in VARIANTS}
    base = None
    samples = 0
    with tempfile.TemporaryDirectory() as spool_dir:
        for index in range(rounds):
            shift = index % len(VARIANTS)
            for name in VARIANTS[shift:] + VARIANTS[:shift]:
                elapsed, result, rows = _timed_run(
                    program, config, name, spool_dir,
                )
                times[name].append(elapsed)
                samples = max(samples, rows)
                # Round 0 runs the detached variant first.
                if base is None:
                    base = result.stats
                elif (result.stats.cycles, result.stats.committed) != (
                        base.cycles, base.committed):
                    raise OverheadError(
                        "%s/strict under %r: %d cycles, %d committed; "
                        "detached: %d, %d" % (
                            workload, name, result.stats.cycles,
                            result.stats.committed, base.cycles,
                            base.committed))
    return {
        "workload": workload,
        "cycles": base.cycles,
        "samples": samples,
        "rounds": rounds,
        "wall_seconds": {
            name: statistics.median(times[name]) for name in VARIANTS
        },
        "overhead": {
            name: statistics.median(
                elapsed / detached for elapsed, detached
                in zip(times[name], times["detached"])
            ) - 1.0
            for name in VARIANTS[1:]
        },
    }


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    result = measure()
    print("telemetry overhead on %s/strict (%d cycles, median of %d "
          "paired rounds, %d samples at interval %d):" % (
              result["workload"], result["cycles"], result["rounds"],
              result["samples"], SAMPLE_INTERVAL))
    for name in VARIANTS:
        overhead = result["overhead"].get(name)
        print("  %-14s %8.2f ms %s" % (
            name, result["wall_seconds"][name] * 1e3,
            "" if overhead is None else "%+6.1f%%" % (overhead * 100.0),
        ))
    failed = False
    for name in ("sampling", "tracing"):
        if result["overhead"][name] >= BUDGET:
            print("FAIL: %s costs %+.1f%% wall clock, over the %.0f%% "
                  "budget" % (name, result["overhead"][name] * 100.0,
                              BUDGET * 100.0))
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
