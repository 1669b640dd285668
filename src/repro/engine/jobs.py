"""Job decomposition for the suite engine.

A sweep is the cross product ``benchmarks x samples x configs``; every
cell of that product is one :class:`SimJob` — a fully self-contained,
picklable description of a single SMARTS measurement window.  Jobs
derive their RNG seed purely from their coordinates, so they can execute
in any order, on any worker process, and still reproduce the serial
sweep bit for bit.

Every configuration of one ``(benchmark, sample)`` pair measures the
same program, and :func:`expand_jobs` puts those jobs back to back, so
:meth:`SimJob.execute` reuses the program the previous job in this
process generated when the key matches.  Programs are never mutated by
a run, so reuse cannot change a window; :func:`forget_program` (called
when each ``run_jobs`` starts) keeps the reuse inside one sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.config import ConfigSpec, SimConfig
from repro.isa.program import Program
from repro.stats.counters import PipelineStats
from repro.stats.sampling import run_window
from repro.workloads.generator import spec_program


def derive_seed(
    benchmark: str, label: str, sample_index: int, seed0: int
) -> int:
    """Deterministic seed for one ``(benchmark, config, sample)`` job.

    The seed is a pure function of the job coordinates — never of
    execution order — which is what makes the parallel engine reproduce
    the serial sweep exactly.  ``benchmark`` and ``label`` are part of the
    job identity but deliberately do NOT perturb the seed: every
    configuration must measure the *same* generated program for a given
    ``(benchmark, sample)`` pair, otherwise normalizing CPIs to the OoO
    baseline (Fig. 7) would compare different programs.  The workload
    generator already mixes the benchmark profile into its own RNG stream.
    """
    del benchmark, label  # part of the identity, not of the seed
    return seed0 + sample_index


#: The program the last :class:`SimJob` in this process ran, keyed by
#: ``(benchmark, instructions, seed)``.  Kept as one tuple so a reader
#: always gets a program together with its own key.
_last_program: Optional[Tuple[tuple, Program]] = None


def forget_program() -> None:
    """Drop the reused program, so the next job generates its own."""
    global _last_program
    _last_program = None


@dataclass(frozen=True)
class SimJob:
    """One independent measurement window of a sweep (picklable)."""

    #: What :meth:`execute` returns (checkpoints decode entries to it).
    result_type = PipelineStats

    benchmark: str
    label: str
    config: SimConfig
    in_order: bool
    sample_index: int
    seed: int
    warmup: int
    measure: int
    instructions: int

    @property
    def coordinates(self) -> tuple:
        """Where this job's window lands in the reassembled suite."""
        return (self.benchmark, self.label, self.sample_index)

    def describe(self) -> str:
        return "%s/%s sample %d (seed %d)" % (
            self.benchmark, self.label, self.sample_index, self.seed,
        )

    def program(self) -> Program:
        """This job's program, reused from the previous job on a match."""
        global _last_program
        key = (self.benchmark, self.instructions, self.seed)
        last = _last_program  # one read: a concurrent sweep may replace it
        if last is not None and last[0] == key:
            return last[1]
        program = spec_program(*key)
        _last_program = (key, program)
        return program

    def execute(self) -> PipelineStats:
        """Run this job's measurement window (in the current process)."""
        return run_window(
            self.program(), self.config, self.warmup, self.measure,
            in_order=self.in_order,
        )


def expand_jobs(
    benchmarks: Sequence[str],
    specs: Sequence[ConfigSpec],
    samples: int,
    warmup: int,
    measure: int,
    instructions: int,
    seed0: int = 0,
) -> List[SimJob]:
    """Expand a sweep into its independent jobs, in serial-sweep order.

    The order is benchmark, then sample, then configuration: every
    configuration of one ``(benchmark, sample)`` program runs back to
    back, which is what lets :meth:`SimJob.program` generate it once.
    """
    specs = [ConfigSpec.coerce(spec) for spec in specs]
    jobs: List[SimJob] = []
    for benchmark in benchmarks:
        for index in range(samples):
            for spec in specs:
                jobs.append(SimJob(
                    benchmark=benchmark,
                    label=spec.label,
                    config=spec.config,
                    in_order=spec.in_order,
                    sample_index=index,
                    seed=derive_seed(benchmark, spec.label, index, seed0),
                    warmup=warmup,
                    measure=measure,
                    instructions=instructions,
                ))
    return jobs


@dataclass
class JobResult:
    """One executed (or cache-served) job window."""

    job: SimJob
    window: object  # PipelineStats for SimJob; job-defined otherwise
    elapsed: float = 0.0
    from_cache: bool = False
    retried: bool = False
    #: Replayed out of a checkpoint manifest (--resume) — like a cache
    #: hit, the window was not recomputed by this run.
    resumed: bool = False
    # Execution span on time.perf_counter()'s clock — CLOCK_MONOTONIC on
    # Linux, so comparable across forked workers.  Zero for cache hits.
    t_start: float = 0.0
    t_end: float = 0.0


def execute_job(job) -> JobResult:
    """Run one job to completion (this is the per-worker entry point).

    Any picklable object with ``coordinates``, ``describe()`` and
    ``execute()`` runs through the engine unchanged — the fuzzing
    campaign's :class:`repro.fuzz.campaign.FuzzJob` is the second
    implementation next to :class:`SimJob`.
    """
    start = time.perf_counter()
    window = job.execute()
    end = time.perf_counter()
    return JobResult(
        job=job, window=window, elapsed=end - start,
        t_start=start, t_end=end,
    )
