"""SMARTS-style simulation sampling (§6.1 methodology).

The paper samples SPEC execution with the SMARTS methodology: many short
measurement windows, each preceded by warm-up, aggregated with 95%
confidence intervals.  Their checkpoints come from real-hardware snapshots;
ours come from the deterministic workload generator — each *seed* is a
checkpoint.  A sample runs one generated program, discards the first
``warmup`` committed instructions (caches, predictors, and queues warm up
during them) and measures the next ``measure`` instructions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import List, Optional

from repro.config import SimConfig
from repro.core.inorder import InOrderCore
from repro.core import make_core
from repro.errors import SimulationError
from repro.isa.program import Program
from repro.stats.counters import PipelineStats

# Two-sided 95% t-distribution critical values by degrees of freedom.
_T95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 15: 2.131, 20: 2.086,
    30: 2.042, 60: 2.000,
}


def t95(dof: int) -> float:
    """95% two-sided Student-t critical value."""
    if dof <= 0:
        return float("inf")
    candidates = [k for k in _T95 if k <= dof]
    if not candidates:
        return _T95[1]
    return _T95[max(candidates)]


@dataclass
class Sample:
    """One measurement window."""

    seed: int
    window: PipelineStats

    @property
    def cpi(self) -> float:
        return self.window.cpi


@dataclass
class SampledRun:
    """Aggregated samples for one (benchmark, config) pair."""

    label: str
    benchmark: str
    samples: List[Sample]

    @property
    def cpis(self) -> List[float]:
        return [sample.cpi for sample in self.samples]

    @property
    def mean_cpi(self) -> float:
        cpis = self.cpis
        return sum(cpis) / len(cpis)

    @property
    def ci95(self) -> float:
        """Half-width of the 95% confidence interval of the mean CPI."""
        cpis = self.cpis
        n = len(cpis)
        if n < 2:
            return 0.0
        mean = self.mean_cpi
        variance = sum((c - mean) ** 2 for c in cpis) / (n - 1)
        return t95(n - 1) * math.sqrt(variance / n)

    def aggregate(self) -> PipelineStats:
        """Sum of all measurement windows (for breakdown/parallelism figs)."""
        total = PipelineStats()
        for sample in self.samples:
            window = sample.window
            for field_info in fields(PipelineStats):
                name = field_info.name
                value = getattr(window, name)
                if isinstance(value, dict):
                    merged = getattr(total, name)
                    for key, item in value.items():
                        merged[key] = merged.get(key, 0) + item
                else:
                    setattr(total, name, getattr(total, name) + value)
        return total


def run_window(
    program: Program,
    config: SimConfig,
    warmup: int,
    measure: int,
    in_order: bool = False,
    max_cycles: int = 30_000_000,
    fast_forward: bool = True,
) -> PipelineStats:
    """Run *program*, returning the counters of the measurement window.

    Window boundaries are committed-instruction counts and fast-forward
    jumps commit nothing, so windows are bit-identical with the jump
    enabled (``fast_forward=False`` exists for the equivalence tests).
    """
    core = InOrderCore(program, config) if in_order \
        else make_core(program, config, fast_forward=fast_forward)
    start: Optional[PipelineStats] = None
    # Two run_to_commit legs replace the old per-advance() Python loop;
    # the cores run the identical advance sequence with the boundary
    # tests hoisted into the core's own (much cheaper) driver loop, so
    # the window counters are bit-identical to the historical loop.
    core.run_to_commit(warmup, max_cycles)
    if core.committed >= warmup:
        core.stats.cycles = core.cycle
        core.stats.committed = core.committed
        start = core.stats.snapshot()
        core.run_to_commit(warmup + measure, max_cycles)
    if start is None:
        raise SimulationError(
            "program %s halted after %d instructions, before the %d-"
            "instruction warm-up finished" %
            (program.name, core.committed, warmup)
        )
    core.stats.cycles = core.cycle
    core.stats.committed = core.committed
    window = core.stats.delta(start)
    if window.committed == 0:
        raise SimulationError("empty measurement window for %s" % program.name)
    return window
