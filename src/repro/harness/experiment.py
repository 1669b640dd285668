"""Suite runner: one sweep powers every performance figure and table.

Runs every (benchmark, configuration) pair with SMARTS-style sampling and
keeps the per-window counters, so Fig. 7 (CPI), Fig. 9a (breakdown),
Fig. 9b/9c (MLP/ILP), Fig. 9d (wake-up latency) and Table 2 (overheads)
are all views over a single :class:`SuiteResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import ConfigSpec, config_registry
from repro.engine.jobs import expand_jobs
from repro.engine.store import ShardedDiskStore
from repro.engine.scheduler import EngineStats, ProgressFn, run_jobs
from repro.errors import SimulationError
from repro.stats.sampling import Sample, SampledRun
from repro.workloads.profiles import DEFAULT_SUITE

IN_ORDER_LABEL = "In-Order"
BASELINE_LABEL = "OoO"


def figure7_config_specs() -> List[ConfigSpec]:
    """The ten configurations of Fig. 7, in the paper's legend order.

    This is simply the canonical :func:`repro.config.config_registry`
    sweep (the registry's insertion order *is* the legend order, with
    In-Order between the NDA policies and InvisiSpec).
    """
    return list(config_registry().values())


@dataclass
class SuiteResult:
    """All sampled runs of one sweep."""

    benchmarks: List[str]
    labels: List[str]
    runs: Dict[Tuple[str, str], SampledRun] = field(default_factory=dict)
    # Filled in by run_suite(): job/cache/timing accounting of the sweep.
    engine: Optional[EngineStats] = None

    def run(self, benchmark: str, label: str) -> SampledRun:
        return self.runs[(benchmark, label)]

    # -------------------------------------------------------------- #
    # CPI views.
    # -------------------------------------------------------------- #

    def normalized_cpi(self, benchmark: str, label: str) -> float:
        """CPI normalized to the insecure OoO baseline (Fig. 7 x-axis)."""
        baseline = self.run(benchmark, BASELINE_LABEL).mean_cpi
        return self.run(benchmark, label).mean_cpi / baseline

    def normalized_ci(self, benchmark: str, label: str) -> float:
        baseline = self.run(benchmark, BASELINE_LABEL).mean_cpi
        return self.run(benchmark, label).ci95 / baseline

    def mean_normalized_cpi(self, label: str) -> float:
        """Arithmetic mean over benchmarks of normalized CPI."""
        values = [
            self.normalized_cpi(bench, label) for bench in self.benchmarks
        ]
        return sum(values) / len(values)

    def overhead_pct(self, label: str) -> float:
        """Average slowdown vs. the OoO baseline, in percent (Table 2)."""
        return (self.mean_normalized_cpi(label) - 1.0) * 100.0

    def speedup_over_inorder(self, label: str) -> float:
        """How many times faster than In-Order this config runs."""
        inorder = self.mean_normalized_cpi(IN_ORDER_LABEL)
        return inorder / self.mean_normalized_cpi(label)

    def gap_closed_pct(self, label: str) -> float:
        """Fraction of the In-Order <-> OoO gap recovered (paper abstract)."""
        inorder = self.mean_normalized_cpi(IN_ORDER_LABEL)
        mine = self.mean_normalized_cpi(label)
        if inorder <= 1.0:
            return 100.0
        return (inorder - mine) / (inorder - 1.0) * 100.0

    # -------------------------------------------------------------- #
    # Aggregated counter views (Fig. 9).
    # -------------------------------------------------------------- #

    def breakdown(self, label: str) -> Dict[str, float]:
        """Cycle-class shares across the suite, normalized to OoO cycles.

        Each benchmark is normalized to *its own* baseline cycle count
        before averaging (as in the paper's Fig. 9a bars), so memory-bound
        benchmarks with huge absolute cycle counts do not swamp the mix.
        """
        sums: Dict[str, float] = {}
        for bench in self.benchmarks:
            base_cycles = self.run(bench, BASELINE_LABEL).aggregate().cycles
            aggregate = self.run(bench, label).aggregate()
            for name, count in aggregate.cycle_class.items():
                sums[name] = sums.get(name, 0.0) + count / base_cycles
        count = len(self.benchmarks)
        return {name: value / count for name, value in sums.items()}

    def geomean_metric(self, label: str, metric: str) -> float:
        """Geometric mean over benchmarks of a PipelineStats property."""
        product = 1.0
        count = 0
        for bench in self.benchmarks:
            value = getattr(self.run(bench, label).aggregate(), metric)
            if value > 0:
                product *= value
                count += 1
        return product ** (1.0 / count) if count else 0.0

    def mean_metric(self, label: str, metric: str) -> float:
        values = [
            getattr(self.run(bench, label).aggregate(), metric)
            for bench in self.benchmarks
        ]
        return sum(values) / len(values)

    # -------------------------------------------------------------- #
    # Persistence.
    # -------------------------------------------------------------- #

    def summary(self) -> dict:
        """Headline numbers per configuration, JSON-serializable."""
        out = {}
        for label in self.labels:
            out[label] = {
                "mean_normalized_cpi": self.mean_normalized_cpi(label),
                "overhead_pct": self.overhead_pct(label),
                "gap_closed_pct": self.gap_closed_pct(label),
                "speedup_vs_inorder": self.speedup_over_inorder(label),
                "mlp": self.geomean_metric(label, "mlp"),
                "ilp": self.geomean_metric(label, "ilp"),
                "dispatch_to_issue": self.mean_metric(
                    label, "mean_dispatch_to_issue"
                ),
            }
        return out

    def save_summary(self, path) -> None:
        """Write the per-config summary (plus per-benchmark CPI) as JSON."""
        import json

        payload = {
            "benchmarks": self.benchmarks,
            "labels": self.labels,
            "summary": self.summary(),
            "normalized_cpi": {
                bench: {
                    label: self.normalized_cpi(bench, label)
                    for label in self.labels
                }
                for bench in self.benchmarks
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)


def run_suite(
    benchmarks: Sequence[str] = DEFAULT_SUITE,
    configs: Optional[Sequence[ConfigSpec]] = None,
    samples: int = 3,
    warmup: int = 2_000,
    measure: int = 8_000,
    instructions: int = 14_000,
    seed0: int = 0,
    verbose: bool = False,
    jobs: Optional[int] = None,
    cache: Optional[ShardedDiskStore] = None,
    progress: Optional[ProgressFn] = None,
    backend: Optional[str] = None,
) -> SuiteResult:
    """Run the full sweep and return every sampled run.

    The sweep is expanded into independent jobs, ordered benchmark x
    sample x config so that every configuration of one sampled program
    runs back to back and shares one generated program, and executed by
    the :mod:`repro.engine` scheduler:

    * ``jobs`` — worker processes (default ``os.cpu_count()``; ``jobs=1``
      runs serially in-process).  Results are identical either way.
    * ``cache`` — a :class:`ShardedDiskStore` serves repeated jobs from
      disk and stores every executed window, so a killed sweep rerun
      against the same store executes only what had not finished;
      ``None`` stores nothing.
    * ``backend`` — ``"serial"`` runs every job in this process
      whatever ``jobs`` says; ``"local-pool"`` or ``None`` sizes the
      pool from ``jobs``.
    * ``progress`` — per-job callback ``(done, total, job_result)``.

    Job/cache/timing accounting lands on ``result.engine``.
    """
    specs = (
        [ConfigSpec.coerce(spec) for spec in configs]
        if configs is not None else figure7_config_specs()
    )
    job_list = expand_jobs(
        benchmarks, specs, samples, warmup, measure, instructions, seed0
    )
    job_results, failures, engine_stats = run_jobs(
        job_list, jobs=jobs, cache=cache, progress=progress,
        backend=backend,
    )
    if failures:
        raise SimulationError(
            "%d of %d sweep jobs failed: %s" % (
                len(failures), len(job_list),
                "; ".join(
                    "%s: %s" % (f.job.describe(), f.error)
                    for f in failures[:5]
                ),
            )
        )

    # Reassemble windows into SampledRuns, exactly as the serial loop did.
    windows: Dict[Tuple[str, str], List[Sample]] = {}
    for job_result in job_results:
        job = job_result.job
        windows.setdefault((job.benchmark, job.label), []).append(
            Sample(seed=job.seed, window=job_result.window)
        )
    result = SuiteResult(
        benchmarks=list(benchmarks),
        labels=[spec.label for spec in specs],
        engine=engine_stats,
    )
    for bench in benchmarks:
        for spec in specs:
            cell = windows.get((bench, spec.label))
            if not cell:
                raise SimulationError(
                    "no samples for (%s, %s)" % (bench, spec.label)
                )
            run = SampledRun(
                label=spec.label, benchmark=bench, samples=cell
            )
            result.runs[(bench, spec.label)] = run
            if verbose:
                print(
                    "  %-12s %-20s CPI %.3f +/- %.3f"
                    % (bench, spec.label, run.mean_cpi, run.ci95)
                )
    return result
