"""Pytest fixtures for the benchmark suite."""

import pytest

from benchmarks.common import (
    bench_benchmarks,
    bench_cache,
    bench_jobs,
    bench_measure,
    bench_samples,
)
from repro.engine.store import ShardedDiskStore
from repro.harness import run_suite


@pytest.fixture(scope="session")
def suite():
    """The shared Fig. 7 sweep (all ten configurations), engine-backed."""
    measure = bench_measure()
    result = run_suite(
        benchmarks=bench_benchmarks(),
        samples=bench_samples(),
        warmup=max(1_000, measure // 4),
        measure=measure,
        instructions=measure + measure // 2 + 2_000,
        jobs=bench_jobs(),
        cache=ShardedDiskStore() if bench_cache() else None,
    )
    print("\nsuite engine: %s" % result.engine.describe())
    return result
