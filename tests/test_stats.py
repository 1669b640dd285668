"""Tests for statistics counters, sampling, and report rendering."""

import pytest

from repro.config import baseline_ooo
from repro.errors import SimulationError
from repro.harness.experiment import run_suite
from repro.stats.counters import CycleClass, PipelineStats
from repro.stats.report import render_histogram, render_series, render_table
from repro.stats.sampling import Sample, SampledRun, run_window, t95
from repro.workloads.generator import spec_program


class TestPipelineStats:
    def test_cpi_and_ipc(self):
        stats = PipelineStats(cycles=100, committed=50)
        assert stats.cpi == 2.0
        assert stats.ipc == 0.5

    def test_cpi_with_no_commits(self):
        assert PipelineStats(cycles=10).cpi == float("inf")

    def test_ilp_mlp(self):
        stats = PipelineStats(ilp_sum=30, ilp_cycles=10,
                              mlp_sum=12, mlp_cycles=4)
        assert stats.ilp == 3.0
        assert stats.mlp == 3.0

    def test_empty_parallelism_metrics(self):
        stats = PipelineStats()
        assert stats.ilp == 0.0
        assert stats.mlp == 0.0

    def test_dispatch_to_issue(self):
        stats = PipelineStats(dispatch_to_issue_sum=40,
                              dispatch_to_issue_count=8)
        assert stats.mean_dispatch_to_issue == 5.0

    def test_mispredict_rate(self):
        stats = PipelineStats(branch_mispredicts=5, branches_resolved=50)
        assert stats.mispredict_rate == pytest.approx(0.1)

    def test_classify_and_fractions(self):
        stats = PipelineStats()
        stats.classify_cycle(CycleClass.COMMIT)
        stats.classify_cycle(CycleClass.COMMIT)
        stats.classify_cycle(CycleClass.MEMORY_STALL)
        stats.classify_cycle(CycleClass.FRONTEND_STALL)
        fractions = stats.breakdown_fractions()
        assert fractions[CycleClass.COMMIT] == pytest.approx(0.5)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_summary_keys(self):
        summary = PipelineStats(cycles=10, committed=5).summary()
        assert summary["cpi"] == 2.0
        for name in CycleClass.ALL:
            assert "cycles_" + name in summary


class TestSampling:
    def test_t95_decreases_with_dof(self):
        assert t95(1) > t95(5) > t95(100)
        assert t95(0) == float("inf")

    def test_snapshot_and_delta(self):
        stats = PipelineStats(cycles=100, committed=40)
        stats.cycle_class[CycleClass.COMMIT] = 30
        snap = stats.snapshot()
        stats.cycles = 150
        stats.committed = 70
        stats.cycle_class[CycleClass.COMMIT] = 45
        delta = stats.delta(snap)
        assert delta.cycles == 50
        assert delta.committed == 30
        assert delta.cycle_class[CycleClass.COMMIT] == 15
        # Snapshot is independent of later mutation.
        assert snap.cycles == 100

    def test_run_window_excludes_warmup(self):
        program = spec_program("exchange2", 4_000, seed=0)
        window = run_window(program, baseline_ooo(), warmup=1_000,
                            measure=1_500)
        # Commit-width granularity: the window can be off by a few ops at
        # both ends.
        assert 1_480 <= window.committed <= 1_600
        assert window.cycles > 0

    def test_run_window_warmup_too_long_raises(self):
        program = spec_program("exchange2", 1_000, seed=0)
        with pytest.raises(SimulationError, match="warm-up"):
            run_window(program, baseline_ooo(), warmup=500_000, measure=10)

    def test_smarts_sample_aggregation(self):
        suite = run_suite(
            benchmarks=["exchange2"], configs=["ooo"], samples=3,
            warmup=500, measure=1_000, instructions=3_000, jobs=1,
        )
        run = suite.run("exchange2", "OoO")
        assert len(run.samples) == 3
        assert run.mean_cpi > 0
        assert run.ci95 >= 0
        aggregate = run.aggregate()
        assert aggregate.committed == sum(
            s.window.committed for s in run.samples
        )

    def test_ci_zero_for_single_sample(self):
        run = SampledRun("x", "y", [
            Sample(0, PipelineStats(cycles=10, committed=10))
        ])
        assert run.ci95 == 0.0

    def test_ci_positive_for_varied_samples(self):
        run = SampledRun("x", "y", [
            Sample(0, PipelineStats(cycles=10, committed=10)),
            Sample(1, PipelineStats(cycles=20, committed=10)),
        ])
        assert run.ci95 > 0
        assert run.mean_cpi == pytest.approx(1.5)


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(("name", "value"), [("a", 1.5), ("bb", 2)])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert "1.500" in text
        assert "bb" in text

    def test_render_table_title(self):
        text = render_table(("x",), [(1,)], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_render_series(self):
        text = render_series("s", [1, 2], [10, 20], "g", "cycles")
        assert "cycles" in text
        assert "20" in text

    def test_render_histogram(self):
        text = render_histogram("h", {1: 5, 2: 10})
        assert "#" in text
        assert text.splitlines()[0] == "h"

    def test_render_histogram_empty(self):
        assert "(empty)" in render_histogram("h", {})
