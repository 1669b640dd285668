"""Tests for the experiment harness, figure builders, and tables."""

import pytest

from repro.config import (
    ConfigSpec,
    NDAPolicyName,
    baseline_ooo,
    nda_config,
)
from repro.harness.experiment import (
    BASELINE_LABEL,
    IN_ORDER_LABEL,
    SuiteResult,
    figure7_config_specs,
    run_suite,
)
from repro.harness.figures import (
    figure4,
    figure7,
    figure8,
    figure9a,
    figure9b,
    figure9c,
    figure9d,
    render_figure4,
    render_figure7,
    render_figure9a,
    render_figure9bc,
    render_figure9d,
)
from repro.harness.tables import (
    render_table1,
    render_table2,
    render_table3,
    table2,
    table3,
)
from repro.stats.counters import CycleClass


@pytest.fixture(scope="module")
def tiny_suite() -> SuiteResult:
    specs = [
        ConfigSpec("OoO", baseline_ooo()),
        ConfigSpec("Full Protection",
                   nda_config(NDAPolicyName.FULL_PROTECTION)),
        ConfigSpec("In-Order", baseline_ooo(), in_order=True),
    ]
    return run_suite(
        benchmarks=["exchange2", "leela"],
        configs=specs,
        samples=2,
        warmup=500,
        measure=2_000,
        instructions=4_000,
    )


class TestSuiteResult:
    def test_all_cells_present(self, tiny_suite):
        assert set(tiny_suite.runs) == {
            (bench, label)
            for bench in ("exchange2", "leela")
            for label in ("OoO", "Full Protection", "In-Order")
        }

    def test_baseline_normalizes_to_one(self, tiny_suite):
        for bench in tiny_suite.benchmarks:
            assert tiny_suite.normalized_cpi(bench, BASELINE_LABEL) == 1.0

    def test_protection_ordering(self, tiny_suite):
        full = tiny_suite.mean_normalized_cpi("Full Protection")
        inorder = tiny_suite.mean_normalized_cpi(IN_ORDER_LABEL)
        assert 1.0 <= full <= inorder

    def test_overhead_pct(self, tiny_suite):
        assert tiny_suite.overhead_pct(BASELINE_LABEL) == pytest.approx(0.0)
        assert tiny_suite.overhead_pct("Full Protection") > 0

    def test_gap_closed_bounds(self, tiny_suite):
        gap = tiny_suite.gap_closed_pct("Full Protection")
        assert 0 <= gap <= 100
        assert tiny_suite.gap_closed_pct(IN_ORDER_LABEL) == pytest.approx(0)

    def test_speedup_over_inorder(self, tiny_suite):
        assert tiny_suite.speedup_over_inorder("Full Protection") > 1.0

    def test_breakdown_sums_to_normalized_cycles(self, tiny_suite):
        breakdown = tiny_suite.breakdown(BASELINE_LABEL)
        assert sum(breakdown.values()) == pytest.approx(1.0)
        full = tiny_suite.breakdown("Full Protection")
        assert sum(full.values()) > 1.0  # more cycles than baseline

    def test_geomean_metric(self, tiny_suite):
        assert tiny_suite.geomean_metric(BASELINE_LABEL, "ilp") > 0


class TestFigureBuilders:
    def test_figure7_rows(self, tiny_suite):
        rows = figure7(tiny_suite)
        assert len(rows) == 6
        assert {"benchmark", "config", "norm_cpi", "ci95"} <= set(rows[0])

    def test_figure9a_excludes_inorder(self, tiny_suite):
        data = figure9a(tiny_suite)
        assert IN_ORDER_LABEL not in data
        for breakdown in data.values():
            assert set(breakdown) == set(CycleClass.ALL)

    def test_figure9b_9c(self, tiny_suite):
        mlp = figure9b(tiny_suite)
        ilp = figure9c(tiny_suite)
        assert set(mlp) == set(tiny_suite.labels)
        # The in-order core cannot exceed ILP/MLP of 1.
        assert ilp[IN_ORDER_LABEL] <= 1.0

    def test_figure9d(self, tiny_suite):
        data = figure9d(tiny_suite)
        assert data["Full Protection"] >= data[BASELINE_LABEL]

    def test_renderers_produce_text(self, tiny_suite):
        assert "Figure 7" in render_figure7(tiny_suite)
        assert "Figure 9a" in render_figure9a(tiny_suite)
        assert "Figure 9b" in render_figure9bc(tiny_suite)
        assert "Figure 9d" in render_figure9d(tiny_suite)


class TestAttackFigures:
    def test_figure4_leaks_on_baseline(self):
        guesses = [0, 21, 42, 63, 84]
        data = figure4(guesses=guesses)
        assert data["cache"].leaked
        assert data["btb"].leaked
        assert "Figure 4" in render_figure4(data)

    def test_figure8_blocks_under_permissive(self):
        guesses = [0, 21, 42, 63, 84]
        data = figure8(guesses=guesses)
        assert not data["cache"].leaked
        assert not data["btb"].leaked


class TestTables:
    def test_table2_rows(self, tiny_suite):
        rows = table2(tiny_suite)
        labels = [row["mechanism"] for row in rows]
        assert BASELINE_LABEL not in labels
        assert "Full Protection" in labels
        assert "Table 2" in render_table2(rows)

    def test_table3_structure(self):
        rows = table3()
        assert any("8-issue" in value for _, value in rows)
        assert "Table 3" in render_table3()

    def test_figure7_specs_cover_every_registered_config(self):
        specs = figure7_config_specs()
        assert len(specs) == 11
        assert specs[7].label == IN_ORDER_LABEL
        assert specs[7].in_order

    def test_render_table1_from_synthetic_rows(self):
        rows = [
            {"attack": "a", "access_class": "control-steering",
             "channel": "d-cache", "config": "OoO", "leaked": True,
             "expected": True},
            {"attack": "a", "access_class": "control-steering",
             "channel": "d-cache", "config": "Permissive", "leaked": False,
             "expected": True},
        ]
        text = render_table1(rows)
        assert "LEAK" in text
        assert "!?" in text  # the mismatch marker


class TestSuitePersistence:
    def test_summary_structure(self, tiny_suite):
        summary = tiny_suite.summary()
        assert set(summary) == set(tiny_suite.labels)
        for values in summary.values():
            assert {"mean_normalized_cpi", "overhead_pct",
                    "gap_closed_pct", "speedup_vs_inorder", "mlp", "ilp",
                    "dispatch_to_issue"} <= set(values)

    def test_save_summary_roundtrips(self, tiny_suite, tmp_path):
        import json
        path = tmp_path / "suite.json"
        tiny_suite.save_summary(path)
        payload = json.loads(path.read_text())
        assert payload["benchmarks"] == tiny_suite.benchmarks
        assert payload["normalized_cpi"]["exchange2"]["OoO"] == 1.0
