"""Simulator-speed harness tests, focused on the telemetry overhead
measurement (`bench-simspeed --obs`)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.simspeed import (
    SCHEMA,
    _slowest_row,
    compare_simspeed,
    measure_case,
    measure_obs_overhead,
    render_simspeed,
    run_simspeed,
)


@pytest.fixture(scope="module")
def obs_payload():
    return run_simspeed(
        workloads=["mcf"], configs=["strict"],
        instructions=600, repeats=1, seed=7, obs=True,
    )


class TestObsOverhead:
    def test_measurement_shape(self):
        result = measure_obs_overhead(
            workload="mcf", config_name="strict",
            instructions=600, repeats=1, seed=7, sample_interval=500,
        )
        assert result["workload"] == "mcf"
        assert result["config"] == "strict"
        assert result["cycles"] > 0
        assert result["samples"] > 0
        for key in ("wall_seconds_detached", "wall_seconds_attached_idle",
                    "wall_seconds_sampling"):
            assert result[key] > 0
        for key in ("overhead_attached_idle", "overhead_sampling"):
            assert result[key] > -1.0

    def test_in_order_config_rejected(self):
        with pytest.raises(ValueError):
            measure_obs_overhead(config_name="in-order")

    def test_payload_obs_section(self, obs_payload):
        obs = obs_payload["obs"]
        assert obs["config"] == "strict"
        # The obs run and the FF measurement simulate the same program.
        assert obs["cycles"] == obs_payload["results"][0]["cycles"]

    def test_payload_without_obs_flag_omits_section(self):
        payload = run_simspeed(
            workloads=["mcf"], configs=["ooo"],
            instructions=600, repeats=1, seed=7,
        )
        assert "obs" not in payload

    def test_render_includes_overhead_line(self, obs_payload):
        text = render_simspeed(obs_payload)
        assert "telemetry overhead" in text
        assert "sampling" in text


class TestMeasureCase:
    def test_fast_forward_agrees_and_reports_rates(self):
        case = measure_case("mcf", "ooo", instructions=600, repeats=1,
                            seed=7)
        assert case["cycles"] > 0
        assert case["cycles_per_sec"] > 0
        assert case["speedup_vs_no_ff"] > 0

    def test_in_order_config_rejected(self):
        with pytest.raises(ValueError):
            measure_case("mcf", "in-order")


class TestCompare:
    def test_parameter_mismatch_skips(self, obs_payload):
        baseline = dict(obs_payload, instructions=12345)
        notes = compare_simspeed(obs_payload, baseline)
        assert len(notes) == 1 and "skipping" in notes[0]

    def test_schema_mismatch_skips(self, obs_payload):
        baseline = dict(obs_payload, schema=1)
        notes = compare_simspeed(obs_payload, baseline)
        assert len(notes) == 1 and "schema" in notes[0]

    def test_regression_warns(self, obs_payload):
        baseline = {
            "schema": obs_payload["schema"],
            "instructions": obs_payload["instructions"],
            "seed": obs_payload["seed"],
            "results": [
                dict(case, cycles_per_sec=case["cycles_per_sec"] * 10)
                for case in obs_payload["results"]
            ],
        }
        warnings = compare_simspeed(obs_payload, baseline)
        assert warnings and all("WARNING" in w for w in warnings)

    def test_identical_payload_is_clean(self, obs_payload):
        assert compare_simspeed(obs_payload, obs_payload) == []

    def test_checked_in_baseline_is_comparable(self, obs_payload):
        # CI's perf-smoke diffs a fresh run against this file; a baseline
        # of another schema would only print a NOTE and compare nothing.
        path = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"
        baseline = json.loads(path.read_text())
        assert baseline["schema"] == SCHEMA
        assert all("windows" not in case for case in baseline["results"])
        # ... and it holds the rows of the --quick matrix CI runs.
        rows = {(c["workload"], c["config"]) for c in baseline["results"]}
        assert {("mcf", "ooo"), ("mcf", "strict")} <= rows
        fresh = dict(obs_payload, instructions=baseline["instructions"],
                     seed=baseline["seed"])
        assert not any("NOTE" in line
                       for line in compare_simspeed(fresh, baseline))


class TestSlowestRow:
    def test_picks_the_lowest_rate(self):
        payload = {"results": [
            {"workload": "mcf", "config": "ooo", "cycles_per_sec": 9e5},
            {"workload": "leela", "config": "strict", "cycles_per_sec": 3e5},
            {"workload": "exchange2", "config": "ooo", "cycles_per_sec": 5e5},
        ]}
        row = _slowest_row(payload)
        assert (row["workload"], row["config"]) == ("leela", "strict")

    def test_real_payload_has_a_target(self, obs_payload):
        assert _slowest_row(obs_payload) is obs_payload["results"][0]

    def test_empty_payload_has_none(self):
        assert _slowest_row({"results": []}) is None
