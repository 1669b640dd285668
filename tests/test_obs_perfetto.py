"""Chrome trace-event / Perfetto export tests.

Includes the acceptance case for the telemetry PR: a Spectre v1 run
under NDA strict exports a valid Chrome trace with full fetch-to-retire
lifecycle spans *and* explicit defer slices for NDA's withheld
broadcasts.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.attacks.taxonomy import IMPLEMENTED
from repro.cli import main
from repro.config import config_registry
from repro.core.ooo import OutOfOrderCore
from repro.debug import PipelineTracer
from repro.obs.bus import EventBus
from repro.obs.perfetto import (
    PIPELINE_PID,
    counter_trace_events,
    lifecycle_trace_events,
    smt_trace_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.sampler import MetricsSampler
from repro.workloads.generator import spec_program

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


def _traced_run(config, program, sample_interval=200):
    core = OutOfOrderCore(program, config)
    bus = EventBus().attach(core)
    tracer = PipelineTracer(limit=50_000)
    bus.subscribe(tracer)
    sampler = bus.add_sampler(MetricsSampler(sample_interval))
    outcome = core.run()
    return tracer, sampler, outcome


@pytest.fixture(scope="module")
def spectre_trace():
    """One Spectre v1 run under NDA strict, traced end to end."""
    attack = next(i for i in IMPLEMENTED if i.name == "spectre_v1_cache")
    program = attack.module.build_program()
    strict = config_registry()["strict"]
    tracer, sampler, outcome = _traced_run(strict.config, program)
    events = lifecycle_trace_events(tracer.records)
    events += counter_trace_events(sampler)
    return tracer, sampler, outcome, events


class TestSpectreV1Acceptance:
    def test_trace_is_valid_chrome_json(self, spectre_trace, tmp_path):
        _, _, outcome, events = spectre_trace
        assert validate_chrome_trace(events) == []
        path = write_chrome_trace(
            str(tmp_path / "spectre.json"), events,
            metadata={"target": "spectre_v1_cache", "config": "strict"},
        )
        payload = json.loads(open(path).read())
        assert validate_chrome_trace(payload) == []
        assert payload["metadata"]["config"] == "strict"
        assert len(payload["traceEvents"]) == len(events)

    def test_full_lifecycle_spans_present(self, spectre_trace):
        _, _, _, events = spectre_trace
        slices = [e for e in events if e["ph"] == "X"]
        stages = {e.get("cat", "").split(",")[1] for e in slices}
        assert {"fetch", "queue", "execute", "commit"} <= stages

    def test_nda_defer_slices_present(self, spectre_trace):
        tracer, _, outcome, events = spectre_trace
        defers = [e for e in events if "defer" in e.get("cat", "")]
        assert outcome.stats.deferred_broadcasts > 0
        assert defers, "NDA strict must produce visible defer gaps"
        for event in defers:
            assert event["dur"] >= 1
            assert event["args"]["deferred_cycles"] == event["dur"]
        # Every defer slice corresponds to a record with a wide
        # complete-to-broadcast gap.
        gaps = sum(1 for r in tracer.records if r.wakeup_delay > 1)
        assert len(defers) == gaps

    def test_counter_tracks_cover_the_run(self, spectre_trace):
        _, sampler, outcome, events = spectre_trace
        counters = [e for e in events if e["ph"] == "C"]
        assert len(counters) == 3 * len(sampler)
        names = {e["name"] for e in counters}
        assert names == {"occupancy", "memory", "defers/window"}
        last = max(e["ts"] for e in counters)
        assert last <= outcome.stats.cycles


class TestLifecycleEvents:
    def test_lane_assignment_reuses_free_lanes(self, ooo_config):
        program = spec_program("exchange2", instructions=1_500, seed=4)
        tracer, _, _ = _traced_run(ooo_config, program)
        events = lifecycle_trace_events(tracer.records)
        lanes = {e["tid"] for e in events if e["ph"] == "X"}
        assert len(lanes) <= 64
        assert len(lanes) < len(tracer.records)

    def test_squashed_instructions_are_marked(self, ooo_config):
        program = spec_program("leela", instructions=1_500, seed=4)
        tracer, _, outcome = _traced_run(ooo_config, program)
        assert outcome.stats.squashed_ops > 0
        events = lifecycle_trace_events(tracer.records)
        squash_instants = [
            e for e in events if e.get("cat", "") == "pipeline,squash"
        ]
        assert squash_instants
        assert all(e["ph"] == "i" for e in squash_instants)
        assert all(
            e["name"].startswith("squash [squashed]")
            for e in squash_instants
        )

    def test_invisispec_flow_events_pair_up(self):
        spec = config_registry()["invisispec-spectre"]
        program = spec_program("mcf", instructions=1_000, seed=4)
        tracer, _, outcome = _traced_run(spec.config, program)
        assert outcome.stats.validations + outcome.stats.exposures > 0
        events = lifecycle_trace_events(tracer.records)
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert starts and len(starts) == len(ends)
        assert {e["id"] for e in starts} == {e["id"] for e in ends}
        assert all(e["bp"] == "e" for e in ends)
        assert validate_chrome_trace(events) == []

    def test_process_metadata_event(self, ooo_config):
        program = spec_program("mcf", instructions=400, seed=4)
        tracer, _, _ = _traced_run(ooo_config, program)
        events = lifecycle_trace_events(tracer.records)
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["pid"] == PIPELINE_PID
        assert meta[0]["args"]["name"] == "simulated pipeline"


class TestSmtCrossAttackTrace:
    """A real two-context cross-attack run renders one Perfetto lane
    group per hardware context (the ISSUE 10 satellite case)."""

    @pytest.fixture(scope="class")
    def cross_attack_events(self):
        from dataclasses import replace

        from repro.config import SimConfig
        from repro.fuzz.generator import generate_smt
        from repro.smt import SmtMachine

        pair = generate_smt(3, template="smt-btb-poison")
        config = replace(
            SimConfig(), num_contexts=2, sharing="smt",
        ).validate()
        machine = SmtMachine(
            [pair.attacker, pair.victim.program], config,
        )
        tracers = [
            PipelineTracer.attach(core, limit=50_000)
            for core in machine.cores
        ]
        outcomes = machine.run(max_cycles=400_000)
        events = smt_trace_events([t.records for t in tracers])
        return tracers, outcomes, events

    def test_trace_validates(self, cross_attack_events, tmp_path):
        _, _, events = cross_attack_events
        assert validate_chrome_trace(events) == []
        path = write_chrome_trace(
            str(tmp_path / "cross.json"), events,
            metadata={"template": "smt-btb-poison", "sharing": "smt"},
        )
        assert validate_chrome_trace(json.loads(open(path).read())) == []

    def test_distinct_lanes_per_context(self, cross_attack_events):
        tracers, outcomes, events = cross_attack_events
        for context, (tracer, outcome) in enumerate(
            zip(tracers, outcomes)
        ):
            assert outcome.stats.committed > 0
            assert tracer.records, "context %d traced nothing" % context
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["pid"] for e in slices} == {
            PIPELINE_PID, PIPELINE_PID + 1,
        }
        # Both contexts advance on the shared cycle ruler: their slice
        # timestamp ranges overlap rather than running back to back.
        spans = {
            pid: (
                min(e["ts"] for e in slices if e["pid"] == pid),
                max(e["ts"] for e in slices if e["pid"] == pid),
            )
            for pid in (PIPELINE_PID, PIPELINE_PID + 1)
        }
        (a_lo, a_hi), (b_lo, b_hi) = spans.values()
        assert a_lo <= b_hi and b_lo <= a_hi

    def test_process_names_identify_contexts(self, cross_attack_events):
        _, _, events = cross_attack_events
        names = {
            e["args"]["name"] for e in events if e["ph"] == "M"
            and e.get("name") == "process_name"
        }
        assert names == {"context 0 pipeline", "context 1 pipeline"}


class TestObsCli:
    def test_obs_trace_writes_only_the_trace(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        code = main([
            "obs", "trace", "spectre_v1_cache", "--config", "strict",
            "--output", "trace.json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "deferred wake-ups" in out
        assert "ui.perfetto.dev" in out
        assert [p.name for p in tmp_path.iterdir()] == ["trace.json"]
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert validate_chrome_trace(payload) == []
        # DESIGN.md §3.5 states how many defer slices this trace shows.
        defers = [e for e in payload["traceEvents"]
                  if "defer" in e.get("cat", "")]
        claim = re.search(r"(\d+) defer slices", DESIGN.read_text())
        assert claim and int(claim.group(1)) == len(defers)

    def test_obs_trace_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["obs", "trace", "rowhammer"])


class TestValidation:
    def test_rejects_non_list_payload(self):
        assert validate_chrome_trace(42)
        assert validate_chrome_trace({"nope": []})

    def test_rejects_malformed_events(self):
        problems = validate_chrome_trace([
            {"ph": "X", "name": "n", "pid": 1, "ts": 0},   # missing dur
            {"name": "n", "pid": 1, "ts": 0},              # missing ph
            {"ph": "s", "name": "n", "pid": 1, "ts": 0},   # missing id
        ])
        assert len(problems) == 3

    def test_write_refuses_invalid_trace(self, tmp_path):
        with pytest.raises(ValueError):
            write_chrome_trace(
                str(tmp_path / "bad.json"), [{"ph": "X"}]
            )
        assert not (tmp_path / "bad.json").exists()
