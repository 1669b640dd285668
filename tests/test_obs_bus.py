"""Event-bus contract tests: dispatch mechanics and bit-identity.

The load-bearing guarantee of :mod:`repro.obs` is that observation is
free when unused and invisible when used: a run with no bus, a run with
an attached-but-idle bus, a run with subscribers/samplers, and a run
whose bus was detached again must all produce bit-identical
architectural state and counters (wall-clock fields excepted).
"""

from __future__ import annotations

import pytest

from repro.core.inorder import InOrderCore
from repro.core.ooo import OutOfOrderCore
from repro.debug import PipelineTracer
from repro.obs.bus import EVENT_NAMES, EventBus, ensure_bus
from repro.obs.sampler import MetricsSampler
from repro.workloads.generator import spec_program

from .conftest import ALL_CONFIG_SPECS, OOO_CONFIG_SPECS, config_ids

#: Stats fields that depend on the host clock, not the simulation.
_WALL_FIELDS = ("sim_wall_seconds", "kilo_cycles_per_sec")


def _fingerprint(outcome):
    stats = outcome.stats.to_dict()
    for field in _WALL_FIELDS:
        stats.pop(field, None)
    return (list(outcome.state.regs), outcome.state.pc,
            outcome.state.committed, stats)


def _run(config, in_order, *, attach=None, detach_before_run=False):
    program = spec_program("mcf", instructions=700, seed=11)
    core = (InOrderCore if in_order else OutOfOrderCore)(program, config)
    if attach is not None:
        bus = attach(core)
        if detach_before_run:
            bus.detach()
    return core.run()


class TestBitIdentity:
    """Every registered scheme must simulate identically with and
    without the telemetry layer."""

    @pytest.mark.parametrize(
        "name,config,in_order", ALL_CONFIG_SPECS,
        ids=config_ids(ALL_CONFIG_SPECS),
    )
    def test_attached_idle_bus_is_bit_identical(self, name, config,
                                                in_order):
        baseline = _run(config, in_order)
        observed = _run(config, in_order,
                        attach=lambda core: EventBus().attach(core))
        assert _fingerprint(observed) == _fingerprint(baseline)

    @pytest.mark.parametrize(
        "name,config,in_order", ALL_CONFIG_SPECS,
        ids=config_ids(ALL_CONFIG_SPECS),
    )
    def test_subscribed_and_sampled_is_bit_identical(self, name, config,
                                                     in_order):
        def attach(core):
            bus = EventBus().attach(core)
            bus.subscribe(PipelineTracer(limit=10_000))
            bus.add_sampler(MetricsSampler(interval=100))
            return bus

        baseline = _run(config, in_order)
        observed = _run(config, in_order, attach=attach)
        assert _fingerprint(observed) == _fingerprint(baseline)

    @pytest.mark.parametrize(
        "name,config,in_order", ALL_CONFIG_SPECS[:2],
        ids=config_ids(ALL_CONFIG_SPECS[:2]),
    )
    def test_detached_bus_is_bit_identical(self, name, config, in_order):
        baseline = _run(config, in_order)
        observed = _run(
            config, in_order,
            attach=lambda core: EventBus().attach(core),
            detach_before_run=True,
        )
        assert _fingerprint(observed) == _fingerprint(baseline)

    @pytest.mark.parametrize(
        "name,config,in_order", OOO_CONFIG_SPECS,
        ids=config_ids(OOO_CONFIG_SPECS),
    )
    def test_sampler_does_not_perturb_fast_forward(self, name, config,
                                                   in_order):
        """Sampling with FF on and off agrees with the plain runs."""
        program = spec_program("mcf", instructions=700, seed=11)
        outcomes = []
        for fast_forward in (True, False):
            core = OutOfOrderCore(program, config,
                                  fast_forward=fast_forward)
            bus = EventBus().attach(core)
            sampler = bus.add_sampler(MetricsSampler(interval=100))
            outcomes.append((core.run(), sampler))
        (fast, fast_sampler), (slow, slow_sampler) = outcomes
        assert _fingerprint(fast) == _fingerprint(slow)
        # FF collapses quiescent spans, so it can only drop samples.
        assert 0 < len(fast_sampler) <= len(slow_sampler)


class TestBusMechanics:
    def test_fresh_bus_has_no_handlers(self):
        bus = EventBus()
        for name in EVENT_NAMES:
            assert getattr(bus, name) is None
        assert bus.sample_due == float("inf")

    def test_single_subscriber_is_bound_directly(self):
        class Observer:
            def __init__(self):
                self.seen = []

            def instr_retire(self, entry, now):
                self.seen.append((entry, now))

        bus = EventBus()
        observer = bus.subscribe(Observer())
        assert bus.instr_retire == observer.instr_retire
        assert bus.instr_dispatch is None
        bus.instr_retire("entry", 4)
        assert observer.seen == [("entry", 4)]

    def test_two_subscribers_fan_out_in_order(self):
        calls = []

        class A:
            def instr_retire(self, entry, now):
                calls.append("a")

        class B:
            def instr_retire(self, entry, now):
                calls.append("b")

        bus = EventBus()
        bus.subscribe(A())
        bus.subscribe(B())
        bus.instr_retire("entry", 0)
        assert calls == ["a", "b"]

    def test_attach_detach_restores_slots(self, ooo_config):
        program = spec_program("mcf", instructions=200, seed=0)
        core = OutOfOrderCore(program, ooo_config)
        bus = EventBus().attach(core)
        assert core.obs is bus
        assert core.hierarchy.obs is bus
        assert core.lsq.obs is bus
        assert bus.core is core
        bus.detach()
        assert core.obs is None
        assert core.hierarchy.obs is None
        assert core.lsq.obs is None
        assert bus.core is None

    def test_detach_leaves_foreign_bus_alone(self, ooo_config):
        program = spec_program("mcf", instructions=200, seed=0)
        core = OutOfOrderCore(program, ooo_config)
        first = EventBus().attach(core)
        second = EventBus().attach(core)
        first.detach()  # must not evict the newer bus
        assert core.obs is second

    def test_ensure_bus_reuses_attached_bus(self, ooo_config):
        program = spec_program("mcf", instructions=200, seed=0)
        core = OutOfOrderCore(program, ooo_config)
        bus = ensure_bus(core)
        assert ensure_bus(core) is bus

    def test_sampler_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            MetricsSampler(interval=0)

    def test_sampler_rows_and_series(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=3)
        core = OutOfOrderCore(program, ooo_config)
        bus = EventBus().attach(core)
        sampler = bus.add_sampler(MetricsSampler(interval=50))
        outcome = core.run()
        assert len(sampler) == len(sampler.rows) > 0
        cycles = [row["cycle"] for row in sampler.rows]
        assert cycles == sorted(cycles)
        assert cycles[-1] <= outcome.stats.cycles
        assert max(row["rob"] for row in sampler.rows) > 0
        assert {tuple(row) for row in sampler.rows} == {(
            "cycle", "rob", "iq", "lq", "sq", "outstanding_misses",
            "deferred_broadcasts", "port_conflicts",
        )}

    def test_sampler_limit_caps_rows(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=3)
        core = OutOfOrderCore(program, ooo_config)
        bus = EventBus().attach(core)
        sampler = bus.add_sampler(MetricsSampler(interval=10, limit=5))
        core.run()
        assert len(sampler) == 5


class TestEventDelivery:
    """The emit sites actually fire, with counts matching the stats."""

    def _count_events(self, config, program):
        counts = {name: 0 for name in EVENT_NAMES}

        class Recorder:
            pass

        recorder = Recorder()
        for name in EVENT_NAMES:
            def bump(*args, _name=name):
                counts[_name] += 1
            setattr(recorder, name, bump)
        core = OutOfOrderCore(program, config)
        ensure_bus(core).subscribe(recorder)
        outcome = core.run()
        return counts, outcome

    def test_lifecycle_counts_match_stats(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=5)
        counts, outcome = self._count_events(ooo_config, program)
        stats = outcome.stats
        assert counts["instr_dispatch"] == stats.dispatched
        assert counts["instr_issue"] == stats.issued
        assert counts["instr_retire"] == stats.committed
        assert counts["instr_squash"] == stats.squashed_ops
        assert counts["instr_complete"] >= stats.committed
        assert counts["instr_broadcast"] > 0

    def test_nda_defers_are_emitted(self):
        from repro.config import config_registry

        strict = config_registry()["strict"]
        program = spec_program("mcf", instructions=700, seed=5)
        counts, outcome = self._count_events(strict.config, program)
        assert counts["instr_defer"] == outcome.stats.deferred_broadcasts
        assert counts["instr_defer"] > 0

    def test_invisispec_visibility_events(self):
        from repro.config import config_registry

        spec = config_registry()["invisispec-spectre"]
        program = spec_program("mcf", instructions=700, seed=5)
        counts, outcome = self._count_events(spec.config, program)
        assert counts["load_validate"] == outcome.stats.validations
        assert counts["load_expose"] == outcome.stats.exposures
        assert counts["load_validate"] + counts["load_expose"] > 0

    def test_memory_events(self, ooo_config):
        program = spec_program("mcf", instructions=700, seed=5)
        counts, _ = self._count_events(ooo_config, program)
        assert counts["data_fill"] > 0
        assert counts["inst_fill"] > 0

    def test_frontend_btb_events(self, ooo_config):
        # BTB installs need taken branches the predictor later revisits,
        # so use the branchy profile.
        program = spec_program("leela", instructions=1_500, seed=4)
        counts, _ = self._count_events(ooo_config, program)
        assert counts["btb_update"] > 0
        assert counts["store_forward"] >= 0

    def test_data_fill_names_the_load(self, ooo_config):
        fills = []

        class Recorder:
            def data_fill(self, addr, now, entry):
                fills.append((addr, entry))

        program = spec_program("mcf", instructions=700, seed=5)
        core = OutOfOrderCore(program, ooo_config)
        ensure_bus(core).subscribe(Recorder())
        core.run()
        assert fills
        for addr, entry in fills:
            assert entry is not None and entry.is_load
            assert entry.addr == addr

    def test_architectural_fills_name_no_entry(self):
        from repro.config import config_registry

        # An InvisiSpec expose refills the line at the visibility point
        # on no load's behalf; the in-order core has no ROB entries.
        fills = []

        class Recorder:
            def data_fill(self, addr, now, entry):
                fills.append(entry)

        program = spec_program("mcf", instructions=700, seed=5)
        spec = config_registry()["invisispec-spectre"]
        core = OutOfOrderCore(program, spec.config)
        ensure_bus(core).subscribe(Recorder())
        core.run()
        assert None in fills
        assert any(entry is not None for entry in fills)
        del fills[:]
        core = InOrderCore(program, None)
        ensure_bus(core).subscribe(Recorder())
        core.run()
        assert fills and set(fills) == {None}

    def test_btb_update_names_the_branch(self, ooo_config):
        from repro.isa.opcodes import Opcode

        updates = []

        class Recorder:
            def btb_update(self, pc, target, entry):
                updates.append((pc, entry))

        program = spec_program("leela", instructions=1_500, seed=4)
        core = OutOfOrderCore(program, ooo_config)
        ensure_bus(core).subscribe(Recorder())
        core.run()
        assert len(updates) == core.btb.updates > 0
        for pc, entry in updates:
            assert entry.pc == pc
            assert entry.instr.op in (Opcode.JR, Opcode.CALLR)

    def test_squash_follows_its_entries(self, ooo_config):
        events = []

        class Recorder:
            def instr_squash(self, entry, now):
                events.append(("entry", entry.seq, now))

            def squash(self, seq, now):
                events.append(("squash", seq, now))

        program = spec_program("leela", instructions=1_500, seed=4)
        core = OutOfOrderCore(program, ooo_config)
        ensure_bus(core).subscribe(Recorder())
        outcome = core.run()
        boundaries = [event for event in events if event[0] == "squash"]
        assert len(boundaries) == outcome.stats.squashes > 0
        assert events[-1][0] == "squash"
        pending = []
        for kind, seq, now in events:
            if kind == "entry":
                pending.append((seq, now))
                continue
            # Every entry squashed since the last boundary is younger
            # than this one, and was reported in the same cycle.
            assert all(s > seq and n == now for s, n in pending)
            pending = []

    def test_inorder_step_events(self):
        program = spec_program("mcf", instructions=300, seed=5)
        steps = []

        class Recorder:
            def inorder_step(self, pc, instr, start_cycle, end_cycle):
                steps.append((pc, start_cycle, end_cycle))

        core = InOrderCore(program, None)
        ensure_bus(core).subscribe(Recorder())
        outcome = core.run()
        assert len(steps) == outcome.stats.committed
        assert all(start < end for _, start, end in steps)


class TestInOrderTracer:
    def test_tracer_follows_inorder_core(self):
        program = spec_program("mcf", instructions=300, seed=5)
        core = InOrderCore(program, None)
        tracer = PipelineTracer.attach(core, limit=1_000)
        outcome = core.run()
        assert len(tracer.records) == min(outcome.stats.committed, 1_000)
        first = tracer.records[0]
        assert first.fetch >= 0
        assert first.retire >= first.fetch
        # Stages the serial core does not have stay unset.
        assert first.issue == -1 and first.broadcast == -1
        span = max(r.retire for r in tracer.records[:5]) - first.fetch + 2
        text = tracer.render(width=span)
        assert "F" in text and "R" in text

    def test_tracer_render_matches_records(self):
        program = spec_program("mcf", instructions=300, seed=5)
        core = InOrderCore(program, None)
        tracer = PipelineTracer.attach(core, limit=50)
        core.run()
        lines = tracer.render().splitlines()
        assert len(lines) == 1 + len(tracer.records) == 51
        assert lines[0].startswith("cycle offset from ")
        for line, record in zip(lines[1:], tracer.records):
            assert line.startswith("%5d  |" % record.seq)
            assert line.endswith(record.disasm)
