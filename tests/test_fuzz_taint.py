"""Taint-oracle unit tests: propagation, squash-clearing, transparency.

The oracle is pure observation, so the strongest property here is the
last one: a core with the oracle subscribed to its event bus must
produce *bit-identical* statistics to a core without one — the same
contract the idle-cycle fast-forward upholds — and sharing the bus with
the pipeline tracer changes neither subscriber's view.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.api import simulate
from repro.attacks.common import PROBE_BASE, SCRATCH_BASE
from repro.config import config_registry
from repro.core.ooo import OutOfOrderCore
from repro.debug import PipelineTracer
from repro.fuzz import TaintOracle, generate, run_with_oracle
from repro.fuzz.campaign import fuzz_configs
from repro.fuzz.generator import generate_smt
from repro.fuzz.taint import SHARED_CHANNELS
from repro.isa.assembler import Assembler
from repro.isa.registers import R5, R6, R10, R11, R12, R20, R21
from repro.obs import EventBus
from repro.obs.bus import EVENT_NAMES
from repro.smt import SmtMachine

WALL_FIELDS = {"sim_wall_seconds", "kilo_cycles_per_sec"}

SECRET_ADDR = 0x0040_0000
SIZE_ADDR = 0x0041_0000


def stats_dict(outcome):
    data = asdict(outcome.stats)
    for field in WALL_FIELDS:
        data.pop(field)
    return data


def _window_program(body) -> "Assembler":
    """A bounds-check mis-speculation window around *body*.

    Trains the branch not-taken (in-bounds), flushes the bound, then
    calls once out-of-bounds: ``body(asm)`` runs only transiently.
    """
    asm = Assembler("taint-unit")
    asm.word(SIZE_ADDR, 4)
    asm.data(SECRET_ADDR + 8, bytes([0x2A]))
    asm.jmp("main")

    asm.label("victim")
    asm.li(R20, SIZE_ADDR)
    asm.load(R20, R20, 0)
    asm.bge(R10, R20, "victim_done")
    body(asm)
    asm.label("victim_done")
    asm.ret()

    asm.label("main")
    asm.li(R11, SECRET_ADDR)
    asm.li(R12, PROBE_BASE)
    asm.li(R20, SECRET_ADDR + 8)
    asm.loadb(R21, R20, 0)  # warm the secret line
    for train in range(4):
        asm.li(R10, train % 4)
        asm.call("victim")
    asm.fence()
    asm.li(R20, SIZE_ADDR)
    asm.clflush(R20, 0)
    asm.fence()
    asm.li(R10, 8)  # out of bounds -> transient body
    asm.call("victim")
    asm.fence()
    asm.halt()
    return asm


class TestPropagation:
    def test_load_taints_and_address_use_witnesses(self):
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)  # secret
            asm.shli(R5, R5, 7)  # one cache line per value
            asm.add(R5, R5, R12)
            asm.load(R6, R5, 0)  # tainted-address fill

        program = _window_program(body).build()
        _, witnesses = run_with_oracle(
            program, config_registry()["ooo"].config,
            secret_ranges=((SECRET_ADDR + 8, SECRET_ADDR + 9),),
        )
        assert any(w.channel == "d-cache" for w in witnesses)

    def test_store_to_load_forwarding_propagates(self):
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)  # secret
            asm.li(R6, SCRATCH_BASE)
            asm.store(R5, R6, 0)  # tainted data parked in the LSQ
            asm.load(R5, R6, 0)  # forwarded back: taint must survive
            asm.shli(R5, R5, 7)  # one cache line per value
            asm.add(R5, R5, R12)
            asm.load(R6, R5, 0)  # tainted-address fill

        program = _window_program(body).build()
        core = OutOfOrderCore(program, config_registry()["ooo"].config)
        oracle = TaintOracle(
            secret_ranges=((SECRET_ADDR + 8, SECRET_ADDR + 9),)
        )
        oracle.attach(core)
        core.run(max_cycles=100_000)
        assert core.lsq.forwards > 0  # the hop actually went through the LSQ
        assert any(w.channel == "d-cache" for w in oracle.witnesses)

    def test_untainted_program_produces_no_witnesses(self):
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)
            asm.shli(R5, R5, 7)
            asm.add(R5, R5, R12)
            asm.load(R6, R5, 0)

        program = _window_program(body).build()
        _, witnesses = run_with_oracle(
            program, config_registry()["ooo"].config,
            secret_ranges=(),  # nothing is secret
        )
        assert witnesses == []


class TestSquashClearing:
    def test_squash_clears_register_taint(self):
        # The transient body taints R5 but never transmits; afterwards
        # the architectural path reuses R5 for an untainted load whose
        # own mis-speculated reuse must NOT inherit stale taint.
        def body(asm):
            asm.add(R21, R11, R10)
            asm.loadb(R5, R21, 0)  # tainted, then squashed

        asm = _window_program(body)
        program = asm.build()
        core = OutOfOrderCore(program, config_registry()["ooo"].config)
        oracle = TaintOracle(
            secret_ranges=((SECRET_ADDR + 8, SECRET_ADDR + 9),)
        )
        oracle.attach(core)
        core.run(max_cycles=100_000)
        assert oracle.witnesses == []
        # Nothing in flight afterwards: every record was retired on
        # commit or dropped on squash.
        assert not oracle._recs
        assert not oracle._cands
        # No physical register is still marked tainted at halt: the only
        # tainted write was squashed.
        assert not any(oracle._reg)


class TestTransparency:
    @pytest.mark.parametrize("config_name", ["ooo", "strict", "permissive"])
    def test_no_oracle_is_bit_identical(self, config_name):
        fp = generate(0)
        spec = config_registry()[config_name]
        plain = simulate(fp.program, spec.config)
        observed_core = OutOfOrderCore(fp.program, spec.config)
        oracle = TaintOracle(secret_ranges=fp.secret_ranges)
        oracle.attach(observed_core)
        observed = observed_core.run()
        assert stats_dict(plain) == stats_dict(observed)

    def test_attach_subscribes_to_the_core_bus(self):
        fp = generate(0)
        core = OutOfOrderCore(fp.program, config_registry()["ooo"].config)
        oracle = TaintOracle().attach(core)
        bus = core.obs
        assert isinstance(bus, EventBus)
        assert core.hierarchy.obs is bus and core.lsq.obs is bus
        handled = [name for name in EVENT_NAMES
                   if getattr(bus, name) is not None]
        assert handled and all(
            getattr(bus, name) == getattr(oracle, name) for name in handled
        )
        with pytest.raises(ValueError):
            oracle.attach(core)

    def test_run_with_oracle_leaves_no_hooks_behind(self):
        fp = generate(2)
        outcome, witnesses = run_with_oracle(
            fp.program, config_registry()["ooo"].config,
            secret_ranges=fp.secret_ranges,
            tainted_bytes=fp.tainted_bytes,
        )
        assert outcome.stats.cycles > 0
        assert witnesses


def _subscribe(core, oracle, tracer: bool, tracer_first: bool):
    """Subscribe *oracle* (a TaintOracle, or None) and, if *tracer*, a
    PipelineTracer to *core*'s one bus, the tracer first if asked."""
    traced = None
    if tracer and tracer_first:
        traced = PipelineTracer.attach(core, limit=100_000)
    if oracle is not None:
        oracle.attach(core)
    if tracer and not tracer_first:
        traced = PipelineTracer.attach(core, limit=100_000)
    return oracle, traced


def _fuzz_run(fp, config, oracle: bool, tracer: bool, tracer_first: bool):
    """One generated program on a fresh core."""
    core = OutOfOrderCore(fp.program, config)
    oracle, tracer = _subscribe(
        core,
        TaintOracle(secret_ranges=fp.secret_ranges,
                    tainted_bytes=fp.tainted_bytes) if oracle else None,
        tracer, tracer_first,
    )
    outcome = core.run(max_cycles=400_000)
    return stats_dict(outcome), oracle, tracer


def _smt_run(pair, config_name, oracle: bool, tracer: bool,
             tracer_first: bool):
    """One generated attacker/victim pair; the victim context carries the
    observers, as in a two-context campaign."""
    config = replace(
        config_registry()[config_name].config,
        num_contexts=2, sharing=pair.sharing,
    ).validate()
    machine = SmtMachine([pair.attacker, pair.victim.program], config)
    oracle, tracer = _subscribe(
        machine.cores[1],
        TaintOracle(
            secret_ranges=pair.victim.secret_ranges,
            tainted_bytes=pair.victim.tainted_bytes,
            ctx=1,
            shared_channels=SHARED_CHANNELS[pair.sharing],
        ) if oracle else None,
        tracer, tracer_first,
    )
    outcomes = machine.run(max_cycles=400_000)
    stats = ([stats_dict(outcome) for outcome in outcomes],
             machine.interleave_digest())
    return stats, oracle, tracer


class TestSharedBus:
    """The oracle and telemetry ride one bus: in a run with both, the
    oracle sees what it sees alone, the tracer records what it records
    alone, and the simulation is the one with neither attached."""

    def _check(self, run, subject) -> int:
        witnesses = 0
        for index, item in enumerate(subject):
            tracer_first = bool(index % 2)
            plain, _, _ = run(item, False, False, tracer_first)
            stats, alone, _ = run(item, True, False, tracer_first)
            assert stats == plain
            stats, _, traced = run(item, False, True, tracer_first)
            assert stats == plain
            stats, oracle, tracer = run(item, True, True, tracer_first)
            assert stats == plain
            assert oracle.witnesses == alone.witnesses
            assert tracer.records == traced.records
            witnesses += len(alone.witnesses)
        return witnesses

    @pytest.mark.parametrize("config_name", fuzz_configs())
    def test_generated_programs(self, config_name):
        config = config_registry()[config_name].config
        witnesses = self._check(
            lambda fp, *flags: _fuzz_run(fp, config, *flags),
            [generate(seed) for seed in range(5)],
        )
        # The unprotected core leaks, so the witness check is not vacuous.
        assert witnesses > 0 or config_name != "ooo"

    @pytest.mark.parametrize("config_name", fuzz_configs())
    def test_generated_smt_pairs(self, config_name):
        witnesses = self._check(
            lambda pair, *flags: _smt_run(pair, config_name, *flags),
            [generate_smt(seed) for seed in range(3)],
        )
        assert witnesses > 0 or config_name != "ooo"
