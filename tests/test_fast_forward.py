"""Idle-cycle fast-forward: bit-identity, engagement, and next_event().

The out-of-order core's fast-forward must be invisible in every counter
(not just cycles/CPI), on every registered scheme, for both generated
workloads and the attack PoCs.  Wall-clock fields are the one sanctioned
difference and are stripped before comparison.  Engagement tests check
that the clock does skip: through a cold miss, and through the wait
behind a serializing op (every PoC's ``rdtsc; load; rdtsc`` probe) that
is ready but not yet at the ROB head.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.api import simulate
from repro.attacks import (
    gpr_steering, lazyfp, meltdown, netspectre, spectre_btb,
    spectre_icache, spectre_v1, spectre_v2, ssb,
)
from repro.attacks.common import default_guesses
from repro.config import config_registry
from repro.core.ooo import OutOfOrderCore
from repro.isa.assembler import Assembler
from repro.isa.registers import R1, R2, R3, R4
from repro.schemes.base import ProtectionModel
from repro.stats.counters import CycleClass
from repro.stats.sampling import run_window
from repro.workloads.generator import spec_program

from tests.test_nda import alu, branch, load

#: Wall-clock instrumentation is nondeterministic by design; everything
#: else must match bit-for-bit.
WALL_FIELDS = {"sim_wall_seconds", "kilo_cycles_per_sec"}

OOO_CONFIGS = sorted(
    name for name, spec in config_registry().items() if not spec.in_order
)

ATTACKS = [
    gpr_steering, lazyfp, meltdown, netspectre, spectre_btb,
    spectre_icache, spectre_v1, spectre_v2, ssb,
]


def stats_dict(outcome):
    data = asdict(outcome.stats)
    for field in WALL_FIELDS:
        data.pop(field)
    return data


def _machine_state(core):
    """Everything a run leaves behind except host time and skip counts."""
    data = asdict(core.stats)
    for field in WALL_FIELDS:
        data.pop(field)
    return (core.cycle, core.committed, core.halted, data,
            core.arch_state().regs)


@pytest.fixture(scope="module")
def mcf_program():
    return spec_program("mcf", instructions=1500, seed=3)


@pytest.fixture(scope="module", params=["mcf", "leela", "exchange2"])
def workload_program(request):
    """A DRAM-bound, a branchy and a high-ILP workload."""
    return spec_program(request.param, instructions=1500, seed=3)


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("config_name", OOO_CONFIGS)
    def test_workload_bit_identical(self, config_name, workload_program):
        config = config_registry()[config_name].config
        fast = simulate(workload_program, config, fast_forward=True)
        slow = simulate(workload_program, config, fast_forward=False)
        assert stats_dict(fast) == stats_dict(slow)
        assert fast.state.regs == slow.state.regs


class TestAttackEquivalence:
    @pytest.mark.parametrize("attack", ATTACKS,
                             ids=[a.__name__.split(".")[-1] for a in ATTACKS])
    @pytest.mark.parametrize("config_name", OOO_CONFIGS)
    def test_attack_bit_identical(self, attack, config_name):
        config = config_registry()[config_name].config
        guesses = default_guesses(42, 8)
        fast = attack.run(config, secret=42, guesses=guesses,
                          fast_forward=True)
        slow = attack.run(config, secret=42, guesses=guesses,
                          fast_forward=False)
        assert stats_dict(fast.outcome) == stats_dict(slow.outcome)
        assert fast.leaked == slow.leaked
        assert fast.recovered == slow.recovered


class TestRunWindowEquivalence:
    def test_sampled_window_bit_identical(self, mcf_program):
        config = config_registry()["strict"].config
        fast = run_window(mcf_program, config, warmup=200, measure=600,
                          fast_forward=True)
        slow = run_window(mcf_program, config, warmup=200, measure=600,
                          fast_forward=False)
        fast_dict, slow_dict = asdict(fast), asdict(slow)
        for field in WALL_FIELDS:
            fast_dict.pop(field)
            slow_dict.pop(field)
        assert fast_dict == slow_dict


class TestRunToCommitResume:
    """``run_to_commit(a); run_to_commit(b)`` equals ``run_to_commit(b)``.

    Sampling windows stop at the warm-up boundary and resume, so the
    core's driver loop must carry no state besides the machine itself.
    """

    TARGET = 1_000

    @staticmethod
    def _counters(core):
        return _machine_state(core) + (core.ff_skipped_cycles,)

    @pytest.mark.parametrize("config_name", ["ooo", "fence-on-branch"])
    @pytest.mark.parametrize("workload", ["mcf", "leela"])
    def test_sliced_equals_single_call(self, workload, config_name):
        program = spec_program(workload, instructions=1500, seed=3)
        config = config_registry()[config_name].config
        sliced = OutOfOrderCore(program, config, fast_forward=True)
        pauses = 0
        for bound in range(64, self.TARGET, 64):
            sliced.run_to_commit(bound, max_cycles=2_000_000)
            pauses += sliced.committed < self.TARGET
        sliced.run_to_commit(self.TARGET, max_cycles=2_000_000)
        whole = OutOfOrderCore(program, config, fast_forward=True)
        whole.run_to_commit(self.TARGET, max_cycles=2_000_000)
        assert pauses == self.TARGET // 64
        assert whole.committed >= self.TARGET and not whole.halted
        assert whole.ff_skipped_cycles > 0
        assert self._counters(sliced) == self._counters(whole)


class TestEngagement:
    def test_fast_forward_skips_cycles(self, mcf_program):
        core = OutOfOrderCore(mcf_program, config_registry()["ooo"].config)
        core.run()
        assert core.fast_forward
        assert core.ff_skipped_cycles > 0

    def test_disabled_core_never_skips(self, mcf_program):
        core = OutOfOrderCore(
            mcf_program, config_registry()["ooo"].config, fast_forward=False
        )
        core.run()
        assert core.ff_skipped_cycles == 0

    def test_wall_fields_populated(self, mcf_program):
        outcome = simulate(mcf_program, config_registry()["ooo"].config)
        assert outcome.sim_wall_seconds > 0
        assert outcome.kilo_cycles_per_sec > 0
        assert outcome.stats.summary()["kilo_cycles_per_sec"] == \
            pytest.approx(outcome.kilo_cycles_per_sec)


def _rdtsc_between_misses():
    """``li; load; rdtsc; load; fence; halt``, both loads on cold lines.

    While each load waits on DRAM, the only ready micro-op is the
    serializing one behind it (RDTSC, then FENCE), which cannot issue
    before it reaches the ROB head.
    """
    asm = Assembler()
    asm.li(R1, 0x40000)
    asm.load(R2, R1, 0)
    asm.rdtsc(R3)
    asm.load(R4, R1, 4096)
    asm.fence()
    asm.halt()
    return asm.build()


def _fenced_load_then_rdtsc():
    """A cold load, a younger load FenceOnBranch fences until the first
    completes, and a serializing op behind both."""
    asm = Assembler()
    asm.li(R1, 0x40000)
    asm.load(R2, R1, 0)
    asm.load(R3, R1, 4096)
    asm.rdtsc(R4)
    asm.halt()
    return asm.build()


SERIALIZING_PROGRAMS = {
    "rdtsc-between-misses": _rdtsc_between_misses,
    "fenced-load-then-rdtsc": _fenced_load_then_rdtsc,
}


def _stepping_behind_loads(core):
    """Record the cycles *core* steps while a load heads its ROB."""
    stepped = []
    step = core.step

    def recording_step():
        head = core.rob.head
        if head is not None and head.is_load_like:
            stepped.append(core.cycle)
        step()

    core.step = recording_step
    return stepped


class TestSerializingWait:
    """A serializing op that is ready but not the ROB head is idle: the
    clock skips the miss it waits behind, with no change in any
    counter."""

    @pytest.mark.parametrize("program", sorted(SERIALIZING_PROGRAMS))
    @pytest.mark.parametrize("config_name", OOO_CONFIGS)
    def test_run_bit_identical(self, config_name, program):
        config = config_registry()[config_name].config
        build = SERIALIZING_PROGRAMS[program]
        fast = OutOfOrderCore(build(), config)
        slow = OutOfOrderCore(build(), config, fast_forward=False)
        fast.run()
        slow.run()
        assert fast.halted
        assert _machine_state(fast) == _machine_state(slow)

    @pytest.mark.parametrize("program", sorted(SERIALIZING_PROGRAMS))
    @pytest.mark.parametrize("config_name", OOO_CONFIGS)
    def test_run_to_commit_bit_identical(self, config_name, program):
        config = config_registry()[config_name].config
        build = SERIALIZING_PROGRAMS[program]
        fast = OutOfOrderCore(build(), config)
        slow = OutOfOrderCore(build(), config, fast_forward=False)
        for target in range(1, len(fast.program.instrs) + 1):
            fast.run_to_commit(target, max_cycles=10_000)
            slow.run_to_commit(target, max_cycles=10_000)
            assert _machine_state(fast) == _machine_state(slow), target
        assert fast.halted

    @pytest.mark.parametrize("config_name", ["ooo", "fence-on-branch"])
    def test_skips_cover_the_miss_wait(self, config_name):
        config = config_registry()[config_name].config
        core = OutOfOrderCore(_rdtsc_between_misses(), config)
        stepped = _stepping_behind_loads(core)
        core.run()
        miss_wait = core.stats.cycle_class[CycleClass.MEMORY_STALL]
        assert miss_wait > 2 * config.mem.dram_cycles
        # Per miss: the access, the completion and at most one more.
        assert len(stepped) <= 6, stepped
        assert core.ff_skipped_cycles > miss_wait

    def test_fence_on_branch_skips_behind_fenced_load(self):
        config = config_registry()["fence-on-branch"].config
        core = OutOfOrderCore(_fenced_load_then_rdtsc(), config)
        stepped = _stepping_behind_loads(core)
        skips = []
        skip_to = core._skip_to

        def recording_skip_to(target):
            ready = sorted(entry.pc for entry in core.iq.ready)
            skips.append((target - core.cycle, ready))
            skip_to(target)

        core._skip_to = recording_skip_to
        core.run()
        # The first miss is skipped with the fenced younger load (pc 2)
        # and the RDTSC (pc 3) both ready.
        behind_fence = [span for span, ready in skips if ready == [2, 3]]
        assert behind_fence and max(behind_fence) > config.mem.dram_cycles
        miss_wait = core.stats.cycle_class[CycleClass.MEMORY_STALL]
        assert miss_wait > 2 * config.mem.dram_cycles
        assert len(stepped) <= 6, stepped


#: The cores behind ``_model_for``'s models: a model holds its core
#: weakly, so the core must be kept alive here.
_idle_cores = []


def _model_for(config_name: str) -> ProtectionModel:
    """A protection model attached to a fresh (idle) core."""
    asm = Assembler()
    asm.halt()
    core = OutOfOrderCore(asm.build(), config_registry()[config_name].config)
    _idle_cores.append(core)
    return core.protection


class TestNextEvent:
    def test_baseline_reactive(self):
        model = _model_for("ooo")
        assert model.next_event(5) is None
        model.arbiter.defer(alu(0))
        assert model.next_event(5) == 5

    def test_nda_unsafe_entry_never_bounds(self):
        model = _model_for("strict")
        guard = branch(0)
        victim = alu(1)
        model.on_dispatch(guard)
        model.on_dispatch(victim)
        model.arbiter.defer(victim)
        # Unsafe: only a pipeline event can free it, so no horizon.
        assert model.next_event(3) is None

    def test_nda_safe_unstamped_fires_now(self):
        model = _model_for("strict")
        guard = branch(0)
        victim = alu(1)
        model.on_dispatch(guard)
        model.on_dispatch(victim)
        model.arbiter.defer(victim)
        model.on_branch_resolved(guard)
        # Safe but unstamped: the next drain stamps safe_cycle, so the
        # scheme must act immediately.
        assert model.next_event(7) == 7

    def test_nda_stamped_entry_bounds_at_due_cycle(self):
        model = _model_for("strict")
        victim = alu(0)
        model.arbiter.defer(victim)
        victim.safe_cycle = 10
        model.arbiter.extra_delay = 4
        assert model.next_event(3) == 14
        # Past due (port-starved earlier): act now.
        assert model.next_event(20) == 20

    def test_invisispec_speculative_pending_waits(self):
        model = _model_for("invisispec-spectre")
        guard = branch(0)
        pending = load(1)
        model.on_dispatch(guard)
        model.on_dispatch(pending)
        model._pending.append(pending)
        # Still speculative: stays invisible until the branch resolves.
        assert model.next_event(4) is None
        model.on_branch_resolved(guard)
        # Visibility point reached: the per-cycle pass must run.
        assert model.next_event(4) == 4

    def test_fence_and_baseline_share_reactive_default(self):
        for name in ("ooo", "fence-on-branch"):
            model = _model_for(name)
            assert type(model).next_event is ProtectionModel.next_event
