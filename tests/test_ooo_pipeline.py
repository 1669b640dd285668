"""Behavioural tests for the out-of-order core."""

from repro.config import baseline_ooo
from repro.api import simulate
from repro.core.ooo import OutOfOrderCore
from repro.isa.assembler import Assembler
from repro.isa.registers import R0, R1, R2, R3, R4, R5, R6


def run_asm(asm, config=None, **kwargs):
    return simulate(asm.build(), config or baseline_ooo(), **kwargs)


class TestBasicExecution:
    def test_arithmetic(self):
        asm = Assembler()
        asm.li(R1, 6)
        asm.li(R2, 7)
        asm.mul(R3, R1, R2)
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.reg(R3) == 42

    def test_loop(self):
        asm = Assembler()
        asm.li(R1, 100)
        asm.li(R2, 0)
        asm.label("loop")
        asm.addi(R2, R2, 1)
        asm.subi(R1, R1, 1)
        asm.bne(R1, R0, "loop")
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.reg(R2) == 100
        assert outcome.stats.committed == 303

    def test_memory_visibility(self):
        asm = Assembler()
        asm.li(R1, 0x1234)
        asm.store(R1, R0, 0x800)
        asm.load(R2, R0, 0x800)
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.reg(R2) == 0x1234
        assert outcome.state.memory.read_word(0x800) == 0x1234

    def test_store_to_load_forwarding_value(self):
        asm = Assembler()
        asm.li(R1, 99)
        # The store and load are adjacent: the load must forward.
        asm.store(R1, R0, 0x900)
        asm.load(R2, R0, 0x900)
        asm.add(R3, R2, R2)
        asm.halt()
        assert run_asm(asm).reg(R3) == 198

    def test_call_ret(self):
        asm = Assembler()
        asm.jmp("main")
        asm.label("fn")
        asm.addi(R2, R1, 1)
        asm.ret()
        asm.label("main")
        asm.li(R1, 10)
        asm.call("fn")
        asm.call("fn")
        asm.halt()
        assert run_asm(asm).reg(R2) == 11

    def test_program_without_halt_drains(self):
        asm = Assembler()
        asm.li(R1, 1)
        outcome = run_asm(asm)
        assert outcome.state.halted
        assert outcome.reg(R1) == 1

    def test_rdtsc_monotonic(self):
        asm = Assembler()
        asm.rdtsc(R1)
        asm.rdtsc(R2)
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.reg(R2) > outcome.reg(R1)

    def test_stats_populated(self):
        asm = Assembler()
        asm.li(R1, 30)
        asm.label("loop")
        asm.subi(R1, R1, 1)
        asm.bne(R1, R0, "loop")
        asm.halt()
        outcome = run_asm(asm)
        stats = outcome.stats
        assert stats.cycles > 0
        assert stats.committed == 62
        assert stats.dispatched >= stats.committed
        assert stats.branches_resolved >= 30
        assert sum(stats.cycle_class.values()) == stats.cycles

    def test_deadlock_detection(self):
        asm = Assembler()
        asm.label("spin")
        asm.jmp("spin")
        asm.halt()
        core = OutOfOrderCore(asm.build(), baseline_ooo())
        # An infinite loop commits continuously, so it is NOT a deadlock;
        # bound it by max_cycles instead.
        outcome = core.run(max_cycles=2_000)
        assert outcome.stats.committed > 0

    def test_fence_orders_execution(self):
        asm = Assembler()
        asm.li(R1, 1)
        asm.fence()
        asm.li(R2, 2)
        asm.halt()
        assert run_asm(asm).reg(R2) == 2


class TestSpeculation:
    def test_mispredict_recovers_architectural_state(self):
        asm = Assembler()
        # A data-dependent branch the predictor cannot know initially.
        asm.li(R1, 1)
        asm.beq(R1, R0, "wrong")
        asm.li(R2, 10)
        asm.halt()
        asm.label("wrong")
        asm.li(R2, 20)
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.reg(R2) == 10

    def test_wrong_path_stores_never_commit(self):
        asm = Assembler()
        asm.li(R1, 5)
        asm.li(R3, 777)
        asm.label("loop")  # trains the branch taken
        asm.subi(R1, R1, 1)
        asm.bne(R1, R0, "loop")
        # Predicted taken one extra time: the store below is wrong-path
        # on the final iteration until the squash.
        asm.store(R3, R0, 0xA00)
        asm.halt()
        outcome = run_asm(asm)
        # Architecturally the store DOES execute after the loop exits --
        # check the value is exactly one store's worth (no double commit).
        assert outcome.state.memory.read_word(0xA00) == 777

    def test_wrong_path_cache_fill_persists(self):
        """The covert-channel substrate: squashed loads leave cache state."""
        asm = Assembler()
        probe = 0xBEEF00
        asm.li(R2, probe)
        # The branch condition comes from a division so the (initially
        # taken-predicted) branch resolves late, giving the wrong path a
        # window to issue its load.
        asm.li(R3, 6)
        asm.li(R4, 2)
        asm.div(R5, R3, R4)  # 3: non-zero
        asm.div(R5, R5, R4)  # still non-zero
        asm.beq(R5, R0, "skip")  # not taken; initial counters say taken
        asm.jmp("end")
        asm.label("skip")
        asm.load(R5, R2, 0)  # wrong-path load fills the probe line
        asm.label("end")
        asm.halt()
        core = OutOfOrderCore(asm.build(), baseline_ooo())
        core.run()
        assert core.hierarchy.l1d.probe(probe)

    def test_btb_updated_by_wrong_path_indirect(self):
        asm = Assembler()
        # Slow-resolving mispredicted branch shields the wrong-path jr.
        asm.li(R1, 8)
        asm.li(R3, 2)
        asm.div(R4, R1, R3)
        asm.div(R4, R4, R3)  # 2: non-zero, ready late
        asm.beq(R4, R0, "wrongpath")  # not taken; init predicts taken
        asm.jmp("end")
        asm.label("wrongpath")
        jr_pc = asm.here
        asm.jr(R2)
        asm.label("end")
        asm.halt()
        asm.nop()
        target_pc = asm.here - 1  # arbitrary valid pc held in R2
        asm2 = asm  # R2 must hold the target before the jr executes
        program = asm2.build()
        program.initial_regs[R2] = target_pc
        core = OutOfOrderCore(program, baseline_ooo())
        core.run()
        assert core.btb.probe(jr_pc) == target_pc

    def test_memory_order_violation_replay(self):
        asm = Assembler()
        asm.word(0xC00, 1)
        asm.li(R1, 3)
        asm.li(R2, 0xC00 * 2)
        asm.li(R3, 55)
        # Store address resolves via a division (slow).
        asm.li(R4, 2)
        asm.div(R5, R2, R4)  # = 0xC00
        asm.store(R3, R5, 0)
        asm.load(R6, R0, 0xC00)  # bypasses, reads stale 1, then replays
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.reg(R6) == 55  # correct value after replay
        assert outcome.stats.memory_violations >= 1

    def test_fault_squashes_younger_and_redirects(self):
        asm = Assembler()
        asm.privileged_range(0x5000, 0x6000)
        asm.fault_handler("handler")
        asm.load(R1, R0, 0x5000)
        asm.li(R2, 1)  # wrong path: must not commit
        asm.halt()
        asm.label("handler")
        asm.li(R3, 9)
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.reg(R3) == 9
        assert outcome.reg(R2) == 0
        assert outcome.reg(R1) == 0  # faulting load never wrote back
        assert outcome.stats.faults == 1

    def test_fault_without_handler_halts(self):
        asm = Assembler()
        asm.privileged_range(0x5000, 0x6000)
        asm.load(R1, R0, 0x5000)
        asm.li(R2, 1)
        asm.halt()
        outcome = run_asm(asm)
        assert outcome.state.halted
        assert outcome.reg(R2) == 0

    def test_faulting_load_forwards_value_when_flawed(self):
        """The Meltdown flaw: dependents may read the faulting load's data."""
        from dataclasses import replace
        asm = Assembler()
        asm.privileged_range(0x5000, 0x6000)
        asm.word(0x5000, 0xAB)
        asm.fault_handler("handler")
        # Retire anchor keeps the faulting load off the ROB head.
        asm.li(R4, 0x7000)
        asm.clflush(R4, 0)
        asm.fence()
        asm.load(R5, R4, 0)  # slow anchor
        asm.load(R1, R0, 0x5000)  # faults at commit
        asm.shli(R2, R1, 1)  # consumes forwarded data
        asm.store(R2, R0, 0x7100)  # wrong path: never commits
        asm.label("handler")
        asm.halt()
        config = baseline_ooo()
        outcome = run_asm(asm, config)
        # Architectural state never sees the secret...
        assert outcome.state.memory.read_word(0x7100) == 0
        assert outcome.reg(R1) == 0
        # ...but with the flaw enabled the dependent DID execute: disable
        # the flaw and the shl can never have executed either way; the
        # visible proxy is the fault count (same) so check both configs run.
        no_flaw = replace(config, forward_faulting_loads=False)
        outcome2 = run_asm(asm, no_flaw)
        assert outcome2.state.memory.read_word(0x7100) == 0

    def test_squash_penalty_slows_mispredicts(self):
        from dataclasses import replace
        from repro.config import CoreConfig
        asm = Assembler()
        import random
        rng = random.Random(0)
        base = 0xD000
        for index in range(256):
            asm.word(base + index * 8, rng.randrange(2))
        asm.li(R1, base)
        asm.li(R2, 200)
        asm.label("loop")
        asm.load(R3, R1, 0)
        asm.beq(R3, R0, "skip")
        asm.addi(R4, R4, 1)
        asm.label("skip")
        asm.addi(R1, R1, 8)
        asm.subi(R2, R2, 1)
        asm.bne(R2, R0, "loop")
        asm.halt()
        fast = run_asm(asm, baseline_ooo())
        slow_core = replace(
            baseline_ooo(), core=CoreConfig(squash_penalty=20)
        ).validate()
        slow = run_asm(asm, slow_core)
        assert slow.stats.cycles > fast.stats.cycles
