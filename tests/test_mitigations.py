"""Tests for the software mitigation passes (§3.2 comparison points)."""

import pytest

from repro.attacks import gpr_steering, meltdown, spectre_v1, ssb
from repro.attacks.common import (
    CACHE_LEAK_MARGIN,
    AttackOutcome,
    default_guesses,
    read_timings,
    run_attack,
)
from repro.config import baseline_ooo
from repro.api import simulate
from repro.errors import AssemblyError
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.registers import LR, R0, R1, R2, R3
from repro.isa.semantics import run_reference
from repro.mitigations import (
    count_fences,
    harden_lfence,
    has_indirect_branches,
    insert_instructions,
    static_overhead,
)

GUESSES = default_guesses(42, 12)


def attack_outcome(program, label="test"):
    outcome = run_attack(program, baseline_ooo())
    return AttackOutcome(
        attack=label, channel="cache", config_label=outcome.label,
        secret=42, timings=read_timings(outcome, GUESSES),
        guesses=GUESSES, margin_required=CACHE_LEAK_MARGIN,
    )


class TestRewriteEngine:
    def _loop_program(self):
        asm = Assembler()
        asm.li(R1, 5)
        asm.li(R2, 0)
        asm.label("loop")
        asm.addi(R2, R2, 3)
        asm.subi(R1, R1, 1)
        asm.bne(R1, R0, "loop")
        asm.halt()
        return asm.build()

    def test_insertion_relocates_backward_target(self):
        program = self._loop_program()
        nop = Instr(Opcode.NOP)
        rewritten = insert_instructions(program, {0: [nop, nop]})
        assert len(rewritten) == len(program) + 2
        state = run_reference(rewritten)
        assert state.regs[R2] == 15

    def test_insertion_relocates_forward_target(self):
        asm = Assembler()
        asm.jmp("end")
        asm.li(R1, 1)  # skipped
        asm.label("end")
        asm.halt()
        rewritten = insert_instructions(
            asm.build(), {2: [Instr(Opcode.NOP)]}
        )
        state = run_reference(rewritten)
        assert state.regs[R1] == 0

    def test_fault_handler_relocated(self):
        asm = Assembler()
        asm.privileged_range(0x1000, 0x2000)
        asm.fault_handler("handler")
        asm.load(R1, R0, 0x1000)
        asm.halt()
        asm.label("handler")
        asm.li(R2, 9)
        asm.halt()
        rewritten = insert_instructions(
            asm.build(), {0: [Instr(Opcode.NOP)] * 3}
        )
        state = run_reference(rewritten)
        assert state.regs[R2] == 9

    def test_indirect_programs_rejected(self):
        asm = Assembler()
        asm.li(R1, 2)
        asm.jr(R1)
        asm.halt()
        with pytest.raises(AssemblyError, match="indirect"):
            insert_instructions(asm.build(), {0: [Instr(Opcode.NOP)]})

    def test_ret_is_exempt_from_indirect_check(self):
        asm = Assembler()
        asm.jmp("main")
        asm.label("fn")
        asm.addi(R2, R1, 1)
        asm.ret()
        asm.label("main")
        asm.li(R1, 4)
        asm.call("fn")
        asm.halt()
        program = asm.build()
        assert not has_indirect_branches(program)
        rewritten = insert_instructions(
            program, {1: [Instr(Opcode.NOP)] * 2}
        )
        assert run_reference(rewritten).regs[R2] == 5

    def test_out_of_range_insertion_rejected(self):
        with pytest.raises(AssemblyError, match="out of range"):
            insert_instructions(
                self._loop_program(), {99: [Instr(Opcode.NOP)]}
            )

    def test_original_program_untouched(self):
        program = self._loop_program()
        before = [i.target for i in program.instrs]
        insert_instructions(program, {0: [Instr(Opcode.NOP)]})
        assert [i.target for i in program.instrs] == before

    def test_static_overhead(self):
        program = self._loop_program()
        rewritten = insert_instructions(program, {0: [Instr(Opcode.NOP)]})
        assert static_overhead(program, rewritten) == \
            pytest.approx(1 / len(program))


class TestLfencePass:
    def test_fences_guard_both_paths(self):
        asm = Assembler()
        asm.beq(R1, R2, "taken")
        asm.li(R3, 1)
        asm.halt()
        asm.label("taken")
        asm.halt()
        hardened = harden_lfence(asm.build())
        assert count_fences(hardened) == 2
        ops = [i.op for i in hardened.instrs]
        assert ops[1] is Opcode.FENCE  # fall-through guard

    def test_semantics_preserved_modulo_link_register(self):
        from repro.workloads.profiles import profile
        from repro.workloads.generator import generate_program
        from dataclasses import replace as drep
        prof = drep(profile("leela"), indirect_call_frac=0.0)
        program = generate_program(prof, 2_000, seed=1)
        hardened = harden_lfence(program)
        ref_a = run_reference(program, max_steps=3_000_000)
        ref_b = run_reference(hardened, max_steps=3_000_000)
        mask = lambda regs: [v for i, v in enumerate(regs) if i != LR]
        assert mask(ref_a.regs) == mask(ref_b.regs)
        assert ref_a.memory.equal_contents(ref_b.memory)

    def test_blocks_spectre_v1_on_insecure_hardware(self):
        program = spectre_v1.build_program(42, GUESSES)
        assert attack_outcome(program).leaked
        hardened = harden_lfence(program)
        assert not attack_outcome(hardened).leaked

    def test_blocks_gpr_steering(self):
        program = gpr_steering.build_program(42, GUESSES)
        hardened = harden_lfence(program)
        assert not attack_outcome(hardened).leaked

    def test_does_not_block_ssb(self):
        """SSB needs no branch: the fence pass misses it entirely (§3.2:
        defenses 'block only specific exploit techniques')."""
        from repro.attacks.ssb import attack_guesses
        guesses = attack_guesses(42, 12)
        program = ssb.build_program(42, guesses)
        hardened = harden_lfence(program)
        outcome = run_attack(hardened, baseline_ooo())
        result = AttackOutcome(
            attack="ssb", channel="cache", config_label=outcome.label,
            secret=42, timings=read_timings(outcome, guesses),
            guesses=guesses, margin_required=CACHE_LEAK_MARGIN,
        )
        assert result.leaked

    def test_does_not_block_meltdown(self):
        program = meltdown.build_program(42, GUESSES)
        hardened = harden_lfence(program)
        outcome = run_attack(hardened, baseline_ooo())
        result = AttackOutcome(
            attack="meltdown", channel="cache",
            config_label=outcome.label, secret=42,
            timings=read_timings(outcome, GUESSES), guesses=GUESSES,
            margin_required=CACHE_LEAK_MARGIN,
        )
        assert result.leaked

    def test_costs_more_than_nda_permissive(self):
        """The paper's economic argument: blanket fencing costs far more
        than NDA's permissive propagation."""
        from dataclasses import replace as drep
        from repro.config import NDAPolicyName, nda_config
        from repro.workloads.generator import generate_program
        from repro.workloads.profiles import profile
        prof = drep(profile("deepsjeng"), indirect_call_frac=0.0)
        program = generate_program(prof, 3_000, seed=0)
        base = simulate(program, baseline_ooo()).stats.cycles
        fenced = simulate(
            harden_lfence(program), baseline_ooo()
        ).stats.cycles
        nda_cycles = simulate(
            program, nda_config(NDAPolicyName.PERMISSIVE)
        ).stats.cycles
        lfence_overhead = fenced / base - 1
        nda_overhead = nda_cycles / base - 1
        assert lfence_overhead > 2 * nda_overhead
        assert lfence_overhead > 0.3
